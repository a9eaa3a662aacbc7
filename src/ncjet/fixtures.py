"""Built-in calculi with their distinguished connections and generators.

Three fixtures are compiled in: the two-frame quaternion calculus, and the
universal calculi of the two-point function algebra and of 2x2 matrices.
Each fixture lazily provides the canonical connection on the base module
(the differential itself), a distinguished braided connection on the
one-forms, and the induced quantization.
"""

from __future__ import annotations

from .linalg import Mat, ZERO
from .algebra import functions_on_points, matrix_algebra
from .calculus import Calculus, CalculusError, memo, quaternion_calculus, universal_calculus
from .connections import (
    BimoduleConnection,
    Connection,
    _omega_pair,
    bimodule_connection_from_vector,
    bimodule_connection_system,
    solve_bimodule_connections,
)
from .quantization import Symbol, build_quantization, partial_operators

FIXTURE_NAMES = ("quaternion", "two-point-universal", "matrix2-universal")


def base_connection(calc: Calculus) -> Connection:
    """The differential as the canonical connection on the algebra itself."""
    e = calc.base_module()
    fm, ts = calc.form_module(1, e)
    cols = [ts.class_of(calc.d_of_basis(a), calc.algebra.unit) for a in range(calc.algebra.dim)]
    return Connection(calc, e, Mat.from_cols(cols, fm.dim))


def frame_vectors(calc: Calculus):
    """Coordinate vectors of the declared left frame of the one-forms."""
    if not calc.left_frame_size:
        raise CalculusError("calculus has no declared left frame")
    da = calc.algebra.dim
    out = []
    for t in range(calc.left_frame_size):
        v = [ZERO] * calc.omega1.dim
        for a, u in enumerate(calc.algebra.unit):
            if u:
                v[t * da + a] = u
        out.append(v)
    return out


def frame_parallel_bimodule_connection(calc: Calculus) -> BimoduleConnection:
    """The braided connection with all frame one-forms parallel.

    Solves the joint connection/braiding system with the frame columns of
    the connection pinned to zero; raises if that pinning is infeasible or
    leaves residual freedom.
    """
    om11, _ = _omega_pair(calc)
    o1, qq = calc.omega1.dim, om11.dim
    sys = bimodule_connection_system(calc)
    for fv in frame_vectors(calc):
        for i in range(qq):
            coeffs = {}
            for j, v in enumerate(fv):
                if v:
                    coeffs[i * o1 + j] = v
            sys.add_row(coeffs)
    sol = sys.solve()
    if sol.empty:
        raise CalculusError("no frame-parallel braided connection exists")
    if sol.dim != 0:
        raise CalculusError("frame-parallel braided connection is not unique")
    return bimodule_connection_from_vector(calc, sol.particular)


class Fixture:
    """A compiled-in calculus with its distinguished auxiliary data."""

    def __init__(self, name, calc_builder):
        self.name = name
        self._calc_builder = calc_builder
        self._memo = {}

    @property
    def calc(self) -> Calculus:
        return memo(self._memo, "calc", self._calc_builder)

    @property
    def base(self):
        return self.calc.base_module()

    def base_conn(self) -> Connection:
        return memo(self._memo, "base_conn", lambda: base_connection(self.calc))

    def braided_conn(self) -> BimoduleConnection:
        """Frame-parallel braided connection, or the canonical solver point."""
        def build():
            if self.calc.left_frame_size:
                return frame_parallel_bimodule_connection(self.calc)
            sol = solve_bimodule_connections(self.calc)
            if sol.empty:
                raise CalculusError("fixture admits no braided connection")
            return bimodule_connection_from_vector(self.calc, sol.particular)

        return memo(self._memo, "braided", build)

    def quantization(self):
        return memo(self._memo, "quant", lambda: build_quantization(
            self.calc, self.base, self.braided_conn(), self.base_conn()))

    def star_generators(self):
        """Named position/momentum symbol generators (framed calculi only)."""
        return memo(self._memo, "gens", self._star_generators)

    def _star_generators(self):
        calc = self.calc
        frame = calc.left_frame_size
        if not frame:
            raise CalculusError("fixture has no declared frame generators")
        alg = calc.algebra
        q = self.quantization()
        gens = {}
        # positions: right multiplication by the d-image basis directions
        names = {0: "i", 1: "j"} if self.name == "quaternion" else {}
        partials = partial_operators(calc)
        for t in range(frame):
            label = names.get(t, str(t))
            gens["p_%s" % label] = q.ctx.symbol_of(partials[t], 1)
        if self.name == "quaternion":
            for idx, label in ((1, "i"), (2, "j")):
                x = alg.basis_vector(idx)
                rmat = Mat.from_rows(
                    [alg.mul(alg.basis_vector(s), x) for s in range(alg.dim)], alg.dim
                ).transpose()
                gens["x_%s" % label] = Symbol(0, rmat)
        return gens


_REGISTRY = {
    "quaternion": Fixture("quaternion", quaternion_calculus),
    "two-point-universal": Fixture(
        "two-point-universal", lambda: universal_calculus(functions_on_points(2))
    ),
    "matrix2-universal": Fixture(
        "matrix2-universal", lambda: universal_calculus(matrix_algebra(2))
    ),
}


def fixture(name: str) -> Fixture:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown fixture %r (have: %s)" % (name, ", ".join(FIXTURE_NAMES)))
