"""Compiled-in calculi, and the data a quantization needs on any calculus.

Three calculi are compiled in: the two-frame quaternion calculus, and the
universal calculi of the two-point function algebra and of 2x2 matrices;
`fixture(name)` builds each once per process.  For any calculus, the
canonical connection on the base module (the differential itself), a
distinguished braided connection on the one-forms, the induced
quantization and, on framed calculi, named star generators are functions
of the calculus, each built once and kept in `calc.memo`.
"""

from __future__ import annotations

from .linalg import Mat, ZERO, inverse
from .algebra import functions_on_points, matrix_algebra
from .calculus import Calculus, CalculusError, memo, quaternion_calculus, universal_calculus
from .connections import (
    BimoduleConnection,
    Connection,
    InvalidConnection,
    bimodule_connection_from_vector,
    braiding_of,
    solve_bimodule_connections,
)
from .jets import twist_mats
from .quantization import Symbol, build_quantization, partial_operators


def base_connection(calc: Calculus) -> Connection:
    """The differential as the canonical connection on the algebra itself."""
    def build():
        e = calc.base_module()
        fm, _ = calc.form_module(1, e)
        cols = [t_a.apply(calc.algebra.unit) for t_a in twist_mats(calc, e)]
        return Connection(calc, e, Mat.from_cols(cols, fm.dim))

    return calc.memo(("base_conn",), build)


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


def quaternion_metric(calc: Calculus):
    """The antisymmetric frame combination di (x) dj - dj (x) di, generating the wedge kernel."""
    ts = calc.tensor_pq(1, 1)
    di, dj = frame_vectors(calc)
    return [x - y for x, y in zip(ts.class_of(di, dj), ts.class_of(dj, di))]


def frame_parallel_bimodule_connection(calc: Calculus) -> BimoduleConnection:
    """The braided connection with all frame one-forms parallel, in closed form.

    Left Leibniz and nabla theta_t = 0 give nabla(e_a theta_t) = d(e_a) (x)
    theta_t.  With F the one-forms e_a theta_t as columns, (t, a) in order,
    and N their images, nabla F = N; F is invertible since the theta_t are a
    left frame, so nabla = N F^-1.  The braiding is the one right Leibniz
    assigns to nabla (braiding_of), and a failed law of the pair is refused.
    The pinned solve of the joint system is the test reference.
    """
    om1 = calc.omega1
    om11, _ = calc.form_module(1, om1)
    twist = twist_mats(calc, om1)
    pairs = [(theta, a) for theta in frame_vectors(calc) for a in range(calc.algebra.dim)]
    f = Mat.from_cols([om1.left[a].apply(theta) for theta, a in pairs], om1.dim)
    n = Mat.from_cols([twist[a].apply(theta) for theta, a in pairs], om11.dim)
    nabla = Connection(calc, om1, n * inverse(f))
    try:
        return BimoduleConnection(calc, nabla, braiding_of(calc, nabla.mat))
    except InvalidConnection as exc:
        raise CalculusError("no frame-parallel braided connection exists: %s" % exc) from None


def braided_connection(calc: Calculus) -> BimoduleConnection:
    """Frame-parallel braided connection, or the canonical solver point."""
    def build():
        if calc.left_frame_size:
            return frame_parallel_bimodule_connection(calc)
        sol = solve_bimodule_connections(calc)
        if sol.empty:
            raise CalculusError("calculus admits no braided connection")
        return bimodule_connection_from_vector(calc, sol.particular)

    return calc.memo(("braided",), build)


def quantization_of(calc: Calculus):
    """The quantization induced by the braided and base connections."""
    return calc.memo(("quantization",), lambda: build_quantization(
        calc, calc.base_module(), braided_connection(calc), base_connection(calc)))


def star_generators(calc: Calculus):
    """Named momentum and position symbols of a framed calculus.

    p_<label> is the order-1 symbol of the coefficient operator of frame
    form t.  When d(b) is frame form t for a basis element b, the label is
    the name of b and x_<label> is right multiplication by b; otherwise the
    label is t and there is no position.
    """
    def build():
        frame = frame_vectors(calc)
        q = quantization_of(calc)
        alg = calc.algebra
        d_images = [calc.d[0].col(b) for b in range(alg.dim)]
        gens = {}
        for t, (fv, op) in enumerate(zip(frame, partial_operators(calc))):
            b = next((b for b, img in enumerate(d_images) if img == fv), None)
            label = str(t) if b is None else alg.basis_names[b]
            if "p_" + label in gens:
                raise CalculusError("star generator label %r is used twice" % label)
            gens["p_" + label] = q.ctx.symbol_of(op, 1)
            if b is not None:
                gens["x_" + label] = Symbol(0, alg.rmat[b])
        return gens

    return calc.memo(("star_gens",), build)


_REGISTRY = {
    "quaternion": quaternion_calculus,
    "two-point-universal": lambda: universal_calculus(functions_on_points(2)),
    "matrix2-universal": lambda: universal_calculus(matrix_algebra(2)),
}
FIXTURE_NAMES = tuple(_REGISTRY)
_BUILT = {}


def fixture(name: str) -> Calculus:
    """The compiled-in calculus `name`, built once per process."""
    if name not in _REGISTRY:
        raise KeyError("unknown fixture %r (have: %s)" % (name, ", ".join(FIXTURE_NAMES)))
    return memo(_BUILT, ("fixture", name), _REGISTRY[name])
