"""Differential operators, quantization maps, and star products.

An operator E -> F is any linear map; its order is the least n admitting a
module-linear factorization through the order-n jet prolongation, which
jets.jet_lift reads off one split per jet.  A quantization is a system of
higher connections, one splitting s_n of each jet sequence, and assigns to a
degree-n symbol the order-n operator symbol o s_n o j^n.  build_quantization
reads the system off a chain of connections on the symmetric-form modules,
split by retractions of the wedge-kernel inclusions.
The total symbol inverts the quantization, and the star product is
a * b = sigma(q(a) o q(b)), with a central formal variable hbar counting the
order the composite loses.
"""

from __future__ import annotations

from .linalg import Mat, ONE, rat
from .algebra import LeftModule, mat_from_flat, solve_module_maps
from .calculus import Calculus, CalculusError, memo
from .connections import (BimoduleConnection, Connection, higher_connection_from_split,
                          tensor_connection)
from .jets import HOLONOMIC, JetModule, jet_lift, jet_module, jet_split, sym_module


class LiftError(CalculusError):
    pass


# Operators are searched for an order up to this bound when the symmetric
# forms do not vanish below it.
MAX_ORDER = 4


class OperatorContext:
    """Jet/symbol data for operators on a fixed module.

    order_cap is the first degree with vanishing symmetric forms (jet
    stabilization), else MAX_ORDER.
    """

    def __init__(self, calc: Calculus, e: LeftModule):
        self.calc = calc
        self.e = e
        self.order_cap = next((n for n in range(MAX_ORDER + 1)
                               if sym_module(calc, e, n).dim == 0), MAX_ORDER)
        self._memo = {}

    def jet(self, n) -> JetModule:
        return jet_module(self.calc, self.e, n, HOLONOMIC)

    def sym(self, n):
        return sym_module(self.calc, self.e, n)

    def op_lift(self, mat: Mat, n: int, target: LeftModule = None) -> Mat:
        """Module-linear lift through the order-n jets, unique where it exists.

        Raises LiftError when the operator has order above n, and
        CalculusError when the prolongations do not span the order-n jets.
        """
        lift = jet_lift(self.calc, self.jet(n), mat, self.e if target is None else target)
        if lift is None:
            raise LiftError("operator does not factor through order-%d jets" % n)
        return lift

    def op_order(self, mat: Mat, target: LeftModule = None):
        """Least order <= cap admitting a jet factorization, or None."""
        target = self.e if target is None else target
        return memo(self._memo, ("op_order", mat, target), lambda: next(
            (n for n in range(self.order_cap + 1)
             if jet_lift(self.calc, self.jet(n), mat, target) is not None), None))

    def symbol_of(self, mat: Mat, n: int, target: LeftModule = None) -> "Symbol":
        """Degree-n restriction symbol (lift composed with symbol inclusion)."""
        lift = self.op_lift(mat, n, target)
        return Symbol(n, lift * self.jet(n).iota)


class Symbol:
    """Degree-n symbol: a module-linear map on symmetric n-forms."""

    __slots__ = ("degree", "mat")

    def __init__(self, degree, mat: Mat):
        self.degree = degree
        self.mat = mat

    def __eq__(self, other):
        return (
            isinstance(other, Symbol)
            and self.degree == other.degree
            and self.mat == other.mat
        )

    def is_zero(self):
        return self.mat.is_zero()

    def __add__(self, other):
        if other.degree != self.degree:
            raise ValueError("cannot add symbols of different degree")
        return Symbol(self.degree, self.mat + other.mat)

    def scale(self, c):
        return Symbol(self.degree, self.mat.scale(c))

    def __repr__(self):
        return "Symbol(deg %d)" % self.degree


class GradedSymbol:
    """Finitely supported map degree -> Symbol."""

    def __init__(self, parts=()):
        self.parts = {}
        for s in parts:
            self._add(s)

    def _add(self, s: Symbol):
        if s.is_zero():
            return
        cur = self.parts.get(s.degree)
        merged = s if cur is None else cur + s
        if merged.is_zero():
            self.parts.pop(s.degree, None)
        else:
            self.parts[s.degree] = merged

    def __add__(self, other):
        out = GradedSymbol(list(self.parts.values()))
        for s in other.parts.values():
            out._add(s)
        return out

    def scale(self, c):
        c = rat(c)
        if not c:
            return GradedSymbol()
        return GradedSymbol([s.scale(c) for s in self.parts.values()])

    def __eq__(self, other):
        return isinstance(other, GradedSymbol) and self.parts == other.parts

    def is_zero(self):
        return not self.parts

    def degrees(self):
        return sorted(self.parts)

    def __repr__(self):
        return "GradedSymbol(degrees %s)" % self.degrees()

    @staticmethod
    def of(sym: Symbol):
        return GradedSymbol([sym])


class HPoly:
    """Polynomial in a central variable with graded-symbol coefficients.

    Negative powers are admitted only when allow_negative is set (the
    localized variant used by the formal total symbol).  The star product
    re-wraps that total symbol without it, so a product that loses more
    order than its degree allows is refused.
    """

    def __init__(self, coeffs=None, allow_negative=False):
        self.allow_negative = allow_negative
        self.coeffs = {}
        if coeffs:
            for p, gs in coeffs.items():
                self._set(p, gs)

    def _set(self, p, gs: GradedSymbol):
        if p < 0 and not self.allow_negative:
            raise ValueError("negative powers are not allowed here")
        if gs.is_zero():
            self.coeffs.pop(p, None)
        else:
            self.coeffs[p] = gs

    def add_term(self, p, gs: GradedSymbol):
        cur = self.coeffs.get(p, GradedSymbol())
        self._set(p, cur + gs)

    def __eq__(self, other):
        return isinstance(other, HPoly) and self.coeffs == other.coeffs

    def evaluate(self, hbar) -> GradedSymbol:
        hbar = rat(hbar)
        out = GradedSymbol()
        for p, gs in self.coeffs.items():
            if p < 0:
                if not hbar:
                    raise ZeroDivisionError("cannot evaluate negative powers at zero")
                out = out + gs.scale(rat(ONE, hbar ** (-p)))
            else:
                out = out + gs.scale(hbar**p)
        return out

    def __repr__(self):
        return "HPoly(powers %s)" % sorted(self.coeffs)

    @staticmethod
    def of(x):
        """A symbol or graded symbol as a constant polynomial."""
        return HPoly({0: GradedSymbol.of(x) if isinstance(x, Symbol) else x})


class Quantization:
    """The quantization of a system of higher connections.

    system[k] (1 <= k <= cap) is a HigherConnection on the holonomic order-k
    jets, whose split s_k retracts the symbol inclusion; q^k(symbol) is
    symbol o s_k o j^k, so chain[k] = s_k o j^k is the universal order-k
    operator from the base module to the symmetric k-forms (chain[0] = I).
    The section law (symbol of q^k(s) is s) is that retraction, which
    HigherConnection checks.
    """

    def __init__(self, ctx: OperatorContext, system, sym_conns):
        self.ctx = ctx
        self.system = system          # k -> HigherConnection on J^k
        self.sym_conns = sym_conns    # k -> Connection on S^k (provenance)
        self.chain = {0: Mat.identity(ctx.e.dim)}   # k -> Mat E -> S^k
        self.chain.update((k, hc.split * hc.jet.j) for k, hc in system.items())
        self.cap = max(self.chain)
        self._memo = {}

    def q(self, sym: Symbol) -> Mat:
        """Order-(deg) operator realizing the symbol."""
        if sym.degree > self.cap:
            raise ValueError("degree beyond quantization cap")
        return sym.mat * self.chain[sym.degree]

    def q_formal(self, hp: HPoly) -> dict:
        """Formal deformed quantization: hbar^p s_k goes to power p + k."""
        out = {}
        for p, gs in hp.coeffs.items():
            for k, s in gs.parts.items():
                mat = self.q(s)
                key = p + k
                out[key] = out.get(key, Mat.zeros(mat.rows, mat.cols)) + mat
        return {p: m for p, m in out.items() if not m.is_zero()}

    def q_deformed(self, gs: GradedSymbol, hbar) -> Mat:
        """Sum of hbar^k-weighted degree-k quantizations."""
        hbar = rat(hbar)
        out = Mat.zeros(self.ctx.e.dim, self.ctx.e.dim)
        for p, mat in self.q_formal(HPoly.of(gs)).items():
            out = out + mat.scale(hbar**p)
        return out

    def zeta(self, mat: Mat, k: int, target=None) -> Symbol:
        """Degree-k symbol of an operator of order <= k."""
        return memo(self._memo, ("zeta", mat, k, target),
                    lambda: self.ctx.symbol_of(mat, k, target))

    def _order(self, mat: Mat, target=None) -> int:
        """Order of an operator; LiftError when it has none within the cap."""
        order = self.ctx.op_order(mat, target=target)
        if order is None:
            raise LiftError("operator has no finite order within the cap")
        return order

    def truncate(self, mat: Mat, k: int, target=None) -> Mat:
        """Order-<=k remainder after stripping quantized top symbols."""
        def build():
            cur = mat
            for j in range(self._order(mat, target), k, -1):
                cur = cur - self.q(self.zeta(cur, j, target=target))
            return cur

        return memo(self._memo, ("truncate", mat, k, target), build)

    def graded_piece(self, mat: Mat, k: int) -> Symbol:
        return self.zeta(self.truncate(mat, k), k)

    def homogeneous_component(self, mat: Mat, k: int) -> Mat:
        return self.q(self.graded_piece(mat, k))

    def total_symbol_formal_deformed(self, op_poly: dict) -> HPoly:
        """Formal localized total symbol, the inverse of q_formal.

        op_poly maps powers to operator matrices; the degree-k graded piece
        of the power-p operator lands at power p - k (possibly negative).
        """
        out = HPoly(allow_negative=True)
        for p, mat in op_poly.items():
            for k in range(self._order(mat) + 1):
                out.add_term(p - k, GradedSymbol.of(self.graded_piece(mat, k)))
        return out

    def total_symbol(self, mat: Mat) -> GradedSymbol:
        return self.total_symbol_formal_deformed({0: mat}).evaluate(1)

    def total_symbol_deformed(self, mat: Mat, hbar) -> GradedSymbol:
        """Inverse of the deformed quantization.

        At hbar = 0 this fails (ZeroDivisionError) only when a graded piece
        of positive degree is nonzero.
        """
        return self.total_symbol_formal_deformed({0: mat}).evaluate(hbar)

    def star_poly(self, a: HPoly, b: HPoly) -> HPoly:
        """The star product: a * b is the total symbol of q(a) o q(b).

        hbar counts the order lost by the composite; a plain HPoly refuses
        negative powers, so this also checks the filtration bound.
        """
        qb = self.q_formal(b)
        comp = {}
        for pa, ma in self.q_formal(a).items():
            for pb, mb in qb.items():
                prod = ma * mb
                comp[pa + pb] = comp[pa + pb] + prod if pa + pb in comp else prod
        return HPoly(self.total_symbol_formal_deformed(comp).coeffs)

    def star_formal(self, a, b) -> HPoly:
        """Formal star product of two symbols or graded symbols."""
        return self.star_poly(HPoly.of(a), HPoly.of(b))

    def star_eval(self, a, b, hbar) -> GradedSymbol:
        """Parametrized star product (evaluation of the formal one)."""
        return self.star_formal(a, b).evaluate(hbar)

    def symbol_product(self, a: Symbol, b: Symbol) -> Symbol:
        """Top-degree symbol of the composite of quantized operators."""
        return self.graded_piece(self.q(a) * self.q(b), a.degree + b.degree)


def retraction_solver(calc: Calculus, e: LeftModule, k: int):
    """Canonical two-sided-linear retraction of the wedge-kernel inclusion.

    Returns a matrix one-forms (x) S^k -> S^{k+1} with s o inclusion = id,
    or None when no bimodule retraction exists.
    """
    sym_hi = sym_module(calc, e, k + 1)
    sym_lo = sym_module(calc, e, k)
    fm, _ = calc.form_module(1, sym_lo.mod)
    if sym_hi.dim == 0:
        return Mat.zeros(0, fm.dim)
    from .algebra import Bimodule

    linearity = "bilinear" if isinstance(fm, Bimodule) else "left"
    sol = solve_module_maps(
        fm, sym_hi.mod, linearity,
        compose_eq=[(sym_hi.iota_wedge, Mat.identity(sym_hi.dim))],
    )
    if sol.empty:
        return None
    return mat_from_flat(sol.particular, sym_hi.dim, fm.dim)


def build_quantization(calc: Calculus, e: LeftModule, bconn: BimoduleConnection,
                       conn_e: Connection) -> Quantization:
    """The quantization of the system of higher connections a braided pair induces.

    nabla_0 is the base connection, and nabla_k on S^k (0 < k < cap) pushes the
    braided tensor connection on one-forms (x) S^{k-1} through the retraction
    s_{k-1} of the wedge-kernel inclusion.  chain[k+1] = s_k o nabla_k o chain[k],
    where s_0 is the identity of S^1 = one-forms (x) E, and the order-k
    connection of the system is the left splitting of J^k that chain[k] lifts to.
    """
    ctx = OperatorContext(calc, e)
    cap = ctx.order_cap
    for jet in map(ctx.jet, range(cap + 1)):
        try:
            jet_split(calc, jet)
        except CalculusError as exc:
            raise CalculusError("%s; quantization refuses to pick silently" % exc) from None
    conns = {0: conn_e}
    chain = {1: conn_e.mat}
    s = None  # s_{k-1}, which pushes the tensor connection down to S^k
    for k in range(1, cap):
        tens = tensor_connection(calc, bconn, conns[k - 1])
        if k == 1:
            conns[1] = tens
        else:
            sym_k = ctx.sym(k)
            omega_s = calc.omega_lift(1, s, conns[k - 1].form_module, sym_k.mod)
            conns[k] = Connection(calc, sym_k.mod, omega_s * tens.mat * sym_k.iota_wedge)
        s = retraction_solver(calc, e, k)
        if s is None:
            raise CalculusError("no retraction of the wedge-kernel inclusion at degree %d" % k)
        chain[k + 1] = s * conns[k].mat * chain[k]
    system = {k: higher_connection_from_split(calc, ctx.jet(k),
                                              ctx.op_lift(chain[k], k, target=ctx.sym(k).mod))
              for k in range(1, cap + 1)}
    return Quantization(ctx, system, conns)


def partial_operators(calc: Calculus):
    """Frame-coefficient operators of the differential, for framed calculi.

    Requires the one-forms to be a declared free left module on a frame;
    returns one matrix per frame element with d(h) = sum (op_t h) * theta_t.
    """
    frame = calc.left_frame_size
    if not frame:
        raise CalculusError("calculus has no declared left frame")
    d0 = calc.d[0]
    da = calc.algebra.dim
    return [d0.submatrix(range(t * da, (t + 1) * da), range(da)) for t in range(frame)]
