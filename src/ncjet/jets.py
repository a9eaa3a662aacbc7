"""Jet modules, symmetric-form modules, Spencer operators and complexes.

Jets of order n live inside the iterated pair space P(M) = M + forms(x)M,
where the 1-jet of M is all of P(M) with the twisted left action
a.(x, w) = (ax, aw - da(x)x).  J^n is cut out of P(J^{n-1}) by its flavor's
obstructions: holonomic n-jets are the pairs (x, alpha) with
(id (x) pi)(alpha) = rho(x) and D(alpha) = 0, where pi and rho are J^{n-1}'s
own projection and symbol part and D is its Spencer operator on one-form
valued jets; sesquiholonomic jets obey the first condition only; order 1
and the nonholonomic flavor have none, so their jets are the full pair
space.  Symmetric n-forms are the kernel of the wedge contraction on
one-forms (x) S^{n-1}.  Both kernels keep the restricted actions of
calculus.kernel_submodule.
"""

from __future__ import annotations

from functools import reduce

from .linalg import (Mat, Subspace, ONE, image_of, intersect, kernel_of, rank, span_of,
                     split)
from .algebra import LeftModule
from .calculus import (Calculus, CalculusError, _plain_sum, _wedge_prepend, kernel_submodule,
                       leibniz_map)

HOLONOMIC = "holonomic"
SESQUI = "sesquiholonomic"
NONHOLONOMIC = "nonholonomic"


class PairData:
    """P(M) = M + forms(x)M with the jet left action, plus its split maps.

    m0 and m1 are the dimensions of M and forms(x)M."""

    def __init__(self, mod, m0, m1):
        self.mod = mod
        eye0 = Mat.identity(m0)
        eye1 = Mat.identity(m1)
        z01 = Mat.zeros(m0, m1)
        z10 = Mat.zeros(m1, m0)
        self.pi = eye0.hstack(z01)          # first component
        self.rho = z10.hstack(eye1)         # second component
        self.j = eye0.vstack(z10)           # x -> (x, 0)
        self.iota = z01.vstack(eye1)        # w -> (0, w)


def pair_module(calc: Calculus, m: LeftModule) -> PairData:
    """The split 1-jet space of a left module (cached per module)."""
    return calc.memo(("pair", m), lambda: _pair_module(calc, m))


def _pair_module(calc: Calculus, m: LeftModule) -> PairData:
    fm, _ = calc.form_module(1, m)
    zeros = Mat.zeros(m.dim, fm.dim)
    left = [m.left[a].hstack(zeros).vstack((-t_a).hstack(fm.left[a]))
            for a, t_a in enumerate(twist_mats(calc, m))]
    mod = LeftModule(calc.algebra, m.dim + fm.dim, left, label="P(%s)" % m.label)
    return PairData(mod, m.dim, fm.dim)


def twist_mats(calc: Calculus, m: LeftModule, right=False):
    """T_a(x) = class of d(e_a) (x) x in one-forms (x) M, one matrix per basis a (memoized).

    With right, M is the one-forms and T_a(x) = class of x (x) d(e_a)."""
    def build():
        _, ts = calc.form_module(1, m)
        mats = []
        for a in range(calc.algebra.dim):
            da = calc.d_of_basis(a)
            cols = [ts.class_of({x: ONE}, da) if right else ts.class_of(da, {x: ONE})
                    for x in range(m.dim)]
            mats.append(Mat.from_cols(cols, ts.dim))
        return mats

    return calc.memo(("twist", m, right), build)


def pair_map(calc: Calculus, f: Mat, src: LeftModule, dst: LeftModule) -> Mat:
    """P on maps: f (+) (id (x) f) from P(src) to P(dst)."""
    om = calc.omega_lift(1, f, src, dst)
    return f.hstack(Mat.zeros(f.rows, om.cols)).vstack(Mat.zeros(om.rows, f.cols).hstack(om))


def dtilde_maps(calc: Calculus, jet: JetModule):
    """Obstruction maps on P(J^{n-1}) for jet = J^{n-1} (n >= 2): (first, second).

    first(x, alpha) = (id (x) pi)(alpha) - rho(x), valued in forms(x)J^{n-2};
    second(x, alpha) = D(alpha), the Spencer operator of J^{n-1} on one-form
    valued jets, valued in 2-forms (x) J^{n-2}.  Sesquiholonomic n-jets are the
    kernel of first, holonomic n-jets the kernel of both.
    """
    calc.check_degree(2)

    def build():
        spencer = spencer_operator(calc, jet, 1)
        first = (-jet.rho).hstack(calc.omega_lift(1, jet.pi, jet.mod, jet.lower.mod))
        return first, Mat.zeros(spencer.rows, jet.dim).hstack(spencer)

    return calc.memo(("dtilde", jet), build)


def exterior_operator(calc: Calculus, m: int, dom: LeftModule, low: LeftModule,
                      pi, d0: Mat, what: str) -> Mat:
    """Extension of d0: dom -> one-forms (x) low to m-form-valued elements.

    calculus.leibniz_map on the form modules: m-forms (x) dom go to
    (m+1)-forms (x) low by w (x) x -> dw (x) pi(x) + (-1)^m w ^ d0(x), the
    rule each higher differential of the tower obeys; pi=None drops the
    d-term.  At m = 0 it is d0 itself.
    """
    if m == 0:
        return d0
    return leibniz_map(calc, m, calc.form_module(m, dom)[1], calc.form_module(m + 1, low)[1],
                       calc.form_module(1, low)[1], pi, d0, what)


class SymModule:
    """Symmetric n-forms valued in a module: iterated wedge kernel."""

    def __init__(self, n, mod, iota_wedge, lower):
        self.n = n
        self.mod = mod
        self.iota_wedge = iota_wedge  # S^n -> O1 (x) S^{n-1} coordinates
        self.lower = lower

    @property
    def dim(self):
        return self.mod.dim

    def __repr__(self):
        return "SymModule(n=%d, dim %d)" % (self.n, self.dim)


def sym_module(calc: Calculus, e: LeftModule, n: int) -> SymModule:
    """S^0 = E, S^1 = one-forms (x) E, then kernels of the wedge map."""
    if n < 0:
        raise ValueError("negative symmetric degree")
    return calc.memo(("sym", e, n), lambda: _sym_module(calc, e, n))


def _sym_module(calc: Calculus, e: LeftModule, n: int) -> SymModule:
    if n == 0:
        return SymModule(0, e, None, None)
    if n == 1:
        fm, _ = calc.form_module(1, e)
        return SymModule(1, fm, Mat.identity(fm.dim), sym_module(calc, e, 0))
    lower = sym_module(calc, e, n - 1)
    mod, ker, _ = kernel_submodule(
        calc.form_module(1, lower.mod)[0], delta_contraction(calc, e, n - 1, 1),
        "S%d(%s)" % (n, e.label), "symmetric forms are not action-stable")
    return SymModule(n, mod, ker.basis.transpose(), lower)


class JetModule:
    """Jet space of one flavor with its structure maps.

    l embeds the carrier into P(J^{n-1}); pi and rho are the pair
    components after l; j is the (merely k-linear) prolongation; iota
    includes the symmetric forms (holonomic flavor, when they exist).
    """

    def __init__(self, calc, base, n, flavor, mod, lower, l, j, iota=None, carrier=None, sym=None):
        self.calc = calc
        self.base = base
        self.n = n
        self.flavor = flavor
        self.mod = mod
        self.lower = lower
        self.l = l
        self.j = j
        self.iota = iota
        self.carrier = carrier  # Subspace of P(J^{n-1}) coords, for n >= 1
        self.sym = sym
        if n >= 1:
            pd = pair_module(calc, lower.mod)
            self.pi = pd.pi * l
            self.rho = pd.rho * l
        else:
            self.pi = None
            self.rho = None

    @property
    def dim(self):
        return self.mod.dim

    def __repr__(self):
        return "JetModule(%s, n=%d, dim %d)" % (self.flavor, self.n, self.dim)


def jet_module(calc: Calculus, e: LeftModule, n: int, flavor=HOLONOMIC) -> JetModule:
    if flavor not in (HOLONOMIC, SESQUI, NONHOLONOMIC):
        raise ValueError("unknown jet flavor %r" % flavor)
    if n < 0:
        raise ValueError("negative jet order")
    if n == 0 or (flavor == SESQUI and n < 2):
        flavor = HOLONOMIC
    return calc.memo(("jet", e, n, flavor), lambda: _jet_module(calc, e, n, flavor))


def _jet_module(calc: Calculus, e: LeftModule, n: int, flavor) -> JetModule:
    """J^n of one flavor, cut out of P(J^{n-1}) by that flavor's obstructions.

    Order 1 and the nonholonomic flavor have none, and their carrier is the
    whole pair space.  Sesquiholonomic jets are the kernel of dtilde_maps'
    first map, holonomic jets the kernel of both; the lower jet is
    nonholonomic for the nonholonomic flavor and holonomic otherwise.
    """
    if n == 0:
        return JetModule(calc, e, 0, HOLONOMIC, e, None, None, Mat.identity(e.dim),
                         iota=Mat.identity(e.dim))
    lower = jet_module(calc, e, n - 1, NONHOLONOMIC if flavor == NONHOLONOMIC else HOLONOMIC)
    pd = pair_module(calc, lower.mod)
    if n == 1 or flavor == NONHOLONOMIC:
        mod, carrier, coords = pd.mod, Subspace.full(pd.mod.dim), lambda m: m
    else:
        first, second = dtilde_maps(calc, lower)
        mod, carrier, coords = kernel_submodule(
            pd.mod, first if flavor == SESQUI else first.vstack(second),
            "J%d%s(%s)" % (n, "" if flavor == HOLONOMIC else "'", e.label),
            "element escapes the %s jet carrier" % flavor)
    # symbols: holonomic jets and J^1 of every flavor
    sym = sym_module(calc, e, n) if n == 1 or flavor == HOLONOMIC else None
    iota = None if sym is None else coords(
        pd.iota * calc.omega_lift(1, lower.iota, sym.lower.mod, lower.mod) * sym.iota_wedge)
    # prolongation: j^n(e) = (j^{n-1}(e), 0)
    return JetModule(calc, e, n, flavor, mod, lower, carrier.basis.transpose(),
                     coords(pd.j * lower.j), iota=iota, carrier=carrier, sym=sym)


def flavor_inclusion(calc: Calculus, e: LeftModule, n: int, src=HOLONOMIC, dst=NONHOLONOMIC) -> Mat:
    """Matrix of the canonical inclusion between jet flavors at order n."""
    order = {HOLONOMIC: 0, SESQUI: 1, NONHOLONOMIC: 2}
    if order[src] >= order[dst]:
        raise ValueError("inclusion goes from smaller to larger flavor")
    sj = jet_module(calc, e, n, src)
    dj = jet_module(calc, e, n, dst)
    if n <= 1:
        return Mat.identity(sj.dim)
    if dst == SESQUI:
        # both are subspaces of the same pair space over the holonomic lower
        inc = dj.carrier.coords_of_cols(sj.l)
        if inc is None:
            raise CalculusError("holonomic jet escapes sesquiholonomic carrier")
        return inc
    # dst nonholonomic: P applied to the lower inclusion, then l
    lower_inc = flavor_inclusion(calc, e, n - 1, src, NONHOLONOMIC) if n - 1 >= 2 else (
        Mat.identity(jet_module(calc, e, n - 1, src).dim))
    sl = jet_module(calc, e, n - 1, src)
    nl = jet_module(calc, e, n - 1, NONHOLONOMIC)
    return pair_map(calc, lower_inc, sl.mod, nl.mod) * sj.l


def spencer_operator(calc: Calculus, jet: JetModule, m: int) -> Mat:
    """Spencer operator on m-form-valued jets of any flavor.

    Maps m-forms (x) J^n to (m+1)-forms (x) J^{n-1} by
    w (x) xi -> dw (x) pi(xi) - (-1)^m w ^ rho(l(xi)); for sesquiholonomic
    jets the target is the holonomic (n-1)-jet.
    """
    if jet.n < 1:
        raise ValueError("Spencer operator needs jet order >= 1")
    calc.check_degree(m + 1)
    return calc.memo(("spencer", jet, m), lambda: exterior_operator(
        calc, m, jet.mod, jet.lower.mod, jet.pi, -jet.rho, "Spencer operator"))


def spencer_lift_symbol_check(calc: Calculus, jet: JetModule, m: int):
    """Restriction symbol of the Spencer operator vs wedge (x) projection.

    Reads the operator's order-1 jet lift off jet_lift and returns the pair
    (computed symbol, expected symbol).
    """
    smat = spencer_operator(calc, jet, m)
    dom = calc.form_module(m, jet.mod)[0] if m >= 1 else jet.mod
    tgt_mod = calc.form_module(m + 1, jet.lower.mod)[0]
    j1dom = jet_module(calc, dom, 1)
    lift = jet_lift(calc, j1dom, smat, tgt_mod)
    if lift is None:
        raise CalculusError("Spencer operator admits no order-1 lift")
    got = lift * j1dom.iota
    # expected: alpha (x) w (x) xi -> (alpha ^ w) (x) pi(xi)
    if m == 0:
        return got, calc.omega_lift(1, jet.pi, jet.mod, jet.lower.mod)
    _, ts_dom1 = calc.form_module(1, dom)
    _, ts_low = calc.form_module(m, jet.lower.mod)
    _, ts_tgt = calc.form_module(m + 1, jet.lower.mod)
    pi_plain = ts_low.plain_cols(calc.omega_lift(m, jet.pi, jet.mod, jet.lower.mod))
    expected = ts_tgt.gather(_wedge_prepend(calc, 1, b, pi_plain[u], jet.lower.mod.dim, q=m)
                             for b, u in (divmod(c, dom.dim) for c in ts_dom1.section))
    return got, expected


def delta_contraction(calc: Calculus, e: LeftModule, h: int, k: int) -> Mat:
    """Wedge contraction on k-forms (x) S^h, valued in (k+1)-forms (x) S^{h-1}."""
    if h < 1:
        raise ValueError("need h >= 1")
    calc.check_degree(k + 1)
    sh = sym_module(calc, e, h)
    return calc.memo(("delta", e, h, k), lambda: exterior_operator(
        calc, k, sh.mod, sym_module(calc, e, h - 1).mod, None, sh.iota_wedge,
        "wedge contraction"))


def spencer_complex(calc: Calculus, e: LeftModule, n: int):
    """The length-n Spencer sequence: maps, complex verdict, cohomology dims.

    Returns a dict with the prolongation, the Spencer operators, whether all
    consecutive composites vanish, and the list of cohomology dimensions at
    positions 0..n+1.  Kept per calculus.
    """
    calc.check_degree(n)
    return calc.memo(("spencer_complex", e, n), lambda: _spencer_complex(calc, e, n))


def _spencer_complex(calc: Calculus, e: LeftModule, n: int):
    jets = [jet_module(calc, e, kk) for kk in range(n + 1)]
    maps = [jets[n].j]
    for k in range(n):
        maps.append(spencer_operator(calc, jets[n - k], k))
    is_complex = all((b * a).is_zero() for a, b in zip(maps, maps[1:]))
    dims = [e.dim - rank(maps[0])]  # position 0: kernel of the prolongation
    for pos in range(1, n + 1):
        ker = kernel_of(maps[pos])
        img = image_of(maps[pos - 1])
        dims.append(ker.dim - intersect(ker, img).dim)
    last = maps[n]
    dims.append(last.rows - rank(last))
    return {"maps": maps, "is_complex": is_complex, "cohomology": dims}


def nu_operator(calc: Calculus, e: LeftModule, m: int):
    """Degree-raising pairing on twisted form pairs.

    nu(w (x) (alpha + beta)) = (-1)^deg(w) dw ^ alpha + w ^ beta, valued in
    (m+2)-forms (x) E.  Returns (matrix, twisted module, one-form part dim).
    """
    from .calculus import twisted_pair

    calc.check_degree(m + 2)
    tw, m1, m2 = twisted_pair(calc, e)
    _, ts_tgt = calc.form_module(m + 2, e)
    _, ts1e = calc.form_module(1, e)
    _, ts2e = calc.form_module(2, e)
    if m == 0:
        # projection onto the second summand
        return Mat.zeros(m2.dim, m1.dim).hstack(Mat.identity(m2.dim)), tw, m1.dim
    _, ts_dom = calc.form_module(m, tw)
    sign = ONE if m % 2 == 0 else -ONE
    alpha_plain = [{c: ONE} for c in ts1e.section]
    beta_plain = [{c: ONE} for c in ts2e.section]
    cols = []
    for b, dwb in enumerate(calc.d[m].transpose().nz):
        for t in range(tw.dim):
            if t < m1.dim:
                # (-1)^m dw ^ alpha with alpha in one-forms (x) E
                terms = [(sign * v1, _wedge_prepend(calc, m + 1, r1, alpha_plain[t], e.dim))
                         for r1, v1 in dwb.items()]
                cols.append(_plain_sum(terms))
            else:
                cols.append(_wedge_prepend(calc, m, b, beta_plain[t - m1.dim], e.dim, q=2))
    return calc.descend(ts_tgt.gather(cols), ts_dom, "nu operator"), tw, m1.dim


def prolongation_map(calc: Calculus, jet: JetModule) -> Mat:
    """S: A (x) E -> J^n, a (x) x -> a.j^n(x), kept per jet."""
    return calc.memo(("prolongation", jet),
                     lambda: reduce(Mat.hstack, [m * jet.j for m in jet.mod.left]))


def elemental_span(calc: Calculus, jet: JetModule) -> Subspace:
    """The submodule the prolongations generate, kept per jet.

    A is unital, so it is the span of the a.j^n(x): the image of S."""
    return calc.memo(("elemental", jet), lambda: image_of(prolongation_map(calc, jet)))


def jet_split(calc: Calculus, jet: JetModule):
    """(S^+, ker S as columns), kept per jet.

    Raises CalculusError when S is not onto: the elemental span is not all of J^n."""
    def build():
        if elemental_span(calc, jet).dim < jet.dim:
            raise CalculusError("jet lifts are not unique at order %d" % jet.n)
        splus, ker = split(prolongation_map(calc, jet))
        return splus, ker.basis.transpose()

    return calc.memo(("jet_split", jet), build)


def jet_lift(calc: Calculus, jet: JetModule, d: Mat, target: LeftModule):
    """The unique A-linear phi: J^n -> target with phi o j^n = d, or None.

    phi S = T := [a.d]_a forces phi = T S^+, a lift exactly when T kills ker S."""
    splus, ker = jet_split(calc, jet)
    t = reduce(Mat.hstack, [m * d for m in target.left])
    return t * splus if (t * ker).is_zero() else None


def holonomic_via_spencer(calc: Calculus, e: LeftModule, n: int) -> Subspace:
    """Holonomic carrier recomputed as a Spencer kernel on sesquiholonomic jets.

    Returns the kernel subspace expressed in P(J^{n-1}) coordinates so it can
    be compared with the holonomic carrier directly.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    sq = jet_module(calc, e, n, SESQUI)
    lower = jet_module(calc, e, n - 1, HOLONOMIC)
    sbar = -sq.rho  # sesquiholonomic Spencer at m=0, valued in holonomic lower
    s11 = spencer_operator(calc, lower, 1)
    composite = s11 * sbar
    ker = kernel_of(composite)
    return span_of((ker.basis * sq.l.transpose()).nz, sq.l.rows)


def jet_exactness(calc: Calculus, e: LeftModule, n: int):
    """Exactness and pullback data of the order-n jet sequence (n >= 1), kept per calculus."""
    if n < 1:
        raise ValueError("jet exactness needs jet order >= 1")
    return calc.memo(("exactness", e, n), lambda: _jet_exactness(calc, e, n))


def _jet_exactness(calc: Calculus, e: LeftModule, n: int):
    jet = jet_module(calc, e, n, HOLONOMIC)
    lower = jet.lower
    sym = jet.sym
    report = {"dims": (sym.dim, jet.dim, lower.dim),
              "pi_surjective": rank(jet.pi) == lower.dim,
              "iota_injective": rank(jet.iota) == sym.dim,
              "image_is_kernel": kernel_of(jet.pi) == image_of(jet.iota),
              "dims_additive": jet.dim == lower.dim + sym.dim}
    # pullback: carrier intersect (prolongations of the lower jet) equals
    # the prolongation image of the base
    inter = intersect(jet.carrier, image_of(pair_module(calc, lower.mod).j))
    report["pullback_square"] = inter == image_of(jet.l * jet.j)
    report["pullback_dim"] = inter.dim
    report["exact"] = all(
        report[k] for k in ("pi_surjective", "iota_injective", "image_is_kernel", "dims_additive")
    )
    return report


def bicomplex_report(calc: Calculus, e: LeftModule, n: int, corrupt_sign=False):
    """Commutativity of every cell of the jet/symbol double complex.

    Rows k = 0..n read: k-forms (x) S^{n-k} -> k-forms (x) J^{n-k} ->
    k-forms (x) J^{n-k-1}; columns are the wedge contraction (with a minus
    sign), and two Spencer operators.  corrupt_sign flips the contraction
    sign to provide a negative control; the report is kept per (n, corrupt_sign).
    """
    calc.check_degree(n)
    return calc.memo(("bicomplex", e, n, corrupt_sign),
                     lambda: _bicomplex_report(calc, e, n, corrupt_sign))


def _bicomplex_report(calc: Calculus, e: LeftModule, n: int, corrupt_sign):
    jets = [jet_module(calc, e, kk, HOLONOMIC) for kk in range(n + 1)]
    syms = [sym_module(calc, e, kk) for kk in range(n + 1)]
    # the omega_k-lifts of iota at J^{n-k} (k <= n) and of pi at J^{n-k} (k < n)
    iotas = [calc.omega_lift(k, jets[n - k].iota, syms[n - k].mod, jets[n - k].mod)
             for k in range(n + 1)]
    pis = [calc.omega_lift(k, jets[n - k].pi, jets[n - k].mod, jets[n - k - 1].mod)
           for k in range(n)]
    # top square: pi o j^n = j^{n-1}
    cells = [("projection of top prolongation", (jets[n].pi * jets[n].j) == jets[n - 1].j)]
    dsign = -ONE if corrupt_sign else ONE
    for k in range(n + 1):
        h = n - k
        # row complex: pi o iota = 0 (when both legs exist)
        if h >= 1:
            cells.append(("row %d composite" % k, (pis[k] * iotas[k]).is_zero()))
            cells.append(("row %d exactness" % k, kernel_of(pis[k]) == image_of(iotas[k])))
        if k == n:
            continue
        # vertical maps from row k to row k+1
        if h >= 1:
            delta = delta_contraction(calc, e, h, k).scale(dsign)
            smat = spencer_operator(calc, jets[h], k)
            cells.append(("left square row %d" % k, smat * iotas[k] == iotas[k + 1] * (-delta)))
            if h >= 2:
                s_low = spencer_operator(calc, jets[h - 1], k)
                cells.append(("right square row %d" % k, s_low * pis[k] == pis[k + 1] * smat))
        # column composites
        if h >= 2 and k + 2 <= calc.max_degree:
            s1 = spencer_operator(calc, jets[h], k)
            s2 = spencer_operator(calc, jets[h - 1], k + 1)
            cells.append(("middle column %d" % k, (s2 * s1).is_zero()))
            d1 = delta_contraction(calc, e, h, k).scale(dsign)
            d2 = delta_contraction(calc, e, h - 1, k + 1).scale(dsign)
            cells.append(("left column %d" % k, (d2 * d1).is_zero()))
    cells.append(("top Spencer kills prolongation",
                  (spencer_operator(calc, jets[n], 0) * jets[n].j).is_zero()))
    ok = all(flag for _, flag in cells)
    return {"cells": cells, "all_pass": ok}
