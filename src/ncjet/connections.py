"""Connections: affine solving, torsion/curvature, and higher-order theory.

A connection on a left module M is a matrix M -> one-forms (x) M obeying
the left Leibniz rule; the solution set of all connections is an affine
space computed exactly.  Higher-order connections are sections of the jet
projection; the module provides the correspondence between those, left
splittings, and connections on jet modules, together with the curvature
and block-decomposition identities the correspondence rests on.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .linalg import (
    Mat,
    AffineSpace,
    SpanBuilder,
    Subspace,
    ZERO,
    ONE,
    image_of,
    int_row,
    left_inverse,
    nonzeros,
    rat,
    right_inverse,
    split,
    vec,
)
from .algebra import (
    AffineSystem,
    LeftModule,
    add_intertwining_rows,
    intertwining_failures,
    mat_from_flat,
    matrix_rows,
    sylvester_matrix,
)
from .calculus import Calculus, CalculusError
from .jets import (
    JetModule,
    dtilde_maps,
    exterior_operator,
    jet_lift,
    jet_module,
    pair_map,
    spencer_operator,
    sym_module,
    twist_mats,
)


class InvalidConnection(CalculusError):
    pass


class Connection:
    """Left connection on a module; the Leibniz rule is checked on build."""

    def __init__(self, calc: Calculus, module: LeftModule, mat: Mat):
        self.calc = calc
        self.module = module
        fm, _ = calc.form_module(1, module)
        self.form_module = fm
        if mat.rows != fm.dim or mat.cols != module.dim:
            raise InvalidConnection("connection matrix has wrong shape")
        self.mat = mat
        bad = self.leibniz_violations()
        if bad:
            raise InvalidConnection("Leibniz rule fails: %s" % bad[0])

    def leibniz_violations(self):
        bad = intertwining_failures(self.calc.algebra, self.mat, self.module.left,
                                    self.form_module.left, twist_mats(self.calc, self.module))
        return ["at basis element %s" % name for name in bad]

    def __repr__(self):
        return "Connection(on %s)" % self.module.label


class BimoduleConnection:
    """Connection on the one-forms with a generalized braiding."""

    def __init__(self, calc: Calculus, base: Connection, sigma: Mat, check=True):
        self.calc = calc
        self.base = base
        self.sigma = sigma
        if check:
            bad = self.violations()
            if bad:
                raise InvalidConnection("bimodule connection fails: %s" % bad[0])

    def violations(self):
        """Failures law by law: sigma left-linear, sigma right-linear, right Leibniz."""
        calc = self.calc
        om1, sigma = calc.omega1, self.sigma
        om11, _ = calc.form_module(1, om1)
        laws = [("braiding not left-linear", sigma, om11.left, om11.left, None),
                ("braiding not right-linear", sigma, om11.right, om11.right, None),
                ("right Leibniz fails", self.base.mat, om1.right, om11.right,
                 [sigma * d for d in twist_mats(calc, om1, right=True)])]
        return ["%s at %s" % (law, name) for law, x, src, tgt, rhs in laws
                for name in intertwining_failures(calc.algebra, x, src, tgt, rhs)]


def _connection_system(calc: Calculus, module: LeftModule) -> AffineSystem:
    """Left Leibniz rows for a connection on a module, flattened row-major."""
    fm, _ = calc.form_module(1, module)
    twist = twist_mats(calc, module)
    sys = AffineSystem(fm.dim * module.dim)
    add_intertwining_rows(sys, calc.algebra, module.left, fm.left, twist)
    return sys


def solve_connections(calc: Calculus, module: LeftModule) -> AffineSpace:
    """Affine space of all left connections on a module."""
    return _connection_system(calc, module).solve()


class _Braiding:
    """The braiding that right Leibniz assigns to a connection on the one-forms.

    For M with row blocks M_a of dim(one-forms) rows, a over the basis of A,

        L(nabla) M = nabla (sum_a R_a M_a) - sum_a R11_a nabla M_a,

    with R_a and R11_a the right actions on the one-forms and on one-forms
    (x) one-forms.  Right Leibniz reads sigma D = L(nabla) D for D = [D_0 |
    ... | D_{dim A - 1}], D_a(xi) = xi (x) d(e_a), and D is onto since the
    one-forms are A.dA (validate_fodc).  So a braiding exists exactly when
    L(nabla) kills M = ker D, and then it is L(nabla) at M = D^+, a right
    inverse; linalg.split gives both from one elimination.  `kernel_terms`
    and `sigma_terms` are these two over the connection's entries; `rows`
    expands the first into solver rows (see algebra.matrix_rows), once per
    calculus and only when solve_bimodule_connections reads them.
    """

    def __init__(self, calc: Calculus):
        om1 = calc.omega1
        om11, _ = calc.form_module(1, om1)
        o1, qq = om1.dim, om11.dim
        try:
            dplus, kers = split(reduce(Mat.hstack, twist_mats(calc, om1, right=True)))
        except ValueError:
            raise CalculusError("one-forms (x) one-forms is not spanned by the w (x) da") from None
        ker = Mat._of(kers.dim, kers.ambient, [int_row(k)[1] for k in kers.basis.nz]).transpose()

        def leibniz_terms(m):  # L(nabla) M
            blocks = [Mat._of(o1, m.cols, m.nz[a * o1:(a + 1) * o1])
                      for a in range(calc.algebra.dim)]
            u = sum((r * b for r, b in zip(om1.right, blocks)), Mat.zeros(o1, m.cols))
            return [(None, u)] + [(r, -b) for r, b in zip(om11.right, blocks) if not b.is_zero()]

        self.shape = (qq, o1)
        self.kernel_terms = leibniz_terms(ker)
        self.sigma_terms = leibniz_terms(dplus)

    @cached_property
    def rows(self):
        return [coeffs for coeffs, _ in matrix_rows(self.shape, self.kernel_terms)]


def _braiding(calc: Calculus) -> _Braiding:
    return calc.memo("braiding", lambda: _Braiding(calc))


def braiding_of(calc: Calculus, nabla: Mat) -> Mat:
    """The braiding sigma = L(nabla) D^+ that right Leibniz assigns to nabla.

    It is a braiding of nabla exactly when L(nabla) kills ker D (see
    _Braiding), the rows that solve_bimodule_connections imposes.
    """
    return sum(((nabla if a is None else a * nabla) * b for a, b in _braiding(calc).sigma_terms),
               Mat.zeros(nabla.rows, nabla.rows))


def solve_bimodule_connections(calc: Calculus) -> AffineSpace:
    """Affine space of (connection, braiding) pairs on the one-forms.

    Solved over the connection alone and mapped to (nabla, sigma)
    coordinates, connection entries first, braiding entries after.  The
    rows impose left Leibniz and L(nabla) k = 0 for each k in ker D (see
    _Braiding).  Right linearity of the braiding follows, as
    sigma(xi (x) (da) b) = sigma(xi (x) d(ab)) - sigma(xi a (x) db) =
    sigma(xi (x) da) b; left linearity follows from left Leibniz.

    The map is injective and keeps the connection block, so the images of
    the connection family's canonical rows are the canonical rows of the
    pair family.  The canonical point is zero on the free columns of the
    pair system, which are the last nonzero columns of a reverse echelon
    basis of the direction; it is any member with those columns cleared.
    The family is solved once per calculus.
    """
    return calc.memo(("bimodule_connections",), lambda: _solve_bimodule_connections(calc))


def _solve_bimodule_connections(calc: Calculus) -> AffineSpace:
    sys = _connection_system(calc, calc.omega1)
    br = _braiding(calc)
    for row in br.rows:
        sys.add_row(row)
    sol = sys.solve()
    if sol.empty:
        return sol
    qq, o1 = br.shape
    n_nabla = qq * o1
    n = n_nabla + qq * qq
    flats = list(sol.direction.basis.nz) + [nonzeros(sol.particular)]
    used = sorted({c for f in flats for c in f})
    at = {c: k for k, c in enumerate(used)}
    sigmas = (Mat._of(len(flats), len(used), [{at[c]: x for c, x in f.items()} for f in flats])
              * sylvester_matrix(br.shape, br.sigma_terms, used))
    lifted = [{**f, **{n_nabla + k: x for k, x in sigma.items()}}
              for f, sigma in zip(flats, sigmas.nz)]
    point = lifted.pop()
    direction = Subspace(n, lifted, reduced=True)
    # reverse echelon: column c is keyed n - 1 - c, so a pivot is a last nonzero column
    rev = SpanBuilder(n)
    for r in lifted:
        rev.add({n - 1 - c: x for c, x in r.items()})
    for p in sorted(rev.rows):
        x = point.get(n - 1 - p)
        if x:
            row = rev.rows[p]
            f = rat(x, row[p])
            for q, y in row.items():
                point[n - 1 - q] = point.get(n - 1 - q, ZERO) - f * y
    particular = [ZERO] * n
    for c, x in point.items():
        particular[c] = x
    return AffineSpace(False, particular, direction)


def canonical_bimodule_connection(calc: Calculus):
    """The pair at the family's canonical point, None for an empty family; kept per calculus."""
    sol = solve_bimodule_connections(calc)
    return calc.memo(("bimodule_point",), lambda: None if sol.empty else
                     bimodule_connection_from_vector(calc, sol.particular))


def bimodule_connection_from_vector(calc: Calculus, flat) -> BimoduleConnection:
    om11, _ = calc.form_module(1, calc.omega1)
    o1, qq = calc.omega1.dim, om11.dim
    n_nabla = qq * o1
    nabla = mat_from_flat(list(flat[:n_nabla]), qq, o1)
    sigma = mat_from_flat(list(flat[n_nabla:]), qq, qq)
    return BimoduleConnection(calc, Connection(calc, calc.omega1, nabla), sigma)


def torsion(calc: Calculus, conn: Connection) -> Mat:
    """Wedge of the connection minus the differential, on one-forms."""
    if conn.module is not calc.omega1:
        raise InvalidConnection("torsion is defined for connections on the one-forms")
    calc.check_degree(2)
    return calc.wedge_map(1, 1) * conn.mat - calc.d[1]


def tensor_connection(calc: Calculus, bconn: BimoduleConnection, connf: Connection) -> Connection:
    """Induced connection on one-forms (x) F from a braided pair.

    nabla(w (x) f) = nabla(w) (x) f + (sigma (x) id)(w (x) nabla f).
    Kept per calculus on the matrices it reads.
    """
    return calc.memo(("tensor_conn", bconn.base.mat, bconn.sigma, connf.module, connf.mat),
                     lambda: _tensor_connection(calc, bconn, connf))


def _tensor_connection(calc: Calculus, bconn: BimoduleConnection, connf: Connection) -> Connection:
    f = connf.module
    fm, ts_f = calc.form_module(1, f)      # O1 (x) F
    _, ts_v = calc.form_module(1, fm)      # O1 (x) (O1 (x) F)
    _, ts11 = calc.form_module(1, calc.omega1)
    o1, fd = calc.omega1.dim, f.dim
    # plain lifts of nabla(w_b), nabla(f_t) and of sigma on plain pairs, as {index: value}
    nb_plain = ts11.plain_cols(bconn.base.mat)
    nf_plain = ts_f.plain_cols(connf.mat)
    sigma_plain = ts11.plain_cols(bconn.sigma * ts11.proj)
    cols = []
    for b in range(o1):
        for t in range(fd):
            # nabla(w_b) (x) f_t + (sigma (x) id)(w_b (x) nabla f_t), as terms
            # (plain pair, index u in F, coefficient)
            terms = [(nb_plain[b], t, ONE)]
            for idx, v in nf_plain[t].items():
                j, u = divmod(idx, fd)
                terms.append((sigma_plain[b * o1 + j], u, v))
            # the plain O1 (x) O1 (x) F sum, one O1 (x) F part per outer index i
            inner = [{} for _ in range(o1)]
            for pairs, u, v in terms:
                for pair, s in pairs.items():
                    i, k = divmod(pair, o1)
                    inner[i][k * fd + u] = inner[i].get(k * fd + u, ZERO) + s * v
            # project the inner factor through ts_f, then the outer one through ts_v
            cols.append(int_row({i * ts_f.dim + k: x for i, part in enumerate(inner) if part
                                 for k, x in ts_f._class(*int_row(part)).items()}))
    mat = calc.descend(ts_v.gather(cols), ts_f, "tensor connection")
    return Connection(calc, fm, mat)


def metric_compatibility(calc: Calculus, bconn: BimoduleConnection, g):
    """Covariant derivative of a metric candidate in one-forms (x) one-forms."""
    conn2 = tensor_connection(calc, bconn, bconn.base)
    return conn2.mat.apply(vec(g))


def covariant_exterior(calc: Calculus, conn: Connection, m: int) -> Mat:
    """Exterior covariant derivative on m-form-valued sections, kept per (module, matrix, m)."""
    calc.check_degree(m + 1)
    mod = conn.module
    return calc.memo(("cov_ext", mod, conn.mat, m), lambda: exterior_operator(
        calc, m, mod, mod, Mat.identity(mod.dim), conn.mat, "covariant exterior derivative"))


def curvature(calc: Calculus, conn: Connection) -> Mat:
    """Square of the covariant derivative: module -> two-forms (x) module."""
    return covariant_exterior(calc, conn, 1) * conn.mat


class HigherConnection:
    """Section of the jet projection J^{n-1} -> J^n with its left split."""

    def __init__(self, calc: Calculus, jet: JetModule, section: Mat):
        if jet.n < 1:
            raise InvalidConnection("higher connections need jet order >= 1")
        self.calc = calc
        self.jet = jet
        self.section = section
        lower = jet.lower
        if section.rows != jet.dim or section.cols != lower.dim:
            raise InvalidConnection("section has wrong shape")
        if jet.pi * section != Mat.identity(lower.dim):
            raise InvalidConnection("not a section of the jet projection")
        if intertwining_failures(calc.algebra, section, lower.mod.left, jet.mod.left):
            raise InvalidConnection("section is not module-linear")
        try:
            iota_inv = left_inverse(jet.iota)
        except ValueError:
            raise InvalidConnection("the symbol inclusion is not injective") from None
        # left split: iota split = id - section projection
        self.split = iota_inv * (Mat.identity(jet.dim) - section * jet.pi)
        if jet.iota * self.split + section * jet.pi != Mat.identity(jet.dim):
            raise InvalidConnection("splitting identities fail")
        if self.split * jet.iota != Mat.identity(jet.sym.dim):
            raise InvalidConnection("split does not retract the symbol inclusion")


def higher_connection_from_split(calc: Calculus, jet: JetModule, split: Mat) -> HigherConnection:
    """Section corresponding to a left splitting of the jet sequence."""
    try:
        pi_inv = right_inverse(jet.pi)
    except ValueError:
        raise InvalidConnection("the jet projection is not onto") from None
    section = (Mat.identity(jet.dim) - jet.iota * split) * pi_inv
    hc = HigherConnection(calc, jet, section)
    if hc.split != split:
        raise InvalidConnection("left splitting does not retract the symbol inclusion")
    return hc


def one_connection(calc: Calculus, conn: Connection) -> HigherConnection:
    """The order-1 section of a connection via its canonical jet lift."""
    jet = jet_module(calc, conn.module, 1)
    lift = conn.mat * jet.pi + jet.rho
    return higher_connection_from_split(calc, jet, lift)


def associated_connection(calc: Calculus, hc: HigherConnection) -> Connection:
    """Connection on the lower jet induced by a higher-order section."""
    mat = spencer_operator(calc, hc.jet, 0) * hc.section
    return Connection(calc, hc.jet.lower.mod, mat)


def higher_curvature(calc: Calculus, hc: HigherConnection) -> Mat:
    """Obstruction to prolonging the section one more order.

    Valued in two-forms (x) J^{n-1}: the second obstruction of J^n (its
    Spencer operator) on P(c) l c, the double application of the section c.
    It vanishes exactly when that double application stays holonomic.
    """
    jet = hc.jet
    _, d_second = dtilde_maps(calc, jet)
    j1_c = pair_map(calc, hc.section, jet.lower.mod, jet.mod)
    return -(d_second * j1_c * jet.l * hc.section)


def covariant_exterior_of_section(calc: Calculus, hc: HigherConnection, m: int) -> Mat:
    """Spencer operator composed with the section, on m-form-valued jets."""
    jet = hc.jet
    smat = spencer_operator(calc, jet, m)
    omega_c = calc.omega_lift(m, hc.section, jet.lower.mod, jet.mod)
    return smat * omega_c


def higher_from_jet_connection(calc: Calculus, jet: JetModule, conn: Connection) -> HigherConnection:
    """Section of the jet projection from a connection on the lower jet.

    The connection must project onto the Spencer operator of the lower jet
    and have curvature valued in the symbol part; both hypotheses are
    checked and named on failure.
    """
    n = jet.n
    lower = jet.lower
    if conn.module is not lower.mod:
        raise InvalidConnection("connection lives on the wrong module")
    e = jet.base
    if n >= 2:
        om_pi = calc.omega_lift(1, lower.pi, lower.mod, lower.lower.mod)
        if om_pi * conn.mat != spencer_operator(calc, lower, 0):
            raise InvalidConnection("hypothesis (i) fails: projection of the connection "
                                  "is not the Spencer operator")
        r = curvature(calc, conn)
        om2_iota = calc.omega_lift(2, lower.iota, lower.sym.mod, lower.mod)
        if not image_of(om2_iota).contains_space(image_of(r)):
            raise InvalidConnection("hypothesis (ii) fails: curvature is not valued "
                                  "in the symbol part")
    # nabla' = conn o j^{n-1}: E -> one-forms (x) J^{n-1}
    nabla_prime = conn.mat * lower.j
    sym = sym_module(calc, e, n)
    om_iota = calc.omega_lift(1, lower.iota, sym_module(calc, e, n - 1).mod, lower.mod)
    embed = om_iota * sym.iota_wedge
    nabla_n = left_inverse(embed) * nabla_prime
    if embed * nabla_n != nabla_prime:
        raise InvalidConnection("factorization through the symmetric forms fails")
    # unique module-linear lift to J^n with lift o j^n = nabla_n
    split = jet_lift(calc, jet, nabla_n, sym.mod)
    if split is None:
        raise InvalidConnection("no jet lift of the candidate splitting")
    return higher_connection_from_split(calc, jet, split)


def jet_connection_from_sym(calc: Calculus, hc: HigherConnection, sym_conn: Connection) -> Connection:
    """Connection on J^n induced by one on S^n through a fixed section."""
    jet = hc.jet
    if sym_conn.module is not jet.sym.mod:
        raise InvalidConnection("connection lives on the wrong symbol module")
    om_c = calc.omega_lift(1, hc.section, jet.lower.mod, jet.mod)
    om_iota = calc.omega_lift(1, jet.iota, jet.sym.mod, jet.mod)
    mat = om_c * spencer_operator(calc, jet, 0) + om_iota * sym_conn.mat * hc.split
    return Connection(calc, jet.mod, mat)


def sym_connection_from_jet(calc: Calculus, hc: HigherConnection, jet_conn: Connection) -> Connection:
    """Connection on S^n recovered from one on J^n (left inverse of the above)."""
    jet = hc.jet
    om_split = calc.omega_lift(1, hc.split, jet.mod, jet.sym.mod)
    mat = om_split * jet_conn.mat * jet.iota
    return Connection(calc, jet.sym.mod, mat)
