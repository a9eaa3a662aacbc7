"""Connections: affine solving, torsion/curvature, and higher-order theory.

A connection on a left module M is a matrix M -> one-forms (x) M obeying
the left Leibniz rule; the solution set of all connections is an affine
space computed exactly.  Higher-order connections are sections of the jet
projection; the module provides the correspondence between those, left
splittings, and connections on jet modules, together with the curvature
and block-decomposition identities the correspondence rests on.
"""

from __future__ import annotations

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
    vec,
)
from .algebra import (
    AffineSystem,
    LeftModule,
    add_intertwining_rows,
    mat_from_flat,
)
from .calculus import Calculus, CalculusError
from .jets import (
    JetModule,
    dtilde_maps,
    exterior_operator,
    jet_module,
    pair_map,
    pair_module,
    spencer_operator,
    sym_module,
    twist_mats,
)


class InvalidConnection(CalculusError):
    pass


def _twist_mats(calc: Calculus, m: LeftModule):
    """jets.twist_mats, cached per module for the Leibniz checks and solves."""
    return calc.memo(("twist", m), lambda: twist_mats(calc, m))


class Connection:
    """Left connection on a module; the Leibniz rule is checked on build."""

    def __init__(self, calc: Calculus, module: LeftModule, mat: Mat, check=True):
        self.calc = calc
        self.module = module
        fm, _ = calc.form_module(1, module)
        self.form_module = fm
        if mat.rows != fm.dim or mat.cols != module.dim:
            raise InvalidConnection("connection matrix has wrong shape")
        self.mat = mat
        if check:
            bad = self.leibniz_violations()
            if bad:
                raise InvalidConnection("Leibniz rule fails: %s" % bad[0])

    def leibniz_violations(self):
        calc = self.calc
        twist = _twist_mats(calc, self.module)
        out = []
        for a in range(calc.algebra.dim):
            lhs = self.mat * self.module.left[a]
            rhs = self.form_module.left[a] * self.mat + twist[a]
            if lhs != rhs:
                out.append("at basis element %s" % calc.algebra.basis_names[a])
        return out

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
        calc = self.calc
        out = []
        om11, ts11 = calc.form_module(1, calc.omega1)
        alg = calc.algebra
        for a in range(alg.dim):
            if self.sigma * om11.left[a] != om11.left[a] * self.sigma:
                out.append("braiding not left-linear at %s" % alg.basis_names[a])
            if self.sigma * om11.right[a] != om11.right[a] * self.sigma:
                out.append("braiding not right-linear at %s" % alg.basis_names[a])
        d_right = _d_right_mats(calc)
        for a in range(alg.dim):
            lhs = self.base.mat * calc.omega1.right[a]
            rhs = om11.right[a] * self.base.mat + self.sigma * d_right[a]
            if lhs != rhs:
                out.append("right Leibniz fails at %s" % alg.basis_names[a])
        return out


def _d_right_mats(calc: Calculus):
    """D_a(w) = class of w (x) d(e_a) in one-forms (x) one-forms."""
    def build():
        _, ts = calc.form_module(1, calc.omega1)
        o1 = calc.omega1.dim
        mats = []
        for a in range(calc.algebra.dim):
            da = calc.d_of_basis(a)
            cols = [ts.class_of({w: ONE}, da) for w in range(o1)]
            mats.append(Mat.from_cols(cols, ts.dim))
        return mats

    return calc.memo("d_right", build)


def _connection_system(calc: Calculus, module: LeftModule) -> AffineSystem:
    """Left Leibniz rows for a connection on a module, flattened row-major."""
    fm, _ = calc.form_module(1, module)
    twist = _twist_mats(calc, module)
    sys = AffineSystem(fm.dim * module.dim)
    add_intertwining_rows(sys, calc.algebra, module.left, fm.left, twist)
    return sys


def solve_connections(calc: Calculus, module: LeftModule) -> AffineSpace:
    """Affine space of all left connections on a module."""
    return _connection_system(calc, module).solve()


class _Braiding:
    """The braiding that right Leibniz assigns to a connection on the one-forms.

    D = [D_0 | ... | D_{dim A - 1}] sends (xi_a)_a to sum_a xi_a (x) d(e_a),
    over every basis element.  It is onto, since the one-forms are A.dA
    (validate_fodc), so right Leibniz, sigma D = L(nabla) with
    L(nabla) = [nabla R_a - R_a nabla]_a, fixes sigma, and a braiding
    exists exactly when L(nabla) kills ker D.  Then sigma = L(nabla) D^+ =
    nabla P - sum_a R_a nabla D^+_a for a right inverse D^+, with block
    D^+_a its rows a * o1 onwards and P = sum_a R_a D^+_a.  One elimination
    of [D^T | I] gives both: a row reduced to [e_p | x] has D x = e_p, and
    one reduced to [0 | k] has k in ker D.  D^+ and P are kept in integer
    form, times the common denominator den of D^+.
    """

    def __init__(self, calc: Calculus):
        om1 = calc.omega1
        om11, _ = calc.form_module(1, om1)
        self.o1, self.qq = o1, qq = om1.dim, om11.dim
        # rows of [D^T | I]
        dt = [{qq + c: ONE} for c in range(calc.algebra.dim * o1)]
        for a, d_a in enumerate(_d_right_mats(calc)):
            for q, row in enumerate(d_a.nz):
                for w, x in row.items():
                    dt[a * o1 + w][q] = x
        sb = SpanBuilder(qq + len(dt))
        for row in dt:
            sb.add(row)
        red = sb.reduced()
        if any(p not in red for p in range(qq)):
            raise CalculusError("one-forms (x) one-forms is not spanned by the w (x) da")
        self.den, flat = int_row({(p, c): x for p in range(qq) for c, x in red[p].items() if c != p})
        self.dplus = dplus = [{} for _ in range(sb.ambient - qq)]
        for (p, c), x in flat.items():
            dplus[c - qq][p] = x
        self.prows = []
        for c in range(o1):
            acc = {}
            for a, r in enumerate(om1.right):
                for j, x in r.nz[c].items():
                    for q, y in dplus[a * o1 + j].items():
                        acc[q] = acc.get(q, ZERO) + x * y
            self.prows.append(nonzeros(acc))
        self.r11_cols = [m.transpose().nz for m in om11.right]
        ker = [int_row({c - qq: x for c, x in red[p].items()})[1] for p in sorted(red) if p >= qq]
        self.rows = self._well_defined_rows(om1, om11, ker)

    def _well_defined_rows(self, om1, om11, ker):
        """Rows (L(nabla) k)[i] = 0 over the connection entries, for k in ker D."""
        o1, qq = self.o1, self.qq
        rows = []
        for k in ker:
            # (L(nabla) k)[i] = (nabla u)[i] - sum_a (R_a nabla k_a)[i], u = sum_a R_a k_a
            parts = {}
            for c, x in k.items():
                a, j = divmod(c, o1)
                parts.setdefault(a, {})[j] = x
            u = {}
            for a, part in parts.items():
                for m, row in enumerate(om1.right[a].nz):
                    for j, v in row.items():
                        if j in part:
                            u[m] = u.get(m, ZERO) + v * part[j]
            u = [(m, x) for m, x in u.items() if x]
            for i in range(qq):
                coeffs = {i * o1 + m: x for m, x in u}
                for a, part in parts.items():
                    for m, r in om11.right[a].nz[i].items():
                        for j, x in part.items():
                            key = m * o1 + j
                            coeffs[key] = coeffs.get(key, ZERO) - r * x
                coeffs = {c: x for c, x in coeffs.items() if x}
                if coeffs:
                    rows.append(coeffs)
        return rows

    def of(self, flats):
        """The braiding of each connection in flats, flattened: {row * dim + col: value}.

        The braiding is linear in the connection: the entry nabla[r][c]
        contributes P[c] to row r of sigma and -R_a[i][r] D^+_a[c] to row
        i.  That contribution is built once per entry in use, times den,
        and each braiding sums them over integer forms, dividing once per
        entry; the map's matrix is never built, as it would have
        dim(one-forms (x) one-forms) squared columns.
        """
        o1, qq, dplus = self.o1, self.qq, self.dplus
        contrib = {}

        def contribution(u):
            r, c = divmod(u, o1)
            row = {r * qq + q: y for q, y in self.prows[c].items()}
            for a, cols in enumerate(self.r11_cols):
                drow = dplus[a * o1 + c]
                if drow:
                    for i, x in cols[r].items():
                        for q, y in drow.items():
                            key = i * qq + q
                            row[key] = row.get(key, ZERO) - x * y
            return row

        out = []
        for flat in flats:
            d, flat = int_row(flat)
            acc = {}
            for u, x in flat.items():
                row = contrib.get(u)
                if row is None:
                    row = contrib[u] = contribution(u)
                for k, y in row.items():
                    acc[k] = acc.get(k, ZERO) + x * y
            d *= self.den
            out.append({k: rat(x, d) for k, x in acc.items() if x})
        return out


def _braiding(calc: Calculus) -> _Braiding:
    return calc.memo("braiding", lambda: _Braiding(calc))


def braiding_of(calc: Calculus, nabla: Mat) -> Mat:
    """The braiding sigma = L(nabla) D^+ that right Leibniz assigns to nabla.

    It is a braiding of nabla exactly when nabla satisfies the rows of
    braided_connection_system (see _Braiding).
    """
    o1, qq = nabla.cols, nabla.rows
    (flat,) = _braiding(calc).of([{i * o1 + j: x for i, row in enumerate(nabla.nz)
                                   for j, x in row.items()}])
    sigma = [{} for _ in range(qq)]
    for k, x in flat.items():
        i, q = divmod(k, qq)
        sigma[i][q] = x
    return Mat._of(qq, qq, sigma)


def braided_connection_system(calc: Calculus) -> AffineSystem:
    """Linear system for the connections on the one-forms that admit a braiding.

    Unknowns are the connection entries; rows impose left Leibniz and
    L(nabla) k = 0 for each k in ker D (see _Braiding).  Right linearity of
    the braiding follows, as sigma(xi (x) (da) b) = sigma(xi (x) d(ab)) -
    sigma(xi a (x) db) = sigma(xi (x) da) b; left linearity follows from
    left Leibniz.
    """
    sys = _connection_system(calc, calc.omega1)
    for row in _braiding(calc).rows:
        sys.add_row(row)
    return sys


def solve_bimodule_connections(calc: Calculus) -> AffineSpace:
    """Affine space of (connection, braiding) pairs on the one-forms.

    Solved over the connection alone (braided_connection_system) and mapped
    to (nabla, sigma) coordinates, connection entries first, braiding
    entries after.  The map is injective and keeps the connection block, so
    the images of the connection family's canonical rows are the canonical
    rows of the pair family.  The canonical point is zero on the free
    columns of the pair system, which are the last nonzero columns of a
    reverse echelon basis of the direction; it is any member with those
    columns cleared.
    """
    sol = braided_connection_system(calc).solve()
    if sol.empty:
        return sol
    br = _braiding(calc)
    n_nabla = br.qq * br.o1
    n = n_nabla + br.qq * br.qq
    flats = list(sol.direction.basis.nz) + [nonzeros(sol.particular)]
    lifted = [{**f, **{n_nabla + k: x for k, x in sigma.items()}}
              for f, sigma in zip(flats, br.of(flats))]
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
    """
    f = connf.module
    fm, ts_f = calc.form_module(1, f)      # O1 (x) F
    _, ts_v = calc.form_module(1, fm)      # O1 (x) (O1 (x) F)
    _, ts11 = calc.form_module(1, calc.omega1)
    o1, fd = calc.omega1.dim, f.dim
    # plain lifts of nabla(w_b), nabla(f_t) and of sigma on plain pairs, as {index: value}
    nb_plain = (ts11.sec * bconn.base.mat).transpose().nz
    nf_plain = (ts_f.sec * connf.mat).transpose().nz
    sigma_plain = (ts11.sec * (bconn.sigma * ts11.proj)).transpose().nz
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
            cols.append(ts_v.project({i * ts_f.dim + k: x for i, part in enumerate(inner) if part
                                      for k, x in enumerate(ts_f.project(part)) if x}))
    plain = Mat.from_cols(cols, ts_v.dim)
    mat = calc.descend(plain, ts_f, "tensor connection")
    return Connection(calc, fm, mat)


def metric_compatibility(calc: Calculus, bconn: BimoduleConnection, g):
    """Covariant derivative of a metric candidate in one-forms (x) one-forms."""
    conn2 = tensor_connection(calc, bconn, bconn.base)
    return conn2.mat.apply(vec(g))


def covariant_exterior(calc: Calculus, conn: Connection, m: int) -> Mat:
    """Exterior covariant derivative on m-form-valued sections."""
    calc.check_degree(m + 1)
    mod = conn.module
    return exterior_operator(calc, m, mod, mod, Mat.identity(mod.dim), conn.mat,
                             "covariant exterior derivative")


def curvature(calc: Calculus, conn: Connection) -> Mat:
    """Square of the covariant derivative: module -> two-forms (x) module."""
    return covariant_exterior(calc, conn, 1) * conn.mat


class HigherConnection:
    """Section of the jet projection J^{n-1} -> J^n with its left split."""

    def __init__(self, calc: Calculus, jet: JetModule, section: Mat, check=True):
        if jet.n < 1:
            raise InvalidConnection("higher connections need jet order >= 1")
        self.calc = calc
        self.jet = jet
        self.section = section
        lower = jet.lower
        if check:
            if section.rows != jet.dim or section.cols != lower.dim:
                raise InvalidConnection("section has wrong shape")
            if jet.pi * section != Mat.identity(lower.dim):
                raise InvalidConnection("not a section of the jet projection")
            for a in range(calc.algebra.dim):
                if section * lower.mod.left[a] != jet.mod.left[a] * section:
                    raise InvalidConnection("section is not module-linear")
        # left split: iota split = id - section projection
        self.split = left_inverse(jet.iota) * (Mat.identity(jet.dim) - section * jet.pi)
        if check:
            if jet.iota * self.split + section * jet.pi != Mat.identity(jet.dim):
                raise InvalidConnection("splitting identities fail")
            if self.split * jet.iota != Mat.identity(jet.sym.dim):
                raise InvalidConnection("split does not retract the symbol inclusion")

    @property
    def n(self):
        return self.jet.n


def higher_connection_from_split(calc: Calculus, jet: JetModule, split: Mat) -> HigherConnection:
    """Section corresponding to a left splitting of the jet sequence."""
    section = (Mat.identity(jet.dim) - jet.iota * split) * right_inverse(jet.pi)
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

    Valued in two-forms (x) J^{n-1}; vanishes exactly when the double
    application of the section stays holonomic.
    """
    jet = hc.jet
    lower = jet.lower
    m = lower.mod
    d_first, d_second = dtilde_maps(calc, m)
    j1_c = pair_map(calc, hc.section, lower.mod, jet.mod)
    j1_l = pair_map(calc, jet.l, jet.mod, pair_module(calc, m).mod)
    composite = j1_l * j1_c * jet.l * hc.section
    return -(d_second * composite)


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
    from .algebra import solve_module_maps

    sol = solve_module_maps(jet.mod, sym.mod, "left", compose_eq=[(jet.j, nabla_n)])
    if sol.empty:
        raise InvalidConnection("no jet lift of the candidate splitting")
    split = mat_from_flat(sol.particular, sym.dim, jet.dim)
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
