"""Finite-dimensional algebras by structure constants, and their modules.

An algebra is given by a rank-3 tensor of structure constants over exact
rationals.  Modules carry explicit action matrices per algebra basis
element.  A tensor product m ⊗_A n = n^r / (Syz · n) is read off a right
presentation A^r → m, with no balancing relation x·a ⊗ y − x ⊗ a·y eliminated.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import lcm

from .linalg import (
    AffineSystem,
    DimensionCapError,
    Mat,
    Subspace,
    SpanBuilder,
    ZERO,
    ONE,
    combination,
    int_row,
    nonzeros,
    max_dim,
    quotient_data,
    rat,
    span_of,
    split,
    vec,
)


class Algebra:
    """Unital associative algebra over the rationals, by structure constants.

    mult[i][j][k] is the e_k coefficient of e_i * e_j.
    """

    def __init__(self, dim, basis_names, mult, unit, name="A"):
        self.dim = dim
        self.basis_names = list(basis_names)
        self.mult = [[[rat(x) for x in col] for col in row] for row in mult]
        self.unit = vec(unit)
        self.name = name
        # left/right multiplication matrices by basis elements
        self.lmat = [
            Mat(dim, dim, [[self.mult[i][j][k] for j in range(dim)] for k in range(dim)])
            for i in range(dim)
        ]
        self.rmat = [
            Mat(dim, dim, [[self.mult[i][j][k] for i in range(dim)] for k in range(dim)])
            for j in range(dim)
        ]

    def mul(self, x, y):
        """Product of two coordinate vectors."""
        return self.left_mult(x).apply(y)

    def left_mult(self, x) -> Mat:
        """Matrix of left multiplication by the coordinate vector x."""
        return combination(x, self.lmat)

    def basis_vector(self, i):
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    @cached_property
    def generators(self):
        """Basis indices that generate the algebra as a unital algebra.

        Picked greedily: index i is kept when e_i lies outside the subalgebra
        generated by the unit and the indices kept before it.  A condition
        that is linear in a and holds at ab once it holds at a and b
        (balancing, intertwining, Leibniz, the representation laws of
        LeftModule.check_left and Bimodule.check_bimodule) holds on all of A
        once it holds on these, for modules on which the unit acts as the
        identity: the elements where it holds form a subalgebra.
        """
        gens = []
        sub = _closure(self.dim, [self.unit], [])
        for i in range(self.dim):
            if sub.coords(self.basis_vector(i)) is None:
                gens.append(i)
                sub = _closure(self.dim, [self.unit], [self.lmat[g] for g in gens])
        return tuple(gens)

    def __repr__(self):
        return "Algebra(%s, dim %d)" % (self.name, self.dim)


def validate_algebra(a: Algebra):
    """Return a list of violated axioms (empty means the algebra is valid).

    (e_i e_j) e_k = e_i (e_j e_k) is column k of L_(e_i e_j) = L_i L_j, and the
    unit laws 1 e_i = e_i = e_i 1 are column i of L_1 and of R_1.
    """
    problems = []
    names = a.basis_names
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = a.left_mult(a.mult[i][j]).transpose().nz
            rhs = (a.lmat[i] * a.lmat[j]).transpose().nz
            problems += ["associativity fails at (%s, %s, %s)" % (names[i], names[j], names[k])
                         for k in range(a.dim) if lhs[k] != rhs[k]]
    left_unit, right_unit = (combination(a.unit, mats).transpose().nz for mats in (a.lmat, a.rmat))
    for i, name in enumerate(names):
        if left_unit[i] != {i: ONE}:
            problems.append("unit * %s != %s" % (name, name))
        if right_unit[i] != {i: ONE}:
            problems.append("%s * unit != %s" % (name, name))
    return problems


def quaternion_algebra() -> Algebra:
    """Quaternions over the rationals: basis (1, i, j, k), i^2 = -1, ij = k."""
    names = ["1", "i", "j", "k"]
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    mult = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), (k, s) in table.items():
        mult[i][j][k] = s
    return Algebra(4, names, mult, [1, 0, 0, 0], name="H")


def functions_on_points(n: int) -> Algebra:
    """Commutative product algebra Q^n with idempotent coordinate basis."""
    if n < 1:
        raise ValueError("need at least one point")
    mult = [[[1 if (i == j == k) else 0 for k in range(n)] for j in range(n)] for i in range(n)]
    return Algebra(n, ["e%d" % (i + 1) for i in range(n)], mult, [1] * n, name="Q^%d" % n)


def matrix_algebra(n: int) -> Algebra:
    """Full matrix algebra M_n(Q) on the matrix-unit basis e_{ab}."""
    dim = n * n
    names = ["E%d%d" % (a + 1, b + 1) for a in range(n) for b in range(n)]
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    # e_{ab} e_{ce} = delta_{bc} e_{ae}
                    if b == c:
                        mult[a * n + b][c * n + e][a * n + e] = 1
    unit = [0] * dim
    for a in range(n):
        unit[a * n + a] = 1
    return Algebra(dim, names, mult, unit, name="M%d" % n)


class LeftModule:
    """Left module: one action matrix per algebra basis element, held in a tuple."""

    def __init__(self, algebra, dim, left_mats, label=""):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left_mats)
        self.label = label

    def act_left(self, a, v):
        """Action of the algebra element with coordinates a on v."""
        return self.left_mult(a).apply(v)

    def left_mult(self, a) -> Mat:
        """Action matrix of the algebra element with coordinates a."""
        return combination(a, self.left)

    def check_left(self, factors=None):
        """Violations of the left representation axioms.

        The unit must act as the identity, and L_i L_j = L_(e_i e_j) for i in
        factors (default: every basis index) and every basis index j.  With
        factors = algebra.generators that covers every pair, once the algebra
        is associative and the unit acts as the identity: the a with
        L_a L_b = L_ab for all b form a subalgebra (L_aa' L_b = L_a L_a'b =
        L_aa'b), and it holds the unit and the generators.
        """
        alg = self.algebra
        problems = []
        if self.left_mult(alg.unit) != Mat.identity(self.dim):
            problems.append("unit does not act as identity (left) on %s" % self.label)
        for i in range(alg.dim) if factors is None else factors:
            for j in range(alg.dim):
                if self.left[i] * self.left[j] != self.left_mult(alg.mult[i][j]):
                    problems.append(
                        "left action not multiplicative at (%s, %s) on %s"
                        % (alg.basis_names[i], alg.basis_names[j], self.label)
                    )
        return problems

    def __repr__(self):
        return "LeftModule(%s, dim %d)" % (self.label, self.dim)


class Bimodule(LeftModule):
    """Two-sided module; right action matrices satisfy R_b R_a = R over ab."""

    def __init__(self, algebra, dim, left_mats, right_mats, label=""):
        super().__init__(algebra, dim, left_mats, label)
        self.right = tuple(right_mats)

    @cached_property
    def right_presentation(self):
        """(r, G+, Syz) for G: A^r -> self, (a_s) -> sum_s g_s·a_s, onto; G G+ = 1, Syz = ker G.

        A^r has coordinates (s, a) at s·dim A + a.  Each generator g starts at 0
        and takes g += e_x, x in order, whenever that enlarges S + g·A, until g·A
        adds dim A; then S += g·A, until S is everything.  It affects speed only.
        (G+, Syz) is linalg.split(G), one elimination.
        """
        dA, dim = self.algebra.dim, self.dim
        cols = [mat.transpose().nz for mat in self.right]  # cols[a][x] = e_x·a
        span, gens = SpanBuilder(dim), []
        while span.dim < dim:
            ga, best = [{}] * dA, span  # ga[a] = g·a
            for x in range(dim):
                cand = [{k: v.get(k, ZERO) + c[x].get(k, ZERO) for k in v.keys() | c[x].keys()}
                        for v, c in zip(ga, cols)]
                grown = SpanBuilder(dim)
                grown.rows = dict(span.rows)  # pivot rows are never mutated
                for v in cand:
                    grown.add(v)
                if grown.dim > best.dim:
                    ga, best = cand, grown
                    if best.dim - span.dim == dA:
                        break
            gens, span = gens + ga, best
        gmat = Mat.from_cols(gens, dim)
        return (len(gens) // dA, *split(gmat))

    def right_mult(self, a) -> Mat:
        """Right action matrix of the algebra element with coordinates a."""
        return combination(a, self.right)

    def check_bimodule(self, factors=None):
        """Violations of the bimodule axioms: check_left(factors), then the right side.

        The unit must act as the identity on the right, R_j R_i = R_(e_i e_j)
        for i in factors (default: every basis index) and every j, and
        L_i R_j = R_j L_i for i and j both in factors.  With factors =
        algebra.generators that covers every pair, once the algebra is
        associative and the unit acts as the identity: the a with
        R_b R_a = R_ab for all b form a subalgebra holding the generators, and
        so, once L and R are multiplicative, do the a whose L_a commutes with
        a given R_h, and the b whose R_b commutes with a given L_a.
        """
        alg = self.algebra
        problems = self.check_left(factors)
        if self.right_mult(alg.unit) != Mat.identity(self.dim):
            problems.append("unit does not act as identity (right) on %s" % self.label)
        factors = range(alg.dim) if factors is None else factors
        for i in factors:
            for j in range(alg.dim):
                if self.right[j] * self.right[i] != self.right_mult(alg.mult[i][j]):
                    problems.append(
                        "right action not multiplicative at (%s, %s) on %s"
                        % (alg.basis_names[i], alg.basis_names[j], self.label)
                    )
                if j in factors and self.left[i] * self.right[j] != self.right[j] * self.left[i]:
                    problems.append(
                        "left/right actions do not commute at (%s, %s) on %s"
                        % (alg.basis_names[i], alg.basis_names[j], self.label)
                    )
        return problems

    def __repr__(self):
        return "Bimodule(%s, dim %d)" % (self.label, self.dim)


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra as a bimodule over itself."""
    return Bimodule(a, a.dim, a.lmat, a.rmat, a.name)


class TensorSpace:
    """A quotient of plain tensors (left factor slow, right factor fast), presented.

    proj maps a plain tensor onto the quotient; section lists in increasing order
    the plain indices whose basis tensors stand for coordinates 0..dim-1.  proj is
    the identity on those columns and ker proj is the relation space, so the pair
    is the whole presentation.  pcols holds the columns of proj's integer form as
    {row: int} dicts and pden the row denominators, so a plain tensor is projected
    from its nonzeros alone, over the integers, with one division per output
    entry; gather builds a matrix from such classes.
    """

    __slots__ = ("left_dim", "right_dim", "dim", "proj", "section", "pcols", "pden")

    def __init__(self, left_dim, right_dim, proj, section):
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.proj = proj
        self.section = tuple(section)
        self.dim = proj.rows
        form = [int_row(row) for row in proj.nz]
        self.pden = [d for d, _ in form]
        self.pcols = Mat._of(proj.rows, proj.cols, [row for _, row in form]).transpose().nz

    def plain_cols(self, m: Mat):
        """The columns of m (rows indexed by this quotient) as plain tensors {section[r]: x}."""
        sec = self.section
        return [{sec[r]: x for r, x in col.items()} for col in m.transpose().nz]

    def _class(self, den, plain):
        """Nonzeros {row: value} of the class of plain / den (int den > 0, {index: int} plain)."""
        acc = {}
        get = acc.get
        for k, v in plain.items():
            if v:
                for r, p in self.pcols[k].items():
                    acc[r] = get(r, 0) + v * p
        return {r: rat(x, self.pden[r] * den) for r, x in acc.items() if x}

    def gather(self, plains) -> Mat:
        """Matrix whose columns are the classes of the integer plain tensors (den, {index: int})."""
        cols = [self._class(*plain) for plain in plains]
        return Mat._of(len(cols), self.dim, cols).transpose()

    def pure(self, x, y):
        """x (x) y as an integer plain tensor (den, {index: int}), from the nonzeros of x and y."""
        rd = self.right_dim
        dx, x = int_row(nonzeros(x))
        dy, y = int_row(nonzeros(y))
        ynz = y.items()
        return dx * dy, {i * rd + j: xi * yj for i, xi in x.items() for j, yj in ynz}

    def class_of(self, x, y):
        """Class of the pure tensor x (x) y as a dense list, from the nonzeros of x and y."""
        out = [ZERO] * self.dim
        for r, v in self._class(*self.pure(x, y)).items():
            out[r] = v
        return out

    def kron_between(self, f: Mat, g: Mat, src: "TensorSpace") -> Mat:
        """f (x) g from src's quotient to this one: proj * (f (x) g) at src's section.

        Each section index of src is a plain basis tensor e_i (x) e_j, whose
        image is the class of f e_i (x) g e_j; it is gathered over integer
        numerators and divided once per output entry.
        """
        if (f.rows, g.rows, f.cols, g.cols) != (self.left_dim, self.right_dim,
                                                 src.left_dim, src.right_dim):
            raise ValueError("kron_between: factor shapes do not match the tensor spaces")
        fcols = [int_row(c) for c in f.transpose().nz]
        gcols = [int_row(c) for c in g.transpose().nz]
        rd, srd = self.right_dim, src.right_dim
        plains = []
        for c in src.section:
            (df, fc), (dg, gc) = fcols[c // srd], gcols[c % srd]
            gnz = gc.items()
            plains.append((df * dg, {i * rd + j: x * y for i, x in fc.items() for j, y in gnz}))
        return self.gather(plains)


def tensor_space(m: Bimodule, n: LeftModule) -> TensorSpace:
    """Quotient of the plain tensor m (x) n by x·a (x) y - x (x) a·y, after a cap check.

    Right exactness gives m (x)_A n = n^r / {(b_s·y)_s : b in Syz}, where e_x (x) e_y has
    the class ((G+ e_x)_s · e_y)_s.  Index j is in the section exactly when its class is
    not in the span of the later indices' classes: the class rows, reduced from the last
    column back, are read straight off as the canonical section and projection.
    """
    if m.algebra is not n.algebra:
        raise ValueError("tensor factors live over different algebras")
    dm, dn = m.dim, n.dim
    amb = dm * dn
    if amb > max_dim():
        raise DimensionCapError("plain tensor product %d x %d exceeds cap %d"
                                % (dm, dn, max_dim()))
    r, ginv, syz = m.right_presentation
    dA = m.algebra.dim
    # class row (s, y') at column (x, y): sum_a G+[(s, a)][x] L_a[y'][y] over the integers
    # (a row's scale is immaterial), keyed by the reversed column amb - 1 - j so that
    # elimination scans from the back
    _, grows = _int_form(ginv)
    lforms = [_int_form(mat) for mat in n.left]
    dl = lcm(*[d for d, _ in lforms])
    top = amb - 1
    rows = [{} for _ in range(r * dn)]
    for k, grow in enumerate(grows):
        s, a = divmod(k, dA)
        d, lrows = lforms[a]
        for yy, lrow in enumerate(lrows):
            row = rows[s * dn + yy]
            for x, v in grow.items():
                v, base = v * (dl // d), top - x * dn
                for y, w in lrow.items():
                    row[base - y] = row.get(base - y, ZERO) + v * w
    if syz.dim:  # K: the columns of the stacked (b_s·)_s, over a basis b of Syz
        kvecs = [col for b in syz.basis.nz for col in reduce(Mat.vstack, [
            n.left_mult([b.get(s * dA + a, ZERO) for a in range(dA)])
            for s in range(r)]).transpose().nz]
        projk, _ = quotient_data(span_of(kvecs, r * dn))
        rows = (projk * Mat._of(r * dn, amb, [nonzeros(row) for row in rows])).nz
    sb = SpanBuilder(amb)
    for row in rows:
        sb.add(row)
    # pivot c of the reversed reduction is section index top - c, and its reduced
    # row, read from the back, is that coordinate's row of proj
    red = sb.reduced()
    pivots = sorted(red, reverse=True)
    proj = Mat._of(len(red), amb, [{top - j: v for j, v in red[c].items()} for c in pivots])
    return TensorSpace(dm, dn, proj, [top - c for c in pivots])


def tensor_left_module(m: Bimodule, n: LeftModule, label="") -> tuple:
    """(left module m (x)_A n, tensor space presentation); a bimodule when n is one."""
    ts = tensor_space(m, n)
    alg = m.algebra
    label = label or "%s(x)%s" % (m.label, n.label)
    eye_n = Mat.identity(n.dim)
    left = [ts.kron_between(m.left[a], eye_n, ts) for a in range(alg.dim)]
    if not isinstance(n, Bimodule):
        return LeftModule(alg, ts.dim, left, label), ts
    eye_m = Mat.identity(m.dim)
    right = [ts.kron_between(eye_m, n.right[a], ts) for a in range(alg.dim)]
    return Bimodule(alg, ts.dim, left, right, label), ts


def tensor_bimodule(m: Bimodule, n: Bimodule) -> tuple:
    """(bimodule m (x)_A n, tensor space presentation)."""
    return tensor_left_module(m, n)


def _closure(dim, seeds, mats) -> Subspace:
    """Smallest subspace containing the seeds and stable under the matrices."""
    sb = SpanBuilder(dim)
    queue = []
    for v in seeds:
        v = vec(v)
        if sb.add(v):
            queue.append(v)
    while queue:
        v = queue.pop()
        for mat in mats:
            w = mat.apply(v)
            if sb.add(w):
                queue.append(w)
    return sb.subspace()


def module_closure(mod: LeftModule, seeds, use_right=False) -> Subspace:
    """Smallest submodule containing the seeds.

    Iterates the actions of the algebra's generators to a fixpoint; with
    use_right the right action of a bimodule is applied as well.
    """
    gens = mod.algebra.generators
    mats = [mod.left[a] for a in gens]
    if use_right:
        mats += [mod.right[a] for a in gens]
    return _closure(mod.dim, seeds, mats)


def _product_shape(shape, terms):
    """(p, q) for sum_l A_l X B_l with X of the given shape; every term must agree."""
    m, n = shape
    sides = {((m, m) if a is None else (a.rows, a.cols), (n, n) if b is None else (b.rows, b.cols))
             for a, b in terms}
    (p, k), (l, q) = sides.pop()
    if sides or (k, l) != (m, n):
        raise ValueError("terms do not fit one %d x %d unknown" % shape)
    return p, q


def matrix_rows(shape, terms, rhs=None):
    """Rows (coeffs, rhs[i][j]) of sum_l A_l X B_l = rhs, one per entry (i, j), row-major.

    X[k][l] is unknown k * n + l for X m x n; a term is a pair of Mats
    (A_l, B_l), None for an identity factor; rhs is a Mat, default zero.
    coeffs may keep entries that cancelled to zero.  A row is skipped only
    when its coefficients all cancel and its rhs is zero: an empty row with
    rhs != 0 makes the system inconsistent.
    """
    p, q = _product_shape(shape, terms)
    n = shape[1]
    if rhs is not None and (rhs.rows, rhs.cols) != (p, q):
        raise ValueError("right-hand side is not %d x %d" % (p, q))
    # per term: row i of A as pairs (k * n, A[i][k]), column j of B as pairs
    # (l, B[l][j]), None for an identity factor
    parts = []
    for a, b in terms:
        if a is None and b is None:
            b = Mat.identity(n)
        parts.append((None if a is None else [[(k * n, x) for k, x in row.items()] for row in a.nz],
                      None if b is None else [list(col.items()) for col in b.transpose().nz]))
    rnz = rhs.nz if rhs is not None else [{}] * p
    for i in range(p):
        rrow = rnz[i]
        base = i * n
        for j in range(q):
            coeffs = {}
            get = coeffs.get
            for arows, bcols in parts:
                if arows is None:
                    for l, y in bcols[j]:
                        coeffs[base + l] = get(base + l, ZERO) + y
                elif bcols is None:
                    for kn, x in arows[i]:
                        coeffs[kn + j] = get(kn + j, ZERO) + x
                else:
                    bcol = bcols[j]
                    for kn, x in arows[i]:
                        for l, y in bcol:
                            coeffs[kn + l] = get(kn + l, ZERO) + x * y
            r = rrow.get(j, ZERO)
            if r or any(coeffs.values()):
                yield coeffs, r


def _int_form(m: Mat):
    """(d, rows): the rows of m as {col: int} dicts over one positive denominator d."""
    if m.integral:
        return 1, m.nz
    forms = [int_row(row) for row in m.nz]
    d = lcm(*[f for f, _ in forms])
    return d, [{c: x * (d // f) for c, x in row.items()} for f, row in forms]


def sylvester_matrix(shape, terms, used) -> Mat:
    """Images of the unknowns in used under X -> sum_l A_l X B_l, one row each.

    The image of X[k][l] is the sum of the outer products A_l[:, k] B_l[l, :],
    flattened as in matrix_rows (so this is the transpose of the map's matrix,
    restricted to used), summed over integer forms and divided once per entry.
    """
    p, q = _product_shape(shape, terms)
    n = shape[1]
    # per term: the columns of A and the rows of B in integer form, None for an identity
    forms = [((1, None) if a is None else _int_form(a.transpose()),
              (1, None) if b is None else _int_form(b)) for a, b in terms]
    den = lcm(*[da * db for (da, _), (db, _) in forms])
    parts = [(acols, brows, den // (da * db)) for (da, acols), (db, brows) in forms]
    rows = []
    for u in used:
        k, l = divmod(u, n)
        acc = {}
        get = acc.get
        for acols, brows, f in parts:
            brow = ((l, ONE),) if brows is None else brows[l].items()
            for i, x in ((k, ONE),) if acols is None else acols[k].items():
                x *= f
                base = i * q
                for j, y in brow:
                    acc[base + j] = get(base + j, 0) + x * y
        if den != 1 or not all(acc.values()):
            acc = {c: rat(x, den) for c, x in acc.items() if x}
        rows.append(acc)
    return Mat._of(len(rows), p * q, rows)


def add_intertwining_rows(sys, alg, src_mats, tgt_mats, rhs_mats=None):
    """Rows X s_a - t_a X = rhs_a on the flattened unknowns of X (see matrix_rows).

    X maps source (ds) to target (dt); s and t are actions of alg and
    rhs_mats (default zero) obey Leibniz, rhs_ab = rhs_a s_b + t_a rhs_b,
    so rows for a in alg.generators imply the rest.  intertwining_failures
    checks the same law for a given X.
    """
    shape = (tgt_mats[0].rows, src_mats[0].rows)
    for a in alg.generators:
        terms = [(None, src_mats[a]), (-tgt_mats[a], None)]
        for coeffs, rhs in matrix_rows(shape, terms, rhs_mats[a] if rhs_mats else None):
            sys.add_row(coeffs, rhs)


def intertwining_failures(alg, x: Mat, src_mats, tgt_mats, rhs_mats=None):
    """Names of the basis elements a, in basis order, where x s_a != t_a x + rhs_a.

    The law of add_intertwining_rows, checked on every basis element: module
    linearity (rhs zero), and the Leibniz rules of connections (rhs the
    twist by d(e_a)).
    """
    out = []
    for a, name in enumerate(alg.basis_names):
        want = tgt_mats[a] * x
        if rhs_mats:
            want = want + rhs_mats[a]
        if x * src_mats[a] != want:
            out.append(name)
    return out


def solve_module_maps(source, target, linearity="left", compose_eq=()):
    """Affine space of matrices X: source -> target with the given linearity.

    Unknowns are the entries of X flattened row-major (X[i][j] at
    i*source.dim + j).  compose_eq entries are pairs (P, Q) imposing
    X * P = Q.
    """
    ds, dt = source.dim, target.dim
    sys = AffineSystem(dt * ds)
    # compose rows first: a lift through an inclusion pins entries of X outright,
    # and the linearity rows then reduce against those short pivots
    for P, Q in compose_eq:
        for coeffs, rhs in matrix_rows((dt, ds), [(None, P)], Q):
            sys.add_row(coeffs, rhs)
    alg = source.algebra
    if linearity in ("left", "bilinear"):
        add_intertwining_rows(sys, alg, source.left, target.left)
    if linearity in ("right", "bilinear"):
        add_intertwining_rows(sys, alg, source.right, target.right)
    return sys.solve()


def mat_from_flat(flat, rows, cols) -> Mat:
    """Reassemble a row-major flattened solution vector into a matrix."""
    return Mat(rows, cols, [flat[i * cols : (i + 1) * cols] for i in range(rows)])
