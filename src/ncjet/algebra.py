"""Finite-dimensional algebras by structure constants, and their modules.

An algebra is given by a rank-3 tensor of structure constants over exact
rationals.  Modules carry explicit action matrices per algebra basis
element.  Tensor products over the algebra are computed as quotients of
plain tensor products by the balancing relations x·a ⊗ y − x ⊗ a·y.
"""

from __future__ import annotations

from .linalg import (
    AffineSystem,
    Mat,
    Subspace,
    SpanBuilder,
    ZERO,
    ONE,
    int_row,
    nonzeros,
    kron,
    quotient_data,
    rat,
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
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                for k, c in enumerate(self.mult[i][j]):
                    if c:
                        out[k] += f * c
        return out

    def left_mult(self, x) -> Mat:
        """Matrix of left multiplication by the coordinate vector x."""
        m = Mat.zeros(self.dim, self.dim)
        acc = None
        for i, xi in enumerate(x):
            if xi:
                term = self.lmat[i].scale(xi)
                acc = term if acc is None else acc + term
        return acc if acc is not None else m

    def basis_vector(self, i):
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    def __repr__(self):
        return "Algebra(%s, dim %d)" % (self.name, self.dim)


def validate_algebra(a: Algebra):
    """Return a list of violated axioms (empty means the algebra is valid)."""
    problems = []
    d = a.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = a.mul(a.mul(a.basis_vector(i), a.basis_vector(j)), a.basis_vector(k))
                rhs = a.mul(a.basis_vector(i), a.mul(a.basis_vector(j), a.basis_vector(k)))
                if lhs != rhs:
                    problems.append(
                        "associativity fails at (%s, %s, %s)"
                        % (a.basis_names[i], a.basis_names[j], a.basis_names[k])
                    )
    for i in range(d):
        e = a.basis_vector(i)
        if a.mul(a.unit, e) != e:
            problems.append("unit * %s != %s" % (a.basis_names[i], a.basis_names[i]))
        if a.mul(e, a.unit) != e:
            problems.append("%s * unit != %s" % (a.basis_names[i], a.basis_names[i]))
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
    """Left module: one action matrix per algebra basis element."""

    def __init__(self, algebra, dim, left_mats, label=""):
        self.algebra = algebra
        self.dim = dim
        self.left = list(left_mats)
        self.label = label

    def act_left(self, a, v):
        """Action of the algebra element with coordinates a on v."""
        out = [ZERO] * self.dim
        for i, ai in enumerate(a):
            if ai:
                w = self.left[i].apply(v)
                out = [x + ai * y if y else x for x, y in zip(out, w)]
        return out

    def left_mult(self, a) -> Mat:
        acc = Mat.zeros(self.dim, self.dim)
        for i, ai in enumerate(a):
            if ai:
                acc = acc + self.left[i].scale(ai)
        return acc

    def check_left(self):
        """Violations of the left representation axioms."""
        alg = self.algebra
        problems = []
        uni = self.left_mult(alg.unit)
        if uni != Mat.identity(self.dim):
            problems.append("unit does not act as identity (left) on %s" % self.label)
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = self.left_mult(alg.mul(alg.basis_vector(i), alg.basis_vector(j)))
                if self.left[i] * self.left[j] != prod:
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
        self.right = list(right_mats)

    def act_right(self, v, a):
        out = [ZERO] * self.dim
        for j, aj in enumerate(a):
            if aj:
                w = self.right[j].apply(v)
                out = [x + aj * y if y else x for x, y in zip(out, w)]
        return out

    def right_mult(self, a) -> Mat:
        acc = Mat.zeros(self.dim, self.dim)
        for j, aj in enumerate(a):
            if aj:
                acc = acc + self.right[j].scale(aj)
        return acc

    def check_bimodule(self):
        alg = self.algebra
        problems = self.check_left()
        if self.right_mult(alg.unit) != Mat.identity(self.dim):
            problems.append("unit does not act as identity (right) on %s" % self.label)
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = self.right_mult(alg.mul(alg.basis_vector(i), alg.basis_vector(j)))
                if self.right[j] * self.right[i] != prod:
                    problems.append(
                        "right action not multiplicative at (%s, %s) on %s"
                        % (alg.basis_names[i], alg.basis_names[j], self.label)
                    )
                if self.left[i] * self.right[j] != self.right[j] * self.left[i]:
                    problems.append(
                        "left/right actions do not commute at (%s, %s) on %s"
                        % (alg.basis_names[i], alg.basis_names[j], self.label)
                    )
        return problems

    def __repr__(self):
        return "Bimodule(%s, dim %d)" % (self.label, self.dim)


def regular_bimodule(a: Algebra, label=None) -> Bimodule:
    """The algebra as a bimodule over itself."""
    return Bimodule(a, a.dim, a.lmat, a.rmat, label or a.name)


LINEARITY_FLAGS = ("k", "left", "right", "bilinear")


class BimoduleMap:
    """Linear map between modules with a declared (verified) linearity."""

    def __init__(self, source, target, matrix: Mat, linearity="k"):
        if linearity not in LINEARITY_FLAGS:
            raise ValueError("unknown linearity flag %r" % linearity)
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match modules")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.linearity = linearity
        bad = self.check()
        if bad:
            raise ValueError("; ".join(bad))

    def check(self):
        problems = []
        alg = self.source.algebra
        if self.linearity in ("left", "bilinear"):
            for i in range(alg.dim):
                if self.matrix * self.source.left[i] != self.target.left[i] * self.matrix:
                    problems.append("not left-linear at %s" % alg.basis_names[i])
        if self.linearity in ("right", "bilinear"):
            for i in range(alg.dim):
                if self.matrix * self.source.right[i] != self.target.right[i] * self.matrix:
                    problems.append("not right-linear at %s" % alg.basis_names[i])
        return problems


class TensorSpace:
    """Tensor product over the algebra, with its plain-tensor presentation.

    proj maps the plain tensor (left factor slow, right factor fast) onto
    the quotient; sec is the fixed section picked by rref pivots.  pcols
    holds the columns of proj's integer form as {row: int} dicts and pden
    the row denominators, so a plain tensor is projected from its nonzeros
    alone, over the integers, with one division per output entry.
    """

    __slots__ = ("left_dim", "right_dim", "dim", "proj", "sec", "relations", "pcols", "pden")

    def __init__(self, left_dim, right_dim, proj, sec, relations):
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.proj = proj
        self.sec = sec
        self.dim = proj.rows
        self.relations = relations
        form = [int_row(row) for row in proj.nz]
        self.pden = [d for d, _ in form]
        self.pcols = Mat._of(proj.rows, proj.cols, [row for _, row in form]).transpose().nz

    def project(self, plain):
        """Class of the plain tensor given by its nonzeros {index: value}."""
        den, plain = int_row(plain)
        return self._classes(plain, den)

    def _classes(self, plain, den):
        """Class of the plain tensor plain / den, for {index: int} plain and an int den > 0."""
        out = [ZERO] * self.dim
        pcols = self.pcols
        for k, v in plain.items():
            if v:
                for r, p in pcols[k].items():
                    out[r] += v * p
        for r, d in enumerate(self.pden):
            d *= den
            if d != 1:
                x = out[r]
                out[r] = x // d if not x % d else rat(x, d)
        return out

    def class_of(self, x, y):
        """Class of the pure tensor x (x) y, from the nonzeros of x and y."""
        rd = self.right_dim
        dx, x = int_row(nonzeros(x))
        dy, y = int_row(nonzeros(y))
        ynz = y.items()
        return self._classes({i * rd + j: xi * yj for i, xi in x.items() for j, yj in ynz},
                             dx * dy)


def tensor_space(m: Bimodule, n: LeftModule) -> TensorSpace:
    """Quotient of the plain tensor m (x) n by x·a (x) y - x (x) a·y."""
    if m.algebra is not n.algebra:
        raise ValueError("tensor factors live over different algebras")
    dm, dn = m.dim, n.dim
    amb = dm * dn
    sb = SpanBuilder(amb)
    alg = m.algebra
    for a in range(alg.dim):
        rcols = m.right[a].transpose().nz
        lcols = n.left[a].transpose().nz
        for x in range(dm):
            for y in range(dn):
                gen = {mm * dn + y: v for mm, v in rcols[x].items()}
                for nn, w in lcols[y].items():
                    key = x * dn + nn
                    gen[key] = gen.get(key, ZERO) - w
                sb.add(gen)
    rel = sb.subspace()
    proj, sec = quotient_data(rel)
    return TensorSpace(dm, dn, proj, sec, rel)


def tensor_left_module(m: Bimodule, n: LeftModule, label="") -> tuple:
    """(left module m (x)_A n, tensor space presentation)."""
    ts = tensor_space(m, n)
    alg = m.algebra
    eye_n = Mat.identity(n.dim)
    eye_m = Mat.identity(m.dim)
    left = [ts.proj * (kron(m.left[a], eye_n) * ts.sec) for a in range(alg.dim)]
    if isinstance(n, Bimodule):
        right = [ts.proj * (kron(eye_m, n.right[a]) * ts.sec) for a in range(alg.dim)]
        mod = Bimodule(alg, ts.dim, left, right, label or "%s(x)%s" % (m.label, n.label))
    else:
        mod = LeftModule(alg, ts.dim, left, label or "%s(x)%s" % (m.label, n.label))
    return mod, ts


def tensor_bimodule(m: Bimodule, n: Bimodule, label="") -> tuple:
    """(bimodule m (x)_A n, tensor space presentation)."""
    ts = tensor_space(m, n)
    alg = m.algebra
    eye_m = Mat.identity(m.dim)
    eye_n = Mat.identity(n.dim)
    left = [ts.proj * (kron(m.left[a], eye_n) * ts.sec) for a in range(alg.dim)]
    right = [ts.proj * (kron(eye_m, n.right[a]) * ts.sec) for a in range(alg.dim)]
    mod = Bimodule(alg, ts.dim, left, right, label or "%s(x)%s" % (m.label, n.label))
    return mod, ts


def module_closure(mod: LeftModule, generators, use_right=False) -> Subspace:
    """Smallest action-stable subspace containing the generators.

    Iterates action images to a fixpoint; with use_right the right action
    of a bimodule is applied as well.
    """
    sb = SpanBuilder(mod.dim)
    queue = []
    for g in generators:
        g = vec(g)
        if sb.add(g):
            queue.append(g)
    mats = list(mod.left)
    if use_right:
        mats += list(mod.right)
    while queue:
        v = queue.pop()
        for mat in mats:
            w = mat.apply(v)
            if sb.add(w):
                queue.append(w)
    return sb.subspace()


def add_intertwining_rows(sys, src_mats, tgt_mats, rhs_mats=None):
    """Rows (X s_a - t_a X)[i][j] = rhs_a[i][j] on the flattened unknowns of X.

    X maps source (ds) to target (dt), flattened row-major; rhs_mats default
    to zero.  A row is skipped only when it has neither coefficients nor a
    right-hand side: an empty row with rhs != 0 makes the system inconsistent.
    """
    dt, ds = tgt_mats[0].rows, src_mats[0].rows
    for a, (s_a, t_a) in enumerate(zip(src_mats, tgt_mats)):
        scols = s_a.transpose().nz
        for i in range(dt):
            trow = t_a.nz[i]
            for j in range(ds):
                coeffs = {i * ds + k: v for k, v in scols[j].items()}
                for k, v in trow.items():
                    key = k * ds + j
                    coeffs[key] = coeffs.get(key, ZERO) - v
                rhs = rhs_mats[a].entry(i, j) if rhs_mats else ZERO
                if coeffs or rhs:
                    sys.add_row(coeffs, rhs)


def solve_module_maps(source, target, linearity="left", compose_eq=(), entry_eq=()):
    """Affine space of matrices X: source -> target with the given linearity.

    Unknowns are the entries of X flattened row-major (X[i][j] at
    i*source.dim + j).  compose_eq entries are pairs (P, Q) imposing
    X * P = Q; entry_eq entries are (coeff dict over unknowns, rhs).
    """
    ds, dt = source.dim, target.dim
    sys = AffineSystem(dt * ds)
    if linearity in ("left", "bilinear"):
        add_intertwining_rows(sys, source.left, target.left)
    if linearity in ("right", "bilinear"):
        add_intertwining_rows(sys, source.right, target.right)
    for P, Q in compose_eq:
        if P.rows != ds or Q.rows != dt or P.cols != Q.cols:
            raise ValueError("compose_eq shape mismatch")
        for w, pcol in enumerate(P.transpose().nz):
            for i in range(dt):
                sys.add_row({i * ds + j: v for j, v in pcol.items()}, Q.entry(i, w))
    for coeffs, rhs in entry_eq:
        sys.add_row(coeffs, rhs)
    return sys.solve()


def mat_from_flat(flat, rows, cols) -> Mat:
    """Reassemble a row-major flattened solution vector into a matrix."""
    return Mat(rows, cols, [flat[i * cols : (i + 1) * cols] for i in range(rows)])
