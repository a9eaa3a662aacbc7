"""Exact rational linear algebra: matrices, subspaces, affine solution sets.

Everything here is exact.  Scalars are arbitrary-precision rationals
(gmpy2.mpq when available, fractions.Fraction otherwise; both are always
reduced with positive denominator).  Subspaces are stored with a canonical
reduced-row-echelon basis, so two equal subspaces compare equal as data.
"""

from __future__ import annotations

import os

try:
    from gmpy2 import mpq as _mpq

    def rat(p, q=1):
        """Exact rational from ints, a 'p/q' string, or another rational."""
        if q != 1:
            return _mpq(p, q)
        if isinstance(p, str):
            return _mpq(p)
        return _mpq(p)

except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _mpq

    def rat(p, q=1):
        """Exact rational from ints, a 'p/q' string, or another rational."""
        if q != 1:
            return _mpq(p, q)
        return _mpq(p)


ZERO = rat(0)
ONE = rat(1)

DEFAULT_MAX_DIM = 4096


def max_dim():
    """Ambient-dimension cap; override with NCJET_MAX_DIM."""
    return int(os.environ.get("NCJET_MAX_DIM", DEFAULT_MAX_DIM))


class DimensionCapError(ValueError):
    """A matrix side or subspace ambient dimension above max_dim()."""


def rat_str(x):
    """Serialize a rational as 'p' or 'p/q' (never a float)."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else "%d/%d" % (n, d)


def vec(entries):
    """Normalize an iterable of scalars into a list of rationals."""
    return [rat(e) for e in entries]


def is_zero_vec(u):
    return all(not a for a in u)


class Mat:
    """Dense matrix of exact rationals.

    Rows are stored as tuples; instances are immutable once built.  Vectors
    are plain lists/tuples of rationals and matrices act on them as column
    vectors via ``apply``.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        cap = max_dim()
        if rows > cap or cols > cap:
            raise DimensionCapError("matrix dimension exceeds cap %d" % cap)
        if len(data) != rows:
            raise ValueError("row count mismatch")
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(row) for row in data)
        for row in self.data:
            if len(row) != cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows, cols=None):
        rows = [vec(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols required for empty matrix")
            cols = len(rows[0])
        return Mat(len(rows), cols, rows)

    @staticmethod
    def identity(n):
        return Mat(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols, [[ZERO] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows * self.cols > 64:
            return "Mat(%dx%d)" % (self.rows, self.cols)
        return "Mat(%dx%d, %s)" % (
            self.rows,
            self.cols,
            [[rat_str(x) for x in row] for row in self.data],
        )

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [row[j] for row in self.data]

    def transpose(self):
        return Mat(self.cols, self.rows, [self.col(j) for j in range(self.cols)])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return Mat(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        return Mat(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self):
        return Mat(self.rows, self.cols, [[-a for a in row] for row in self.data])

    def scale(self, c):
        c = rat(c)
        return Mat(self.rows, self.cols, [[c * a for a in row] for row in self.data])

    def __mul__(self, other):
        """Matrix product; skips zero entries of the left factor."""
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        odata = other.data
        out = []
        for row in self.data:
            acc = [ZERO] * other.cols
            for k, a in enumerate(row):
                if a:
                    orow = odata[k]
                    acc = [x + a * y if y else x for x, y in zip(acc, orow)]
            out.append(acc)
        return Mat(self.rows, other.cols, out)

    def apply(self, v):
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        out = []
        for row in self.data:
            s = ZERO
            for a, x in zip(row, v):
                if a and x:
                    s += a * x
            out.append(s)
        return out

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Mat(
            self.rows,
            self.cols + other.cols,
            [r1 + r2 for r1, r2 in zip(self.data, other.data)],
        )

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Mat(self.rows + other.rows, self.cols, self.data + other.data)

    def submatrix(self, row_idx, col_idx):
        return Mat(
            len(row_idx),
            len(col_idx),
            [[self.data[i][j] for j in col_idx] for i in row_idx],
        )


def _sparse(v):
    """Nonzero entries of a vector (list, tuple or dict) as a fresh dict."""
    if isinstance(v, dict):
        return {c: x for c, x in v.items() if x}
    return {c: x for c, x in enumerate(v) if x}


def _dense(row, n):
    out = [ZERO] * n
    for c, x in row.items():
        out[c] = x
    return out


class SpanBuilder:
    """Incremental exact echelon form: the one elimination routine.

    Rows are kept as {column: value} dicts keyed by their pivot column, with
    row[pivot] == 1 and nothing left of the pivot, so the common case
    (structure constants 0/±1, little fill-in) stays fast.  ``reduced()``
    back-substitutes to the canonical RREF rows that ``subspace()`` and the
    solvers read.
    """

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = {}  # pivot column -> dict row with row[pivot] == 1

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, row):
        """Reduce a dict row in place; returns its leading column, None if zero."""
        rows = self.rows
        while row:
            p = min(row)
            piv = rows.get(p)
            if piv is None:
                return p
            f = row[p]
            for c, x in piv.items():
                y = row.get(c, ZERO) - f * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
        return None

    def reduce(self, v):
        """Remainder of v modulo the current span (as a dict)."""
        row = _sparse(v)
        self._reduce(row)
        return row

    def add(self, v):
        """Add one vector (list or dict); returns True if rank grew."""
        row = _sparse(v)
        p = self._reduce(row)
        if p is None:
            return False
        f = row[p]
        if f != 1:
            inv = ONE / f
            row = {c: x * inv for c, x in row.items()}
        self.rows[p] = row
        return True

    def contains(self, v):
        return not self.reduce(v)

    def reduced(self):
        """Canonical RREF rows {pivot: row}: every other pivot column cleared."""
        out = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for c in [c for c in row if c != p and c in out]:
                f = row[c]
                # pivot entry of out[c] is 1, so this clears row[c]
                for cc, x in out[c].items():
                    y = row.get(cc, ZERO) - f * x
                    if y:
                        row[cc] = y
                    else:
                        row.pop(cc, None)
            out[p] = row
        return out

    def subspace(self) -> Subspace:
        """Canonical RREF subspace of everything added so far."""
        red = self.reduced()
        basis = [_dense(red[p], self.ambient) for p in sorted(red)]
        return Subspace(self.ambient, basis, reduced=True)


def _rref_rows(rows, cols):
    """In-place RREF of a list of rows (zero rows last); returns pivot columns."""
    sb = SpanBuilder(cols)
    for r in rows:
        sb.add(r)
    red = sb.reduced()
    pivots = sorted(red)
    zero_rows = [[ZERO] * cols for _ in range(len(rows) - len(pivots))]
    rows[:] = [_dense(red[p], cols) for p in pivots] + zero_rows
    return pivots


def rref(m: Mat) -> Mat:
    """Reduced row-echelon form (pivot entries 1, zeros above and below)."""
    return rref_pivots(m)[0]


def rref_pivots(m: Mat):
    """(rref matrix, pivot columns)."""
    rows = list(m.data)
    piv = _rref_rows(rows, m.cols)
    return Mat(m.rows, m.cols, rows), piv


def rank(m: Mat) -> int:
    return len(rref_pivots(m)[1])


class Subspace:
    """Linear subspace with a canonical RREF basis (rows of ``basis``)."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, basis_rows, *, reduced=False):
        if ambient > max_dim():
            raise DimensionCapError("ambient dimension exceeds cap")
        if reduced:
            rows = [list(r) for r in basis_rows]
            pivots = []
            for r in rows:
                j = next((c for c, x in enumerate(r) if x), None)
                pivots.append(j)
            # trust-but-verify: pivots strictly increasing, normalized, cleared
            for i, (r, p) in enumerate(zip(rows, pivots)):
                if p is None or r[p] != 1 or (i and pivots[i - 1] >= p):
                    raise ValueError("basis rows are not in reduced echelon form")
                for q in pivots:
                    if q != p and r[q]:
                        raise ValueError("pivot column not cleared in echelon basis")
        else:
            rows = [vec(r) for r in basis_rows]
            for r in rows:
                if len(r) != ambient:
                    raise ValueError("basis vector length mismatch")
            pivots = _rref_rows(rows, ambient)
            rows = rows[: len(pivots)]
        self.ambient = ambient
        self.basis = Mat(len(rows), ambient, rows)
        self.pivots = tuple(pivots)

    @staticmethod
    def zero(ambient):
        return Subspace(ambient, [])

    @staticmethod
    def full(ambient):
        return Subspace(ambient, Mat.identity(ambient).data, reduced=False)

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in %d)" % (self.dim, self.ambient)

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        v = vec(v)
        coeffs = [v[p] for p in self.pivots]
        resid = list(v)
        for c, row in zip(coeffs, self.basis.data):
            if c:
                resid = [x - c * y if y else x for x, y in zip(resid, row)]
        if not is_zero_vec(resid):
            return None
        return coeffs

    def contains(self, v) -> bool:
        return self.coords(v) is not None

    def contains_space(self, other) -> bool:
        return all(self.contains(row) for row in other.basis.data)

    def add(self, other):
        """Sum of subspaces."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, list(self.basis.data) + list(other.basis.data))

    def constraint_matrix(self) -> Mat:
        """Matrix whose kernel is exactly this subspace.

        Built from x = B^T (x at pivots): membership is a linear condition.
        """
        n = self.ambient
        sel_rows = [[ZERO] * n for _ in range(self.dim)]
        for i, p in enumerate(self.pivots):
            sel_rows[i][p] = ONE
        sel = Mat(self.dim, n, sel_rows)
        return Mat.identity(n) - self.basis.transpose() * sel


class AffineSpace:
    """Solution set of a linear system: a point plus a direction subspace."""

    __slots__ = ("empty", "particular", "direction")

    def __init__(self, empty, particular=None, direction=None):
        self.empty = empty
        self.particular = None if empty else vec(particular)
        self.direction = None if empty else direction
        if not empty and len(self.particular) != direction.ambient:
            raise ValueError("particular/direction mismatch")

    @property
    def dim(self):
        return -1 if self.empty else self.direction.dim

    def __repr__(self):
        if self.empty:
            return "AffineSpace(empty)"
        return "AffineSpace(dim %d in %d)" % (self.dim, self.direction.ambient)


class AffineSystem(SpanBuilder):
    """Exact linear system: a SpanBuilder over the augmented column n.

    Unknowns are columns 0..n-1 and column n holds the right-hand side, so
    the system is inconsistent exactly when n is a pivot.  solve() returns
    the canonical solution set: free variables zeroed in the particular
    solution, the direction in its canonical RREF basis.
    """

    def __init__(self, n_unknowns):
        super().__init__(n_unknowns + 1)
        self.n = n_unknowns

    def add_row(self, coeffs, rhs=ZERO):
        """Impose sum(coeffs[c] * x_c for c) == rhs."""
        row = {c: rat(v) for c, v in coeffs.items() if v}
        if rhs:
            row[self.n] = rat(rhs)
        self.add(row)

    def solve(self) -> AffineSpace:
        n = self.n
        if n in self.rows:
            return AffineSpace(True)
        red = self.reduced()
        particular = [ZERO] * n
        free = {c: {c: ONE} for c in range(n) if c not in red}
        for p, row in red.items():
            for c, x in row.items():
                if c == n:
                    particular[p] = x
                elif c in free:
                    free[c][p] = -x
        return AffineSpace(False, particular, span_of(free.values(), n))


def solve_affine(m: Mat, target) -> AffineSpace:
    """All solutions of m x = target, canonically parametrized.

    The particular solution sets every free variable to zero under RREF
    pivoting, so results are deterministic across runs.
    """
    target = vec(target)
    if len(target) != m.rows:
        raise ValueError("target length mismatch")
    sys = AffineSystem(m.cols)
    for row, t in zip(m.data, target):
        sys.add(row + (t,))
    return sys.solve()


def kernel_of(m: Mat) -> Subspace:
    """Canonical basis of {v : m v = 0}."""
    return solve_affine(m, [ZERO] * m.rows).direction


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of subspaces (canonical basis)."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    # x = A^T u = B^T v: kernel of [A^T | -B^T], pushed through A^T.
    stacked = a.basis.transpose().hstack(-b.basis.transpose())
    ker = kernel_of(stacked)
    gens = []
    at = a.basis.transpose()
    for row in ker.basis.data:
        gens.append(at.apply(list(row[: a.dim])))
    return Subspace(a.ambient, gens)


def quotient_data(sub: Subspace):
    """(projection, section) for ambient -> ambient/sub.

    The quotient keeps the non-pivot coordinates; projection has kernel
    exactly ``sub`` and projection * section = identity.
    """
    n = sub.ambient
    pivset = set(sub.pivots)
    nonpiv = [c for c in range(n) if c not in pivset]
    q = len(nonpiv)
    proj_rows = []
    for c in nonpiv:
        row = [ZERO] * n
        row[c] = ONE
        for i, p in enumerate(sub.pivots):
            row[p] = -sub.basis.data[i][c]
        proj_rows.append(row)
    proj = Mat(q, n, proj_rows)
    sec_rows = [[ZERO] * q for _ in range(n)]
    for k, c in enumerate(nonpiv):
        sec_rows[c][k] = ONE
    section = Mat(n, q, sec_rows)
    return proj, section


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; left factor indexes slowly, right factor fast."""
    out = []
    for arow in a.data:
        for brow in b.data:
            row = []
            for x in arow:
                if x:
                    row.extend(x * y if y else ZERO for y in brow)
                else:
                    row.extend([ZERO] * b.cols)
            out.append(row)
    return Mat(a.rows * b.rows, a.cols * b.cols, out)


def span_of(vectors, ambient) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    sb = SpanBuilder(ambient)
    for v in vectors:
        sb.add(v)
    return sb.subspace()


def image_of(m: Mat) -> Subspace:
    """Column space of m."""
    return span_of([m.col(j) for j in range(m.cols)], m.rows)


def inverse(m: Mat) -> Mat:
    """Inverse of a square invertible matrix."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    aug = m.hstack(Mat.identity(m.rows))
    red, piv = rref_pivots(aug)
    if piv != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return Mat(m.rows, m.rows, [row[m.rows:] for row in red.data])


def left_inverse(m: Mat) -> Mat:
    """Left inverse of an injective matrix (m^T m is invertible over Q)."""
    mt = m.transpose()
    return inverse(mt * m) * mt


def right_inverse(m: Mat) -> Mat:
    """Right inverse of a surjective matrix."""
    mt = m.transpose()
    return mt * inverse(m * mt)
