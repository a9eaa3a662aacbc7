"""Exact linear algebra: sparse matrices, subspaces, affine solution sets.

Everything here is exact.  A scalar is an ``int`` when it is integral and
an arbitrary-precision rational otherwise (gmpy2.mpq with the ``fast``
extra installed, fractions.Fraction without it; reduced, positive
denominator).  Sums and products of ints stay ints, so a rational appears
only where something divides, and every division goes through ``rat``:
``/`` on two ints would silently give a float.  Matrices store their
nonzero entries only, and every kernel walks those.  Subspaces are stored
with a canonical reduced-row-echelon basis, so two equal subspaces compare
equal as data.

Products are fraction-free.  A matrix knows whether all its entries are
ints: a product learns it as it divides, identity, zeros and quotient
sections are born integral, and any other matrix finds out once, on first
use.  A product with a non-integral factor reads each row in integer form,
int numerators over one positive denominator (``int_row``), so it
accumulates over ints and divides once per output entry.

``split`` is the one inversion: a right inverse and the kernel of a
surjective map from one elimination.  ``inverse``, ``left_inverse`` and
``right_inverse`` are wrappers of it.
"""

from __future__ import annotations

import os
from itertools import repeat
from math import gcd, lcm

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover - gmpy2 comes with the ncjet[fast] extra
    from fractions import Fraction as _Q


def rat(p, q=1):
    """Exact p/q from ints, rationals or a 'p/q' string; an int when integral."""
    if type(p) is int:
        if q == 1:
            return p
        if type(q) is int:
            return p // q if not p % q else _Q(p, q)
    if isinstance(p, float) or isinstance(q, float):
        raise TypeError("a float is not an exact scalar: %r / %r" % (p, q))
    x = (p if type(p) is _Q else _Q(p)) if q == 1 else _Q(p, q)
    return int(x.numerator) if x.denominator == 1 else x


ZERO = 0
ONE = 1

DEFAULT_MAX_DIM = 4096


def max_dim():
    """Ambient-dimension cap; override with NCJET_MAX_DIM."""
    return int(os.environ.get("NCJET_MAX_DIM", DEFAULT_MAX_DIM))


class DimensionCapError(ValueError):
    """A matrix side, subspace ambient dimension or tower degree above max_dim()."""


def rat_str(x):
    """Serialize a scalar as 'p' or 'p/q' (never a float)."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else "%d/%d" % (n, d)


def vec(entries):
    """Normalize an iterable of scalars into a list of exact scalars."""
    return [rat(e) for e in entries]


def nonzeros(v):
    """Nonzero entries of a vector (sequence or dict) as a fresh dict of exact scalars."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {c: x if type(x) is int else rat(x) for c, x in items if x}


def int_row(row):
    """(d, {col: int}) with row == {col: n / d}, d > 0 the lcm of its denominators.

    An integral row comes back as itself.  Numerators are Python ints on
    every backend.
    """
    dens = [int(x.denominator) for x in row.values() if type(x) is not int]
    if not dens:
        return 1, row
    d = lcm(*dens)
    return d, {c: x * d if type(x) is int else int(x.numerator) * (d // int(x.denominator))
               for c, x in row.items()}


def _dense(row, n):
    out = [ZERO] * n
    for c, x in row.items():
        out[c] = x
    return out


class Mat:
    """Sparse matrix of exact scalars, immutable once built.

    Row i is the dict ``nz[i]`` from column to nonzero entry.  Kernels walk
    these nonzeros only and may share row dicts between matrices, so a row
    is never mutated.  ``data``, ``row``, ``col`` and ``entry`` are dense
    views computed on each request.  Vectors are plain lists/tuples of
    scalars and matrices act on them as column vectors via ``apply``.

    ``integral`` says whether every entry is an int.  A product learns it
    as it divides and ``identity``, ``zeros`` and quotient sections are born
    integral; every other kernel leaves it unknown, and the first read
    scans once and remembers.
    """

    __slots__ = ("rows", "cols", "nz", "_integral")

    def __init__(self, rows, cols, data):
        """From dense rows (sequences of scalars) or sparse {col: value} rows."""
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for row in data:
            if isinstance(row, dict):
                if row and not 0 <= min(row) <= max(row) < cols:
                    raise ValueError("column index out of range")
            elif len(row) != cols:
                raise ValueError("column count mismatch")
        self._init(rows, cols, [nonzeros(row) for row in data])

    def _init(self, rows, cols, nz):
        """Where every matrix is born: the dimension cap, then the fields."""
        cap = max_dim()
        if rows > cap or cols > cap:
            raise DimensionCapError("matrix dimension exceeds cap %d" % cap)
        self.rows, self.cols, self.nz = rows, cols, tuple(nz)
        self._integral = None

    @staticmethod
    def _of(rows, cols, nz, integral=None):
        """Trusted constructor: each row holds nonzero, normalized entries only.

        integral is True or False when the caller knows, None otherwise.
        """
        m = object.__new__(Mat)
        m._init(rows, cols, nz)
        m._integral = integral
        return m

    @property
    def integral(self):
        """True when every entry is an int."""
        if self._integral is None:
            self._integral = all(type(x) is int for row in self.nz for x in row.values())
        return self._integral

    @staticmethod
    def from_rows(rows, cols=None):
        rows = list(rows)
        if cols is None:
            if not rows:
                raise ValueError("cols required for empty matrix")
            cols = len(rows[0])
        return Mat(len(rows), cols, rows)

    @staticmethod
    def from_cols(cols, rows):
        """The rows x len(cols) matrix whose j-th column is cols[j]."""
        return Mat(len(cols), rows, list(cols)).transpose()

    @staticmethod
    def identity(n):
        return Mat._of(n, n, [{i: ONE} for i in range(n)], True)

    @staticmethod
    def zeros(rows, cols):
        return Mat._of(rows, cols, [{}] * rows, True)

    def __eq__(self, other):
        return (isinstance(other, Mat)
                and (self.rows, self.cols, self.nz) == (other.rows, other.cols, other.nz))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.nz)))

    def __repr__(self):
        if self.rows * self.cols > 64:
            return "Mat(%dx%d)" % (self.rows, self.cols)
        return "Mat(%dx%d, %s)" % (self.rows, self.cols,
                                   [[rat_str(x) for x in row] for row in self.data])

    @property
    def data(self):
        """Dense rows as tuples, built on each access."""
        return tuple(tuple(_dense(row, self.cols)) for row in self.nz)

    def is_zero(self):
        return not any(self.nz)

    def entry(self, i, j):
        return self.nz[i].get(j, ZERO)

    def row(self, i):
        return _dense(self.nz[i], self.cols)

    def col(self, j):
        return [row.get(j, ZERO) for row in self.nz]

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for c, x in row.items():
                out[c][i] = x
        return Mat._of(self.cols, self.rows, out)

    def _plus(self, other, sign):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add/sub")
        out = []
        for r1, r2 in zip(self.nz, other.nz):
            if not r2:
                out.append(r1)
                continue
            acc = dict(r1)
            for c, x in r2.items():
                acc[c] = acc.get(c, ZERO) + sign * x
            out.append(nonzeros(acc))
        return Mat._of(self.rows, self.cols, out)

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, -ONE)

    def __neg__(self):
        return Mat._of(self.rows, self.cols, [{c: -x for c, x in row.items()} for row in self.nz])

    def scale(self, c):
        c = rat(c)
        return Mat._of(self.rows, self.cols,
                       [nonzeros({k: c * x for k, x in row.items()}) for row in self.nz])

    def __mul__(self, other):
        """Matrix product over the nonzeros of both factors.

        A left row that selects one row of the right factor shares it.  Two
        integral factors take a plain integer loop.  Otherwise every other
        left row runs over integer forms (``int_row``), made for this product
        only: it sums int numerators scaled to one common denominator, then
        divides once per output entry, so an entry is an int exactly when it
        is integral.
        """
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        onz = other.nz
        if self.integral and other.integral:  # measured faster than the general loop below
            out = []
            for row in self.nz:
                if len(row) == 1:
                    (k, a), = row.items()
                    if a == 1:
                        out.append(onz[k])
                        continue
                acc = {}
                get = acc.get
                for k, a in row.items():
                    for c, b in onz[k].items():
                        acc[c] = get(c, ZERO) + a * b
                out.append({c: x for c, x in acc.items() if x})
            return Mat._of(self.rows, other.cols, out, True)
        if other.integral:
            rden, rnz = None, onz
        else:
            rden, rnz = zip(*map(int_row, onz))
        lform = zip(repeat(1), self.nz) if self.integral else map(int_row, self.nz)
        out = []
        integral = True
        for da, row in lform:
            if da == 1 and len(row) == 1:
                (k, a), = row.items()
                if a == 1:
                    out.append(onz[k])
                    integral = integral and (rden is None or rden[k] == 1)
                    continue
            d = 1 if rden is None else lcm(*[rden[k] for k in row])
            if d != 1:  # right row k is rnz[k] / rden[k]: bring it to denominator d
                row = {k: a * (d // rden[k]) for k, a in row.items()}
            acc = {}
            get = acc.get
            for k, a in row.items():
                for c, b in rnz[k].items():
                    acc[c] = get(c, ZERO) + a * b
            d *= da
            if d == 1:
                out.append({c: x for c, x in acc.items() if x})
                continue
            res = {}
            for c, x in acc.items():
                if x:
                    if x % d:
                        res[c] = rat(x, d)
                        integral = False
                    else:
                        res[c] = x // d
            out.append(res)
        return Mat._of(self.rows, other.cols, out, integral)

    def apply(self, v):
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        out = []
        for row in self.nz:
            s = ZERO
            for c, a in row.items():
                x = v[c]
                if x:
                    s += a * x
            out.append(s if type(s) is int else rat(s))
        return out

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        off = self.cols
        return Mat._of(self.rows, self.cols + other.cols, [
            {**r1, **{c + off: x for c, x in r2.items()}} if r2 else r1
            for r1, r2 in zip(self.nz, other.nz)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Mat._of(self.rows + other.rows, self.cols, self.nz + other.nz)

    def submatrix(self, row_idx, col_idx):
        """Rows row_idx and columns col_idx, in that order; an index may repeat."""
        where = {}
        for k, j in enumerate(col_idx):
            where.setdefault(j, []).append(k)
        return Mat._of(len(row_idx), len(col_idx), [
            {k: x for c, x in self.nz[i].items() if c in where for k in where[c]}
            for i in row_idx])


def _eliminate(row, piv, p):
    """Clear row[p] over the ints: row <- d*row - f*piv for f = row[p], d = piv[p] > 0."""
    f, d = row[p], piv[p]
    if d != 1:
        g = gcd(f, d)
        f, d = f // g, d // g
        for c in row:
            row[c] *= d
    for c, x in piv.items():
        y = row.get(c, ZERO) - f * x
        if y:
            row[c] = y
        else:
            row.pop(c, None)


class SpanBuilder:
    """Incremental exact echelon form: the one elimination routine.

    Rows are kept fraction-free as {column: int} dicts keyed by their pivot
    column, with coprime entries, a positive pivot and nothing left of it,
    so elimination runs on ints even where the input has rationals.
    ``reduced()`` back-substitutes and divides by the pivots, giving the
    canonical RREF rows that ``subspace()`` and the solvers read.
    """

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = {}  # pivot column -> integral dict row with row[pivot] > 0

    @property
    def dim(self):
        return len(self.rows)

    def add(self, v):
        """Add one vector (list or dict); returns True if rank grew."""
        row = int_row(nonzeros(v))[1]
        rows = self.rows
        while row:
            p = min(row)
            piv = rows.get(p)
            if piv is None:
                g = gcd(*row.values())
                g = -g if row[p] < 0 else g
                rows[p] = {c: x // g for c, x in row.items()} if g != 1 else row
                return True
            _eliminate(row, piv, p)
        return False

    def reduced(self):
        """Canonical RREF rows {pivot: row}: other pivot columns cleared, pivots 1."""
        out = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for c in [c for c in row if c != p and c in out]:
                _eliminate(row, out[c], c)
            out[p] = row
        return {p: {c: rat(x, row[p]) for c, x in row.items()} for p, row in out.items()}

    def subspace(self) -> Subspace:
        """Canonical RREF subspace of everything added so far."""
        red = self.reduced()
        return Subspace(self.ambient, [red[p] for p in sorted(red)], reduced=True)


def _rref_rows(rows, cols):
    """In-place RREF of a list of rows into sparse rows (zero rows last); returns pivots."""
    sb = SpanBuilder(cols)
    for r in rows:
        sb.add(r)
    red = sb.reduced()
    pivots = sorted(red)
    rows[:] = [red[p] for p in pivots] + [{}] * (len(rows) - len(pivots))
    return pivots


def rref(m: Mat) -> Mat:
    """Reduced row-echelon form (pivot entries 1, zeros above and below)."""
    return rref_pivots(m)[0]


def rref_pivots(m: Mat):
    """(rref matrix, pivot columns)."""
    rows = list(m.nz)
    piv = _rref_rows(rows, m.cols)
    return Mat._of(m.rows, m.cols, rows), piv


def rank(m: Mat) -> int:
    return len(rref_pivots(m)[1])


class Subspace:
    """Linear subspace with a canonical RREF basis (rows of ``basis``)."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, basis_rows, *, reduced=False):
        cap = max_dim()
        if ambient > cap:
            raise DimensionCapError("ambient dimension %d exceeds cap %d" % (ambient, cap))
        if reduced:
            rows = [nonzeros(r) for r in basis_rows]
            pivots = [min(r) if r else None for r in rows]
            pivset = set(pivots)
            # trust-but-verify: pivots strictly increasing, normalized, cleared
            for i, (r, p) in enumerate(zip(rows, pivots)):
                if p is None or r[p] != 1 or (i and pivots[i - 1] >= p):
                    raise ValueError("basis rows are not in reduced echelon form")
                if any(c in pivset for c in r if c != p):
                    raise ValueError("pivot column not cleared in echelon basis")
        else:
            rows = list(basis_rows)
            for r in rows:
                if not isinstance(r, dict) and len(r) != ambient:
                    raise ValueError("basis vector length mismatch")
            pivots = _rref_rows(rows, ambient)
            rows = rows[: len(pivots)]
        self.ambient = ambient
        self.basis = Mat._of(len(rows), ambient, rows)
        self.pivots = tuple(pivots)

    @staticmethod
    def zero(ambient):
        return Subspace(ambient, [])

    @staticmethod
    def full(ambient):
        return Subspace(ambient, Mat.identity(ambient).nz, reduced=True)

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in %d)" % (self.dim, self.ambient)

    def coords(self, v):
        """Coordinates of v (sequence or dict) in the RREF basis, or None if v is outside."""
        resid = nonzeros(v)
        coeffs = [resid.get(p, ZERO) for p in self.pivots]
        for c, row in zip(coeffs, self.basis.nz):
            if c:
                for k, y in row.items():
                    resid[k] = resid.get(k, ZERO) - c * y
        if any(resid.values()):
            return None
        return coeffs

    def coords_of_cols(self, m: Mat):
        """Matrix of the coordinates of m's columns, or None if a column is outside."""
        cols = [self.coords(c) for c in m.transpose().nz]
        return None if None in cols else Mat.from_cols(cols, self.dim)

    def contains(self, v) -> bool:
        return self.coords(v) is not None

    def contains_space(self, other) -> bool:
        return all(self.contains(row) for row in other.basis.nz)


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
        self.add({**coeffs, self.n: rhs} if rhs else coeffs)

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
    for row, t in zip(m.nz, target):
        sys.add({**row, m.cols: t} if t else row)
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
    ker = kernel_of(a.basis.transpose().hstack(-b.basis.transpose()))
    u = ker.basis.submatrix(range(ker.dim), range(a.dim))
    return span_of((u * a.basis).nz, a.ambient)


def quotient_data(sub: Subspace):
    """(projection, section) for ambient -> ambient/sub.

    The quotient keeps the non-pivot coordinates c, listed in increasing
    order as the section tuple, and the projection reads
    x[c] - sum_i b_ic x[p_i] for the basis rows b_i with pivots p_i, so it
    has kernel exactly ``sub`` and is the identity on the section's columns.
    """
    pivset = set(sub.pivots)
    section = tuple(c for c in range(sub.ambient) if c not in pivset)
    where = {c: r for r, c in enumerate(section)}
    proj = [{c: ONE} for c in section]
    for p, brow in zip(sub.pivots, sub.basis.nz):
        for c, b in brow.items():
            if c != p:
                proj[where[c]][p] = -b
    return Mat._of(len(section), sub.ambient, proj), section


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; left factor indexes slowly, right factor fast."""
    bc = b.cols
    out = []
    for arow in a.nz:
        for brow in b.nz:
            row = {}
            for i, x in arow.items():
                base = i * bc
                for j, y in brow.items():
                    row[base + j] = x * y
            out.append(nonzeros(row))
    return Mat._of(a.rows * b.rows, a.cols * bc, out)


def combination(coeffs, mats) -> Mat:
    """sum_i coeffs[i] * mats[i] over the nonzero coefficients, in one integer pass.

    The matrices share one shape, which the result has also when every
    coefficient is zero.  Each output row sums int numerators over one
    denominator, the lcm of the coefficient and row denominators that meet in
    it, and divides once per entry, so an entry is an int exactly when it is
    integral.  A lone coefficient 1 returns its matrix itself.
    """
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    if not terms:
        return Mat.zeros(mats[0].rows, mats[0].cols)
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    scales = [(int(c.numerator), int(c.denominator)) for c in (rat(c) for c, _ in terms)]
    forms = [zip(repeat(1), m.nz) if m.integral else map(int_row, m.nz) for _, m in terms]
    out = []
    integral = True
    for parts in zip(*forms):
        den = lcm(*[q * d for (_, q), (d, _) in zip(scales, parts)])
        acc = {}
        get = acc.get
        for (p, q), (d, row) in zip(scales, parts):
            f = p * (den // (q * d))
            for c, x in row.items():
                acc[c] = get(c, ZERO) + f * x
        if den == 1:
            out.append({c: x for c, x in acc.items() if x})
            continue
        res = {}
        for c, x in acc.items():
            if x:
                if x % den:
                    res[c] = rat(x, den)
                    integral = False
                else:
                    res[c] = x // den
        out.append(res)
    m = terms[0][1]
    return Mat._of(m.rows, m.cols, out, integral)


def span_of(vectors, ambient) -> Subspace:
    """Canonical subspace spanned by the given vectors (sequences or dicts)."""
    sb = SpanBuilder(ambient)
    for v in vectors:
        sb.add(v)
    return sb.subspace()


def image_of(m: Mat) -> Subspace:
    """Column space of m."""
    return span_of(m.transpose().nz, m.rows)


def split(m: Mat, error="matrix is not surjective"):
    """(m+, ker m) for a surjective m: m m+ = I, ker m as its canonical Subspace.

    The one inversion, from one elimination of [m^T | I]: a reduced row
    [e_p | x] says m x = e_p, so x is column p of m+, and the rows [0 | k]
    are the canonical echelon basis of ker m.  Raises ValueError(error) when
    m is not surjective.
    """
    r, n = m.rows, m.cols
    red, piv = rref_pivots(m.transpose().hstack(Mat.identity(n)))
    if piv[:r] != list(range(r)):
        raise ValueError(error)
    rows = [{c - r: x for c, x in row.items() if c >= r} for row in red.nz]
    return Mat._of(r, n, rows[:r]).transpose(), Subspace(n, rows[r:], reduced=True)


def inverse(m: Mat) -> Mat:
    """Inverse of a square invertible matrix."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return split(m, "matrix is singular")[0]


def left_inverse(m: Mat) -> Mat:
    """Left inverse of an injective matrix; raises ValueError when m is not injective."""
    return split(m.transpose(), "matrix is not injective")[0].transpose()


def right_inverse(m: Mat) -> Mat:
    """Right inverse of a surjective matrix; raises ValueError when it is not."""
    return split(m)[0]
