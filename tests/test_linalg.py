"""Exact linear algebra kernel: canonical forms, kernels, affine solving.

Oracles are kept independent of the code paths they check: rank via minor
expansion, membership via explicit coordinate constraints, Kronecker
products elementwise.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import ncjet
from conftest import selection
from ncjet.linalg import (
    AffineSpace,
    AffineSystem,
    Mat,
    SpanBuilder,
    Subspace,
    ZERO,
    ONE,
    combination,
    int_row,
    inverse,
    intersect,
    kernel_of,
    kron,
    left_inverse,
    nonzeros,
    quotient_data,
    rank,
    rat,
    rat_str,
    right_inverse,
    rref,
    rref_pivots,
    solve_affine,
    span_of,
    split,
    vec,
)


# --- oracles -----------------------------------------------------------------

def det_minor_expansion(m: Mat):
    """Determinant by first-row minor expansion; oracle for small matrices."""
    n = m.rows
    if n == 0:
        return ONE
    if n == 1:
        return m.entry(0, 0)
    total = ZERO
    sign = ONE
    for j in range(n):
        a = m.entry(0, j)
        if a:
            minor = m.submatrix(range(1, n), [c for c in range(n) if c != j])
            total += sign * a * det_minor_expansion(minor)
        sign = -sign
    return total


def rank_by_minors(m: Mat):
    """Largest r with a nonvanishing r x r minor (exponential; <= 6x6 only)."""
    from itertools import combinations

    best = 0
    for r in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in combinations(range(m.rows), r):
            for cols in combinations(range(m.cols), r):
                if det_minor_expansion(m.submatrix(rows, cols)):
                    found = True
                    break
            if found:
                break
        if found:
            best = r
    return best


def random_mat(rng, rows, cols, denom=3):
    return Mat(
        rows,
        cols,
        [[rat(rng.randint(-3, 3), rng.randint(1, denom)) for _ in range(cols)] for _ in range(rows)],
    )


# --- rref ---------------------------------------------------------------------

def test_rref_identity_fixed_point():
    m = Mat.identity(3)
    assert rref(m) == m


def test_rref_rank_one_forced():
    m = Mat.from_rows([[2, 4], [1, 2]])
    assert rref(m) == Mat.from_rows([[1, 2], [0, 0]])


def test_rref_preserves_rank_of_random_matrices():
    rng = random.Random(7)
    for _ in range(5):
        m = random_mat(rng, 6, 6)
        red, piv = rref_pivots(m)
        assert len(piv) == rank_by_minors(m)


def test_rref_pivot_columns_are_cleared():
    rng = random.Random(11)
    m = random_mat(rng, 5, 7)
    red, piv = rref_pivots(m)
    for r, p in enumerate(piv):
        col = red.col(p)
        assert col[r] == 1
        assert all(not x for i, x in enumerate(col) if i != r)


# --- kernels --------------------------------------------------------------------

def test_kernel_obvious():
    m = Mat.from_rows([[1, 1], [1, 1]])
    k = kernel_of(m)
    assert k.dim == 1
    assert k.contains(vec([1, -1]))


def test_kernel_of_invertible_is_zero():
    m = Mat.from_rows([[1, 2, 0, 0], [0, 1, 0, 3], [5, 0, 1, 0], [0, 0, 0, 1]])
    assert det_minor_expansion(m) != 0
    assert kernel_of(m).dim == 0


def test_rank_nullity_on_random_matrices():
    rng = random.Random(23)
    for _ in range(8):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_mat(rng, rows, cols)
        assert rank_by_minors(m) + kernel_of(m).dim == cols


def test_kernel_vectors_are_killed():
    rng = random.Random(5)
    m = random_mat(rng, 4, 6)
    for row in kernel_of(m).basis.data:
        assert all(not x for x in m.apply(list(row)))


# --- affine solving ---------------------------------------------------------------

def test_solve_affine_identity():
    t = vec([3, rat(1, 2), -2])
    sol = solve_affine(Mat.identity(3), t)
    assert not sol.empty
    assert sol.particular == t
    assert sol.dim == 0


def test_solve_affine_zero_map():
    sol = solve_affine(Mat.zeros(2, 3), [0, 0])
    assert sol.dim == 3
    assert sol.particular == [ZERO] * 3


def test_solve_affine_underdetermined_by_substitution():
    m = Mat.from_rows([[1, 2, 1], [0, 1, -1]])
    t = vec([4, 1])
    sol = solve_affine(m, t)
    assert sol.dim == 1
    assert m.apply(sol.particular) == t
    for row in sol.direction.basis.data:
        assert all(not x for x in m.apply(list(row)))


def test_solve_affine_inconsistent():
    m = Mat.from_rows([[1, 1], [1, 1]])
    assert solve_affine(m, [0, 1]).empty


def test_solve_affine_deterministic_canonical_representative():
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6]])
    s1 = solve_affine(m, [6, 12])
    s2 = solve_affine(m, [6, 12])
    # free variables zeroed: particular supported on the pivot column only
    assert s1.particular == vec([6, 0, 0])
    assert s1.particular == s2.particular
    assert s1.direction == s2.direction


# --- subspaces ----------------------------------------------------------------------

def membership_constraints(s: Subspace) -> Mat:
    """Oracle: matrix whose kernel is s, from x = B^T (x at pivots), entry by entry."""
    n = s.ambient
    fit = [[sum(s.basis.entry(r, i) for r, p in enumerate(s.pivots) if p == j)
            for j in range(n)] for i in range(n)]
    return Mat(n, n, [[(i == j) - fit[i][j] for j in range(n)] for i in range(n)])


def test_intersect_self():
    rng = random.Random(3)
    s = span_of([random_mat(rng, 1, 5).row(0) for _ in range(3)], 5)
    assert intersect(s, s) == s


def test_intersect_transverse_planes_is_line():
    a = span_of([vec([1, 0, 0]), vec([0, 1, 0])], 3)
    b = span_of([vec([0, 1, 1]), vec([1, 0, 1])], 3)
    inter = intersect(a, b)
    assert inter.dim == 1
    # oracle: kernel of stacked membership constraints
    stacked = membership_constraints(a).vstack(membership_constraints(b))
    assert inter == kernel_of(stacked)


def test_intersect_with_zero():
    a = span_of([vec([1, 2, 3])], 3)
    assert intersect(a, Subspace.zero(3)).dim == 0


def test_intersect_matches_constraint_oracle_randomly():
    rng = random.Random(91)
    for _ in range(5):
        a = span_of([random_mat(rng, 1, 6).row(0) for _ in range(3)], 6)
        b = span_of([random_mat(rng, 1, 6).row(0) for _ in range(4)], 6)
        stacked = membership_constraints(a).vstack(membership_constraints(b))
        assert intersect(a, b) == kernel_of(stacked)


def test_canonical_representation_of_equal_subspaces():
    base = [vec([1, 2, 0]), vec([0, 1, 1])]
    s1 = span_of(base, 3)
    s2 = span_of([vec_combine(base, [2, 3]), vec_combine(base, [1, -1])], 3)
    assert s1 == s2
    assert s1.basis == s2.basis


def vec_combine(rows, coeffs):
    out = [ZERO] * len(rows[0])
    for c, r in zip(coeffs, rows):
        out = [x + rat(c) * y for x, y in zip(out, r)]
    return out


# --- quotients ----------------------------------------------------------------------

def test_quotient_of_zero_subspace_is_identity():
    proj, section = quotient_data(Subspace.zero(4))
    assert proj == Mat.identity(4)
    assert section == (0, 1, 2, 3)


def test_quotient_of_full_space_is_zero():
    proj, section = quotient_data(Subspace.full(3))
    assert proj.rows == 0
    assert section == ()


def test_quotient_identities_on_line_in_q3():
    sub = span_of([vec([1, 2, 3])], 3)
    proj, section = quotient_data(sub)
    assert proj.rows == 2
    assert proj.submatrix(range(proj.rows), section) == Mat.identity(2)
    assert all(not x for x in proj.apply(vec([1, 2, 3])))


def test_quotient_kernel_is_exactly_the_subspace():
    rng = random.Random(17)
    sub = span_of([random_mat(rng, 1, 5).row(0) for _ in range(2)], 5)
    proj, _ = quotient_data(sub)
    assert kernel_of(proj) == sub


# --- kron -----------------------------------------------------------------------------

def test_kron_identities():
    assert kron(Mat.identity(2), Mat.identity(3)) == Mat.identity(6)
    assert kron(Mat.from_rows([[1, 2]]), Mat.zeros(2, 2)).is_zero()


def test_kron_on_pure_tensors_elementwise():
    rng = random.Random(29)
    a = random_mat(rng, 3, 2)
    b = random_mat(rng, 2, 3)
    v = [rat(rng.randint(-2, 2)) for _ in range(2)]
    w = [rat(rng.randint(-2, 2)) for _ in range(3)]
    tensor_in = [x * y for x in v for y in w]
    lhs = kron(a, b).apply(tensor_in)
    av, bw = a.apply(v), b.apply(w)
    rhs = [x * y for x in av for y in bw]
    assert lhs == rhs


# --- linear combinations ----------------------------------------------------------------

def _scale_and_add(coeffs, mats):
    """sum_i coeffs[i] * mats[i] as a chain of scaled copies and sums (the reference)."""
    acc = Mat.zeros(mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats):
        if c:
            acc = acc + m.scale(c)
    return acc


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, rat(1, 2), rat(-2, 3), rat(5, 6)])


@st.composite
def _combinations(draw):
    """(coeffs, mats): all-zero, single-unit or mixed rational coefficients on small matrices."""
    k, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mats = [Mat(rows, cols, [[draw(_entries) for _ in range(cols)] for _ in range(rows)])
            for _ in range(k)]
    kind = draw(st.sampled_from(["zero", "unit", "mixed"]))
    coeffs = [0] * k
    if kind == "unit":
        coeffs[draw(st.integers(0, k - 1))] = 1
    elif kind == "mixed":
        coeffs = [draw(_entries) for _ in range(k)]
    return coeffs, mats


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_combinations())
@example(([0, 0], [Mat.identity(2), Mat.identity(2)]))
@example(([rat(1, 2), rat(1, 2)], [Mat.identity(2), Mat.identity(2)]))
@example(([rat(1, 3), rat(-1, 3)], [Mat.from_rows([[1, rat(1, 2)]]), Mat.from_rows([[1, 2]])]))
def test_combination_matches_scale_and_add(case):
    """One integer pass gives the scale-and-add sum, and an entry is an int exactly when
    it is integral (so 1/2 + 1/2 comes back as the int 1)."""
    coeffs, mats = case
    got = combination(coeffs, mats)
    assert got == _scale_and_add(coeffs, mats)
    assert (got.rows, got.cols) == (mats[0].rows, mats[0].cols)
    for row in got.nz:
        for x in row.values():
            assert x and (type(x) is int) == (Fraction(x).denominator == 1)
    assert got.integral == all(type(x) is int for row in got.nz for x in row.values())


# --- misc helpers -----------------------------------------------------------------------

def test_inverse_round_trip():
    rng = random.Random(31)
    while True:
        m = random_mat(rng, 4, 4)
        if det_minor_expansion(m):
            break
    assert m * inverse(m) == Mat.identity(4)
    with pytest.raises(ValueError, match="singular"):
        inverse(Mat.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="non-square"):
        inverse(Mat.from_rows([[1, 2]]))


def test_one_sided_inverses():
    rng = random.Random(37)
    tall = random_mat(rng, 5, 3)
    while rank(tall) < 3:
        tall = random_mat(rng, 5, 3)
    assert left_inverse(tall) * tall == Mat.identity(3)
    wide = tall.transpose()
    assert wide * right_inverse(wide) == Mat.identity(3)
    # dependent and zero rows ahead of the independent ones are skipped
    padded = Mat.zeros(1, 3).vstack(tall.submatrix([0, 0], range(3))).vstack(tall)
    assert left_inverse(padded) * padded == Mat.identity(3)
    flat = tall.hstack(tall.submatrix(range(5), [1]))
    with pytest.raises(ValueError, match="not injective"):
        left_inverse(flat)
    with pytest.raises(ValueError, match="not surjective"):
        right_inverse(flat.transpose())


@st.composite
def _wide(draw, surjective):
    """An r x n matrix of int or rational entries with zero and repeated columns mixed in.

    A surjective one has r independent columns slotted in among the others;
    in a non-surjective one the last row is a combination of the others.
    """
    r = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.integers(-3, 3), _rats]))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "zero", "repeat"]), max_size=5)):
        if kind == "fresh" or not cols:
            cols.append(draw(st.lists(entry, min_size=r, max_size=r)))
        elif kind == "zero":
            cols.append([0] * r)
        else:
            cols.append(draw(st.sampled_from(cols)))
    if surjective:
        # independent columns, each scaled and slotted in among the others
        for i in range(r):
            col = [0] * r
            col[i] = draw(st.sampled_from([1, -2, rat(3, 2)]))
            for j in range(i):
                col[j] = draw(entry)
            cols.insert(draw(st.integers(0, len(cols))), col)
    else:
        coeffs = [draw(entry) for _ in range(r - 1)]
        cols = [c[:-1] + [sum(a * x for a, x in zip(coeffs, c))] for c in cols or [[0] * r]]
    return Mat.from_cols([vec(c) for c in cols], r)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_wide(surjective=True))
@example(Mat.identity(1))
@example(Mat.from_rows([[0, 2, 2, 0, 4]]))
def test_split_is_a_right_inverse_and_the_kernel(m):
    plus, ker = split(m)
    assert (plus.rows, plus.cols) == (m.cols, m.rows)
    assert m * plus == Mat.identity(m.rows)
    assert ker == kernel_of(m)
    sm = _sym(m)
    assert sm * _sym(plus) == sympy.eye(m.rows)
    null = sm.nullspace()
    assert ker.dim == len(null) == m.cols - m.rows
    if null:
        assert _sym(ker.basis) == sympy.Matrix.hstack(*null).T.rref()[0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_wide(surjective=False))
@example(Mat.zeros(1, 3))
def test_split_refuses_a_map_that_is_not_onto(m):
    assert _sym(m).rank() < m.rows
    with pytest.raises(ValueError, match="not surjective"):
        split(m)


def test_span_builder_matches_dense_span():
    rng = random.Random(41)
    gens = [random_mat(rng, 1, 7).row(0) for _ in range(10)]
    sb = SpanBuilder(7)
    for gv in gens:
        sb.add(gv)
    dense = Subspace(7, gens)
    assert sb.subspace() == dense


# --- sympy oracle --------------------------------------------------------------

_rats = st.builds(rat, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _systems(draw):
    """(m, t, row order): up to 6x7, often rank-deficient or all zero."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["entries", "low-rank", "zero"]))
    if kind == "entries":
        m = Mat(rows, cols, [draw(st.lists(_rats, min_size=cols, max_size=cols))
                             for _ in range(rows)])
    elif kind == "low-rank":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        left = Mat(rows, k, [draw(st.lists(_rats, min_size=k, max_size=k)) for _ in range(rows)])
        right = Mat(k, cols, [draw(st.lists(_rats, min_size=cols, max_size=cols))
                              for _ in range(k)])
        m = left * right
    else:
        m = Mat.zeros(rows, cols)
    t = draw(st.lists(_rats, min_size=rows, max_size=rows))
    return m, vec(t), draw(st.permutations(range(rows)))


def _sym(m: Mat):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(
        int(m.entry(i, j).numerator), int(m.entry(i, j).denominator)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_systems())
@example((Mat.zeros(2, 3), vec([0, 1]), [1, 0]))
@example((Mat.from_rows([[1, 2, 0, -1, 3]]), vec([2]), [0]))
@example((Mat.from_rows([[2], [0], [-1], [4]]), vec([2, 0, -1, 4]), [3, 1, 0, 2]))
@example((Mat.from_rows([[1, 2], [2, 4]]), vec([1, 3]), [1, 0]))
def test_engine_matches_sympy_oracle(system):
    m, t, order = system
    sm = _sym(m)
    assert _sym(rref(m)) == sm.rref()[0]
    r = sm.rank()
    assert rank(m) == r
    assert kernel_of(m).dim == m.cols - r
    sol = solve_affine(m, t)
    aug = sm.row_join(sympy.Matrix([sympy.Rational(int(x.numerator), int(x.denominator))
                                    for x in t]))
    assert sol.empty == (aug.rank() != r)
    if not sol.empty:
        assert m.apply(sol.particular) == t
        assert sol.direction.dim == m.cols - r
        assert all(sm * _sym(Mat(m.cols, 1, [[x] for x in v])) == sympy.zeros(m.rows, 1)
                   for v in sol.direction.basis.data)
    if m.rows == m.cols and r == m.rows:
        assert _sym(inverse(m)) == sm.inv()
    # the same rows, fed sparsely in another order, give the same canonical answer
    sys = AffineSystem(m.cols)
    for i in order:
        sys.add_row(dict(enumerate(m.row(i))), t[i])
    shuffled = sys.solve()
    assert shuffled.empty == sol.empty
    if not sol.empty:
        assert shuffled.particular == sol.particular
        assert shuffled.direction == sol.direction


def test_rat_str_round_trip():
    assert rat_str(rat(3, 6)) == "1/2"
    assert rat_str(rat(-8, 2)) == "-4"
    assert rat(rat_str(rat(22, 7))) == rat(22, 7)


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("NCJET_MAX_DIM", "8")
    with pytest.raises(ValueError):
        Mat.zeros(9, 2)
    monkeypatch.delenv("NCJET_MAX_DIM")
    Mat.zeros(9, 2)


# --- sparse storage ----------------------------------------------------------------

_mixed = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _sparse_mats(draw, rows, cols):
    """rows x cols, about a third nonzero, entries a mix of int and Fraction."""
    return Mat(rows, cols, [[draw(_mixed) if draw(st.integers(0, 2)) == 0 else 0
                             for _ in range(cols)] for _ in range(rows)])


def _q(x):
    return sympy.Rational(int(x.numerator), int(x.denominator))


def _int_first(m: Mat):
    """Every stored entry is nonzero, and an int exactly when it is integral."""
    return all(x and (type(x) is int or x.denominator != 1)
               for row in m.nz for x in row.values())


def _honest(m: Mat):
    """The integrality a kernel set at birth (if any) is the truth about the entries."""
    known = m._integral
    return known is None or known == all(type(x) is int for row in m.nz for x in row.values())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_sparse_mat_matches_sympy(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, a2 = data.draw(_sparse_mats(r, k)), data.draw(_sparse_mats(r, k))
    b = data.draw(_sparse_mats(k, c))
    sa, sa2, sb = _sym(a), _sym(a2), _sym(b)
    v = data.draw(st.lists(_mixed, min_size=k, max_size=k))
    coef = data.draw(_mixed)
    rows = data.draw(st.lists(st.integers(0, max(r - 1, 0)), max_size=r))
    cols = data.draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=k))
    # small int factors, so that entries of their product often cancel to zero
    ia, ib = (Mat(n, m, [[data.draw(st.integers(-1, 1)) for _ in range(m)] for _ in range(n)])
              for n, m in ((r, k), (k, c)))
    results = {
        "apply": (Mat(r, 1, [[x] for x in a.apply(v)]), sa * sympy.Matrix(k, 1, [_q(x) for x in v])),
        "mul": (a * b, sa * sb),
        "mul ints": (ia * ib, _sym(ia) * _sym(ib)),
        "kron": (kron(a, b), sympy.Matrix(r * k, k * c, lambda i, j: sa[i // k, j // c]
                                          * sb[i % k, j % c])),
        "transpose": (a.transpose(), sa.T),
        "hstack": (a.hstack(a2), sa.row_join(sa2)),
        "vstack": (a.vstack(a2), sa.col_join(sa2)),
        "submatrix": (a.submatrix(rows, cols), sa.extract(rows, cols)),
        "add": (a + a2, sa + sa2),
        "sub": (a - a2, sa - sa2),
        "scale": (a.scale(coef), sa * _q(coef)),
    }
    for name, (got, want) in results.items():
        assert _sym(got) == want, name
        assert _int_first(got), name
        assert _honest(got), name
    assert a.is_zero() == sa.is_zero_matrix
    assert (a - a).is_zero() and (a - a) == Mat.zeros(r, k)
    # dense views round-trip through the constructor, as do the sparse rows
    assert Mat(r, k, a.data) == a == Mat(r, k, a.nz)
    assert [a.row(i) for i in range(r)] == [list(row) for row in a.data]
    assert [a.col(j) for j in range(k)] == [list(col) for col in a.transpose().data]


def test_submatrix_repeats_an_index():
    m = Mat.from_rows([[1, 2], [3, 4]])
    rep = m.submatrix([0, 1], [0, 0])
    assert (rep.rows, rep.cols) == (2, 2)
    assert rep.data == ((1, 1), (3, 3))
    assert m.submatrix([1, 1, 0], [1, 0, 1]).data == ((4, 3, 4), (4, 3, 4), (2, 1, 2))
    assert _sym(m.submatrix([1, 0], [1, 1, 0])) == _sym(m).extract([1, 0], [1, 1, 0])


def test_int_and_fraction_entries_are_one_matrix():
    three = Mat(2, 2, [[3, 0], [0, Fraction(-6, 2)]])
    frac = Mat(2, 2, [[Fraction(3), 0], [Fraction(0), Fraction(-3)]])
    assert three == frac and hash(three) == hash(frac)
    assert three == Mat(2, 2, [{0: 3}, {1: -3}])
    assert all(type(x) is int for row in frac.nz for x in row.values())
    assert {three: "key"}[frac] == "key"


def test_floats_are_refused():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        Mat(1, 1, [[0.5]])
    with pytest.raises(TypeError):
        Mat.identity(2).scale(0.5)


# --- exactness: integer input never divides into a float -----------------------------

def _scalars(obj):
    """Every scalar inside nested matrices, subspaces, solution sets and containers."""
    if isinstance(obj, Mat):
        for row in obj.nz:
            yield from row.values()
    elif isinstance(obj, Subspace):
        yield from _scalars(obj.basis)
    elif isinstance(obj, AffineSpace):
        if not obj.empty:
            yield from _scalars(obj.particular)
            yield from _scalars(obj.direction)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _scalars(x)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _scalars(x)
    else:
        yield obj


def test_integer_input_never_yields_a_float():
    rng = random.Random(43)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        m = Mat(rows, cols, dense)
        sb = SpanBuilder(cols)
        for row in dense:
            sb.add(row)
        outs = [sb.reduced(), sb.subspace(), rref(m), kernel_of(m),
                solve_affine(m, [rng.randint(-3, 3) for _ in range(rows)])]
        if rows == cols and rank(m) == rows:
            outs.append(inverse(m))
        assert not any(type(x) is float for x in _scalars(sb.rows))
        for x in _scalars(outs):
            assert type(x) is int or (type(x) is type(rat(1, 2)) and x.denominator != 1), x


# --- structured quotients ---------------------------------------------------------

@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_quotient_is_a_selection_and_a_projection(data):
    n = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.lists(_mixed, min_size=n, max_size=n), max_size=4))
    sub = span_of(gens, n)
    proj, section = quotient_data(sub)
    assert proj.rows == n - sub.dim
    assert proj.submatrix(range(proj.rows), section) == Mat.identity(proj.rows)
    assert kernel_of(proj) == sub
    # the section lists the non-pivot coordinates in increasing order
    assert list(section) == sorted(set(range(n)) - set(sub.pivots))


def test_mpq_backend_imports_and_stays_integer_first(tmp_path):
    """With gmpy2 installed, mpq is the rational type; a stand-in module drives that path.

    Like gmpy2's, the stand-in's numerator and denominator are mpz, not int,
    and arithmetic on an mpz stays mpz.
    """
    (tmp_path / "gmpy2.py").write_text(textwrap.dedent("""
        from fractions import Fraction


        class mpz(int):
            pass


        def _stays_mpz(op):
            def wrapped(*args):
                out = op(*args)
                return out if out is NotImplemented else mpz(out)
            return wrapped


        for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "floordiv", "rfloordiv",
                      "mod", "rmod", "neg"):
            setattr(mpz, "__%s__" % _name, _stays_mpz(getattr(int, "__%s__" % _name)))


        class mpq(Fraction):
            numerator = property(lambda self: mpz(self._numerator))
            denominator = property(lambda self: mpz(self._denominator))
    """))
    check = textwrap.dedent("""
        from fractions import Fraction
        from ncjet.algebra import TensorSpace
        from ncjet.linalg import Mat, int_row, inverse, quotient_data, rat, rat_str, span_of
        half = rat(1, 2)
        assert type(half).__name__ == "mpq" and half == Fraction(1, 2)
        assert type(rat(Fraction(3, 4))).__name__ == "mpq"
        for x in (rat(4, 2), rat("6/3"), rat(Fraction(-9, 3)), rat(7)):
            assert type(x) is int, x
        assert [rat_str(x) for x in (half, rat(-3), rat(Fraction(-9, 6)))] == ["1/2", "-3", "-3/2"]
        inv = inverse(Mat.from_rows([[2, 1], [1, 1]]))
        assert inv == Mat.from_rows([[1, -1], [-1, 2]])
        assert all(type(x) is int for row in inv.nz for x in row.values())
        s = span_of([[2, 1, 0], [4, 0, 1]], 3)
        assert s.basis.data == ((1, 0, rat(1, 4)), (0, 1, rat(-1, 2)))
        # fraction-free product and projection: the integer forms hold Python ints only
        prod = s.basis * s.basis.transpose()
        assert prod.data == ((rat(17, 16), rat(-1, 8)), (rat(-1, 8), rat(5, 4)))
        assert type(prod.entry(0, 0)).__name__ == "mpq"
        for m in (s.basis, s.basis.transpose()):
            for d, row in map(int_row, m.nz):
                assert type(d) is int and all(type(x) is int for x in row.values()), (d, row)
        sub = span_of([[1, 0, 0, rat(1, 2)], [0, 3, 1, 0]], 4)
        proj, section = quotient_data(sub)
        ts = TensorSpace(2, 2, proj, section)
        got = ts.class_of([1, rat(2, 3)], [3, 1])
        assert got == proj.apply([3, 1, 2, rat(2, 3)]) == [rat(5, 3), rat(-5, 6)], got
        assert all(type(x) is int for x in ts.pden)
        assert all(type(x) is int for col in ts.pcols for x in col.values())
        print("mpq ok")
    """)
    src = Path(ncjet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "mpq ok\n"


# --- fraction-free products and projections ----------------------------------------

_ratl = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _rational_mats(draw, rows, cols):
    """rows x cols, every row with at least one non-integral entry (cols >= 1)."""
    dense = [[draw(_ratl) if draw(st.booleans()) else 0 for _ in range(cols)]
             for _ in range(rows)]
    for row in dense:
        row[draw(st.integers(0, cols - 1))] = Fraction(draw(st.integers(-7, 7)) * 2 + 1,
                                                       draw(st.sampled_from((2, 4, 6))))
    return Mat(rows, cols, dense)


def _kinds_ok(m: Mat, want):
    """m equals the sympy matrix want, with ints exactly where the entry is integral."""
    return _sym(m) == want and _int_first(m) and _honest(m)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_rational_products_match_sympy(data):
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = data.draw(_rational_mats(r, k)), data.draw(_rational_mats(k, c))
    assert not a.integral and not b.integral
    ints = Mat(k, c, [[data.draw(st.integers(-3, 3)) for _ in range(c)] for _ in range(k)])
    sa, sb = _sym(a), _sym(b)
    assert _kinds_ok(a * b, sa * sb)
    assert _kinds_ok(a * ints, sa * _sym(ints))
    assert _kinds_ok(ints.transpose() * a.transpose(), _sym(ints).T * sa.T)
    # entries that cancel to integers come out as ints
    if r == k and rank(a) == r:
        for prod in (a * inverse(a), inverse(a) * a):
            assert prod == Mat.identity(r) and prod.integral
            assert all(type(x) is int for row in prod.nz for x in row.values())
    # the integer form of a row is ints over a positive denominator and reads back as the row
    for m in (a, b):
        form = [int_row(row) for row in m.nz]
        assert all(type(d) is int and d > 0 and all(type(x) is int for x in row.values())
                   for d, row in form)
        assert Mat(m.rows, m.cols, [{j: rat(x, d) for j, x in row.items()}
                                    for d, row in form]) == m


def test_rational_product_cancels_to_ints():
    half_third = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 0]])
    col = Mat.from_rows([[Fraction(1, 2), Fraction(1, 4)], [Fraction(9, 4), Fraction(3, 4)]])
    prod = half_third * col
    assert prod.data == (
        (1, Fraction(3, 8)), (Fraction(1, 4), Fraction(1, 8)))
    assert type(prod.entry(0, 0)) is int
    assert prod.integral is False
    assert (half_third.scale(2) * Mat.from_rows([[3], [6]])).data == ((7,), (3,))


def test_kernels_mark_integral_matrices_honestly():
    rng = random.Random(7)
    ints = Mat(3, 3, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    ratl = random_mat(rng, 3, 3, denom=4)
    sub = span_of([[1, 2, Fraction(1, 3)]], 3)
    proj, section = quotient_data(sub)
    # identity, zeros and every product know their integrality at birth
    for m in (Mat.identity(3), Mat.zeros(2, 3), ints * ints, ratl * inverse(ratl)):
        assert m._integral is True, m
        assert all(type(x) is int for row in m.nz for x in row.values())
    for m in (ratl * ints, ints * ratl, proj * ratl):
        assert m._integral is not None and _honest(m), m
    # the other kernels leave it to one scan on first read
    for m in (proj, ratl, kron(ints, ints), kron(ratl, ints), ints.transpose(), ratl.transpose(),
              ints.hstack(ints), ratl.hstack(ints), ints.vstack(ints),
              ints.submatrix([0, 2], [1, 1]), -ints, ints + ints, ints.scale(3),
              proj.submatrix(range(proj.rows), section)):
        assert _honest(m)
        assert m.integral == all(type(x) is int for row in m.nz for x in row.values())


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_projection_and_class_of_match_proj_apply(data):
    from ncjet.algebra import TensorSpace

    dl, dr = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n = dl * dr
    gens = data.draw(st.lists(st.lists(_ratl, min_size=n, max_size=n), max_size=n))
    sub = span_of(gens, n)
    proj, section = quotient_data(sub)
    ts = TensorSpace(dl, dr, proj, section)
    x = data.draw(st.lists(_mixed, min_size=dl, max_size=dl))
    y = data.draw(st.lists(_mixed, min_size=dr, max_size=dr))
    plain = [xi * yj for xi in x for yj in y]
    other = data.draw(st.lists(_mixed, min_size=n, max_size=n))

    def gathered(v):
        return ts.gather([int_row(nonzeros(v))]).col(0)

    for got, v in ((ts.class_of(x, y), plain), (gathered(plain), plain), (gathered(other), other)):
        assert got == proj.apply(v)
        assert all(type(e) is int or e.denominator != 1 for e in got)
    assert gathered([0] * n) == [0] * ts.dim


@st.composite
def _quotients(draw):
    """A TensorSpace over a random subspace of rational vectors."""
    from ncjet.algebra import TensorSpace

    dl, dr = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = dl * dr
    sub = span_of(draw(st.lists(st.lists(_ratl, min_size=n, max_size=n), max_size=n)), n)
    proj, section = quotient_data(sub)
    return TensorSpace(dl, dr, proj, section)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_kron_between_matches_proj_kron_sec(data):
    src, dst = data.draw(_quotients()), data.draw(_quotients())
    f = data.draw(_sparse_mats(dst.left_dim, src.left_dim))
    g = data.draw(_sparse_mats(dst.right_dim, src.right_dim))
    got = dst.kron_between(f, g, src)
    assert got == dst.proj * (kron(f, g) * selection(src))
    assert _int_first(got) and _honest(got)
    with pytest.raises(ValueError, match="shapes"):
        dst.kron_between(f, g.vstack(g), src)
