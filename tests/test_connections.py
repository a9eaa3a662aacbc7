"""Connections: solvers, torsion/curvature, higher order, jet correspondence."""

import copy
import itertools

import pytest

import ncjet.connections
from cayley import cayley_spec, cyclic_group, direct_product, group_spec
from conftest import QUAT_FORM_SHEARS, _shears, selection
from ncjet.linalg import (AffineSystem, DimensionCapError, Mat, ONE, ZERO, image_of, kron, rat,
                          vec)
from ncjet.algebra import (Bimodule, add_intertwining_rows, mat_from_flat, matrix_rows,
                           solve_module_maps)
from ncjet.calculus import CalculusError
from ncjet.connections import (
    BimoduleConnection,
    Connection,
    InvalidConnection,
    associated_connection,
    bimodule_connection_from_vector,
    canonical_bimodule_connection,
    covariant_exterior,
    covariant_exterior_of_section,
    curvature,
    higher_connection_from_split,
    higher_curvature,
    higher_from_jet_connection,
    jet_connection_from_sym,
    metric_compatibility,
    one_connection,
    solve_bimodule_connections,
    solve_connections,
    sym_connection_from_jet,
    tensor_connection,
    torsion,
)
from ncjet import fixtures
from ncjet.fixtures import (
    base_connection,
    braided_connection,
    frame_parallel_bimodule_connection,
    frame_vectors,
    quantization_of,
    quaternion_metric,
)
from ncjet.jets import delta_contraction, jet_module, spencer_operator, sym_module, twist_mats
from ncjet.specio import parse_calculus_spec


def frame_form(calc, t):
    v = [ZERO] * calc.omega1.dim
    v[t * calc.algebra.dim] = rat(1)
    return v


# --- the affine space of left connections ----------------------------------------------

def test_connections_on_free_rank_one_module(quat):
    sol = solve_connections(quat, quat.base_module())
    assert not sol.empty
    assert sol.dim == 8  # determined by the value on the unit


def test_connections_on_zero_module(quat):
    alg = quat.algebra
    zero = Bimodule(alg, 0, [Mat.zeros(0, 0)] * 4, [Mat.zeros(0, 0)] * 4, "0")
    sol = solve_connections(quat, zero)
    assert not sol.empty and sol.dim == 0


def test_difference_of_connections_is_module_linear(quat):
    calc = quat
    sol = solve_connections(calc, quat.base_module())
    fm, _ = calc.form_module(1, quat.base_module())
    linear = solve_module_maps(quat.base_module(), fm, "left")
    assert sol.direction.dim == linear.direction.dim
    for row in sol.direction.basis.data:
        gamma = mat_from_flat(list(row), fm.dim, quat.base_module().dim)
        for a in range(4):
            assert gamma * quat.base_module().left[a] == fm.left[a] * gamma


# --- braided connections ------------------------------------------------------------------

def test_bimodule_family_contains_frame_parallel_point(quat):
    calc = quat
    sol = solve_bimodule_connections(calc)
    bc = braided_connection(quat)
    flat = [x for row in bc.base.mat.data for x in row] + [
        x for row in bc.sigma.data for x in row
    ]
    diff = [a - b for a, b in zip(flat, sol.particular)]
    assert sol.direction.contains(diff)


def test_frame_parallel_connection_is_unique_and_flips(quat):
    calc = quat
    bc = frame_parallel_bimodule_connection(calc)
    om11, ts = calc.form_module(1, calc.omega1)
    di, dj = frame_form(calc, 0), frame_form(calc, 1)
    assert all(not x for x in bc.base.mat.apply(di))
    assert all(not x for x in bc.base.mat.apply(dj))
    for w, v in itertools.product((di, dj), repeat=2):
        assert bc.sigma.apply(ts.class_of(w, v)) == [-x for x in ts.class_of(v, w)]


def test_braiding_satisfies_defect_formula(quat):
    # sigma(theta (x) dm) = dm (x) theta + nabla[theta, m] - [nabla theta, m]
    calc = quat
    bc = braided_connection(quat)
    om1 = calc.omega1
    om11, ts = calc.form_module(1, calc.omega1)
    alg = calc.algebra
    for t in range(8):
        theta = [ZERO] * 8
        theta[t] = rat(1)
        for m in range(4):
            mv = alg.basis_vector(m)
            dm = calc.d_of_basis(m)
            bracket = [
                x - y for x, y in zip(om1.right_mult(mv).apply(theta), om1.act_left(mv, theta))
            ]
            nab_bracket = bc.base.mat.apply(bracket)
            ntheta = bc.base.mat.apply(theta)
            nbracket2 = [
                x - y for x, y in zip(om11.right_mult(mv).apply(ntheta), om11.act_left(mv, ntheta))
            ]
            rhs = [
                a + b - c
                for a, b, c in zip(ts.class_of(dm, theta), nab_bracket, nbracket2)
            ]
            lhs = bc.sigma.apply(ts.class_of(theta, dm))
            assert lhs == rhs


def test_every_solution_revalidates(quat):
    # a couple of points of the affine family re-validate as braided pairs
    calc = quat
    sol = solve_bimodule_connections(calc)
    bimodule_connection_from_vector(calc, sol.particular)  # validates on build
    shifted = [
        a + b for a, b in zip(sol.particular, sol.direction.basis.data[0])
    ]
    bimodule_connection_from_vector(calc, shifted)


def test_two_point_universal_has_braided_connections(two_point):
    sol = solve_bimodule_connections(two_point)
    assert not sol.empty
    bimodule_connection_from_vector(two_point, sol.particular)


# --- refusals: each law names the basis elements where it fails ----------------------------

def test_connection_with_a_moved_entry_names_the_first_leibniz_failure(quat):
    conn, alg = base_connection(quat), quat.algebra
    rows = [list(row) for row in conn.mat.data]
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    rows[i][(j + 1) % conn.mat.cols], rows[i][j] = rows[i][j], ZERO
    moved = Mat(conn.mat.rows, conn.mat.cols, rows)
    fm, twist = conn.form_module, twist_mats(quat, conn.module)
    want = [alg.basis_names[a] for a in range(alg.dim)
            if moved * conn.module.left[a] != fm.left[a] * moved + twist[a]]
    assert want
    with pytest.raises(InvalidConnection, match="^Leibniz rule fails: at basis element %s$" % want[0]):
        Connection(quat, conn.module, moved)


def test_negated_braiding_fails_right_leibniz_only(quat):
    """The braided pair with -sigma, as `demo --corrupt` builds it."""
    bc, alg = braided_connection(quat), quat.algebra
    om1, (om11, _) = quat.omega1, quat.form_module(1, quat.omega1)
    d_right = twist_mats(quat, quat.omega1, right=True)
    want = ["right Leibniz fails at %s" % alg.basis_names[a] for a in range(alg.dim)
            if bc.base.mat * om1.right[a] != om11.right[a] * bc.base.mat - bc.sigma * d_right[a]]
    assert want
    assert BimoduleConnection(quat, bc.base, -bc.sigma, check=False).violations() == want
    with pytest.raises(InvalidConnection, match="^bimodule connection fails: %s$" % want[0]):
        BimoduleConnection(quat, bc.base, -bc.sigma)


def test_section_off_the_module_maps_is_refused(quat):
    from ncjet.connections import HigherConnection

    hc = one_connection(quat, base_connection(quat))
    jet = hc.jet
    bump = Mat(jet.sym.dim, jet.lower.dim, [{0: ONE}] + [{}] * (jet.sym.dim - 1))
    bad = hc.section + jet.iota * bump  # still a section: pi iota = 0
    assert jet.pi * bad == Mat.identity(jet.lower.dim)
    assert any(bad * jet.lower.mod.left[a] != jet.mod.left[a] * bad
               for a in range(quat.algebra.dim))
    with pytest.raises(InvalidConnection, match="^section is not module-linear$"):
        HigherConnection(quat, jet, bad)


# --- the reduction to generators ----------------------------------------------------------

def same_affine(a, b):
    return (a.empty, a.particular, a.direction) == (b.empty, b.particular, b.direction)


def test_connection_solvers_match_every_basis_element(oracle_calc, every_basis_element):
    calc = oracle_calc
    modules = [calc.base_module(), calc.omega1, calc.omega[2]]
    got = [solve_connections(calc, m) for m in modules] + [solve_bimodule_connections(calc)]
    with every_basis_element(calc.algebra):
        # the kept family would answer from the memo: solve it again
        want = [solve_connections(calc, m) for m in modules] + [
            ncjet.connections._solve_bimodule_connections(calc)]
    assert all(same_affine(g, w) for g, w in zip(got, want))
    assert not got[-1].empty


def bimodule_connection_system(calc):
    """Reference: the joint linear system for (connection, braiding) pairs on the one-forms.

    Unknowns are the connection entries followed by the braiding entries;
    rows impose the left Leibniz rule, the right Leibniz rule through the
    braiding, and right linearity of the braiding, each on the generators of
    A.  The engine solves over the connection alone and reads the braiding
    off it; this system solves for both.
    """
    om1 = calc.omega1
    om11, _ = calc.form_module(1, calc.omega1)
    twist = twist_mats(calc, om1)
    d_right = twist_mats(calc, calc.omega1, right=True)
    o1, qq = om1.dim, om11.dim
    n_nabla = qq * o1
    sys = AffineSystem(n_nabla + qq * qq)
    alg = calc.algebra

    def nab(i, j):
        return i * o1 + j

    def sig(i, j):
        return n_nabla + i * qq + j

    def add(coeffs, key, v):
        coeffs[key] = coeffs.get(key, ZERO) + v

    add_intertwining_rows(sys, alg, om1.left, om11.left, twist)
    for a in alg.generators:
        # right Leibniz: nabla R_a - R_a nabla - sigma D_a = 0
        r_src = om1.right[a].transpose().nz
        r_tgt = om11.right[a].nz
        d_a = d_right[a].transpose().nz
        for i in range(qq):
            for j in range(o1):
                coeffs = {}
                for k, v in r_src[j].items():
                    add(coeffs, nab(i, k), v)
                for k, v in r_tgt[i].items():
                    add(coeffs, nab(k, j), -v)
                for k, v in d_a[j].items():
                    add(coeffs, sig(i, k), -v)
                sys.add_row(coeffs)
        # braiding linearity on the right; left linearity follows from left Leibniz
        r_cols = om11.right[a].transpose().nz
        for i in range(qq):
            for j in range(qq):
                coeffs = {}
                for k, v in r_cols[j].items():
                    add(coeffs, sig(i, k), v)
                for k, v in r_tgt[i].items():
                    add(coeffs, sig(k, j), -v)
                if coeffs:
                    sys.add_row(coeffs)
    return sys


def test_braided_solver_matches_joint_system(braided_calc):
    """The connection-only solve gives the joint system's canonical direction and point."""
    got = solve_bimodule_connections(braided_calc)
    assert not got.empty
    assert same_affine(got, bimodule_connection_system(braided_calc).solve())


def test_braiding_rows_are_expanded_only_for_the_solve(monkeypatch):
    """The quantization reads the braiding's sigma terms; only the solve expands its rows."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return matrix_rows(*args, **kwargs)

    monkeypatch.setattr(ncjet.connections, "matrix_rows", spy)
    calc = parse_calculus_spec(cayley_spec(4, [1, 3]))
    quantization_of(calc)
    assert calls == []
    assert solve_bimodule_connections(calc).dim == 32
    assert len(calls) == 1


@pytest.fixture(scope="module", params=["quat", "sheared_quat", "cayley_z4"])
def framed_calc(request, quat):
    """(calculus, coordinate vectors of a left frame of its one-forms)."""
    calc = request.getfixturevalue(request.param)
    if request.param != "sheared_quat":
        return calc, frame_vectors(calc)
    # the quaternion frame in the sheared one-form basis: new coordinates are Q^-1 old
    _, q_inv = _shears(calc.omega1.dim, QUAT_FORM_SHEARS)
    return calc, [vec(Mat.from_rows(q_inv).apply(v)) for v in frame_vectors(quat)]


def test_frame_parallel_connection_matches_pinned_joint_system(framed_calc, monkeypatch):
    calc, frame = framed_calc
    o1, qq = calc.omega1.dim, calc.form_module(1, calc.omega1)[0].dim
    sys = bimodule_connection_system(calc)
    for fv in frame:
        for i in range(qq):
            sys.add_row({i * o1 + j: v for j, v in enumerate(fv) if v})
    want = sys.solve()
    assert want.dim == 0
    monkeypatch.setattr(fixtures, "frame_vectors", lambda _: frame)
    bc = fixtures.frame_parallel_bimodule_connection(calc)
    assert [x for m in (bc.base.mat, bc.sigma) for row in m.data for x in row] == want.particular


def test_frame_parallel_connection_on_z5_x_z5_at_the_default_cap(monkeypatch):
    """Built in closed form where the braided solve, 100 x 50 connection unknowns, is refused."""
    monkeypatch.delenv("NCJET_MAX_DIM", raising=False)
    z5 = cyclic_group(5)
    calc = parse_calculus_spec(group_spec(direct_product(z5, z5), [5, 1], max_degree=1))
    with pytest.raises(DimensionCapError, match="^ambient dimension 5000 exceeds cap 4096$"):
        solve_bimodule_connections(calc)
    bc = frame_parallel_bimodule_connection(calc)
    for theta in frame_vectors(calc):
        assert not any(bc.base.mat.apply(theta))


def solve_with_two_sided_braiding(calc):
    """Reference solve: the joint system with two-sided linearity of the braiding.

    The joint system imposes right linearity only, since left linearity
    follows; this reference imposes sigma M_a = M_a sigma for the left and
    the right action of every generator.
    """
    sys = bimodule_connection_system(calc)
    om11, _ = calc.form_module(1, calc.omega1)
    qq, n_nabla = om11.dim, om11.dim * calc.omega1.dim
    for a, mats in itertools.product(calc.algebra.generators, (om11.left, om11.right)):
        m = mats[a].data
        for i, j in itertools.product(range(qq), repeat=2):
            coeffs = {}
            for k in range(qq):
                for col, v in ((n_nabla + i * qq + k, m[k][j]), (n_nabla + k * qq + j, -m[i][k])):
                    coeffs[col] = coeffs.get(col, ZERO) + v
            sys.add_row(coeffs)
    return sys.solve()


def check_against_two_sided_braiding(calc):
    got = solve_bimodule_connections(calc)
    assert not got.empty
    assert same_affine(got, solve_with_two_sided_braiding(calc))


def test_braided_system_matches_two_sided_braiding_rows(oracle_calc):
    check_against_two_sided_braiding(oracle_calc)


def test_braided_system_matches_two_sided_braiding_rows_on_s3(s3):
    check_against_two_sided_braiding(s3)


# --- torsion, metric, curvature --------------------------------------------------------------

def test_torsion_of_frame_parallel_connection_vanishes(quat):
    assert torsion(quat, braided_connection(quat).base).is_zero()


def test_torsion_shifts_by_wedge_of_difference(quat):
    calc = quat
    bc = braided_connection(quat)
    om11, ts = calc.form_module(1, calc.omega1)
    # gamma: module-linear perturbation supported on the frame
    sol = solve_module_maps(calc.omega1, om11, "left")
    gamma = mat_from_flat(
        [a + b for a, b in zip(sol.particular, sol.direction.basis.data[0])],
        om11.dim, calc.omega1.dim,
    )
    perturbed = Connection(calc, calc.omega1, bc.base.mat + gamma)
    w = calc.wedge_map(1, 1)
    assert torsion(calc, perturbed) - torsion(calc, bc.base) == w * gamma


def test_metric_is_parallel(quat):
    calc = quat
    g = quaternion_metric(calc)
    assert all(not x for x in metric_compatibility(calc, braided_connection(quat), g))


def test_metric_compat_of_zero_tensor(quat):
    calc = quat
    out = metric_compatibility(calc, braided_connection(quat), [ZERO] * 16)
    assert all(not x for x in out)


def test_curvature_of_grassmann_connection_vanishes(quat):
    assert curvature(quat, braided_connection(quat).base).is_zero()


def test_curvature_detects_nonflat_perturbation(quat):
    calc = quat
    bc = braided_connection(quat)
    om11, ts = calc.form_module(1, calc.omega1)
    di = frame_form(calc, 0)
    k = calc.algebra.basis_vector(3)
    # gamma(q d theta) = q * delta_{theta,di} * (k di (x) di)
    kdidi = ts.class_of(calc.omega1.act_left(k, di), di)
    cols = []
    for t in range(2):
        for qb in range(4):
            qv = calc.algebra.basis_vector(qb)
            cols.append(om11.act_left(qv, kdidi) if t == 0 else [ZERO] * om11.dim)
    gamma = Mat.from_rows(cols, om11.dim).transpose()
    perturbed = Connection(calc, calc.omega1, bc.base.mat + gamma)
    assert not curvature(calc, perturbed).is_zero()


# --- covariant exterior derivative --------------------------------------------------------------

def test_canonical_pair_is_kept_next_to_its_family(quat, two_point):
    # Read off the family's canonical point once per calculus; an unframed
    # calculus's braided connection is that pair.
    for calc in (quat, two_point):
        bc = canonical_bimodule_connection(calc)
        assert canonical_bimodule_connection(calc) is bc
        flat = [x for m in (bc.base.mat, bc.sigma) for row in m.data for x in row]
        assert flat == list(solve_bimodule_connections(calc).particular)
    assert braided_connection(two_point) is canonical_bimodule_connection(two_point)


def test_tensor_connection_is_kept_on_values_and_misses_another_braiding():
    """A braided pair rebuilt from the same vector reads the kept connection.  The
    negated braiding of `demo --corrupt` misses: its tensor connection is refused on
    every call, and the clean pair's entry is untouched."""
    from ncjet.calculus import quaternion_calculus

    calc = quaternion_calculus()
    sol = solve_bimodule_connections(calc)
    assert solve_bimodule_connections(calc) is sol
    bc, again = (bimodule_connection_from_vector(calc, sol.particular) for _ in range(2))
    assert again is not bc
    assert tensor_connection(calc, again, again.base) is tensor_connection(calc, bc, bc.base)
    assert covariant_exterior(calc, again.base, 1) is covariant_exterior(calc, bc.base, 1)
    fp = frame_parallel_bimodule_connection(calc)
    kept = tensor_connection(calc, fp, fp.base)
    neg = BimoduleConnection(calc, fp.base, -fp.sigma, check=False)
    for _ in range(2):
        with pytest.raises(CalculusError, match="^tensor connection is not well-defined"):
            tensor_connection(calc, neg, neg.base)
    assert tensor_connection(calc, fp, fp.base) is kept


def test_covariant_exterior_degree_zero_is_connection(quat):
    conn = base_connection(quat)
    assert covariant_exterior(quat, conn, 0) == conn.mat


def test_covariant_exterior_squares_to_wedge_curvature(quat):
    # d^2(w (x) e) = w ^ R(e) on the one-forms with the braided connection
    calc = quat
    conn = braided_connection(quat).base
    d0 = covariant_exterior(calc, conn, 0)
    d1 = covariant_exterior(calc, conn, 1)
    r = curvature(calc, conn)
    # here R = 0, so the square must vanish
    assert r.is_zero()
    assert (d1 * d0).is_zero()


def test_covariant_exterior_on_parallel_sections(quat):
    calc = quat
    conn = braided_connection(quat).base
    _, ts1 = calc.form_module(1, calc.omega1)
    _, ts2 = calc.form_module(2, calc.omega1)
    d1 = covariant_exterior(calc, conn, 1)
    di, dj = frame_form(calc, 0), frame_form(calc, 1)
    for w, e in itertools.product((di, dj), repeat=2):
        # e parallel: d(w (x) e) = dw (x) e
        got = d1.apply(ts1.class_of(w, e))
        expect = ts2.class_of(calc.d[1].apply(w), e)
        assert got == expect


def test_square_of_covariant_exterior_is_wedge_with_curvature(quat):
    # generic statement on a connection with curvature
    calc = quat
    bc = braided_connection(quat)
    om11, ts = calc.form_module(1, calc.omega1)
    di = frame_form(calc, 0)
    k = calc.algebra.basis_vector(3)
    kdidi = ts.class_of(calc.omega1.act_left(k, di), di)
    cols = []
    for t in range(2):
        for qb in range(4):
            qv = calc.algebra.basis_vector(qb)
            cols.append(om11.act_left(qv, kdidi) if t == 0 else [ZERO] * om11.dim)
    gamma = Mat.from_rows(cols, om11.dim).transpose()
    conn = Connection(calc, calc.omega1, bc.base.mat + gamma)
    d0 = covariant_exterior(calc, conn, 0)
    d1 = covariant_exterior(calc, conn, 1)
    r = d1 * d0
    # wedge-with-curvature map on one-form-valued sections
    _, ts1 = calc.form_module(1, calc.omega1)
    _, ts2 = calc.form_module(2, calc.omega1)
    dd1 = covariant_exterior(calc, conn, 1)
    dd2 = covariant_exterior(calc, conn, 2)
    lhs = dd2 * dd1
    cr = r  # module -> two-forms (x) module
    cols = []
    w12 = calc.wedge_plain(1, 2)
    _, ts3 = calc.form_module(3, calc.omega1)
    for b in range(calc.omega1.dim):
        for t in range(calc.omega1.dim):
            rv = cr.col(t)
            plain = selection(ts2).apply(rv)
            acc = [ZERO] * (calc.omega[3].dim * calc.omega1.dim)
            for idx, v in enumerate(plain):
                if v:
                    c, e = divmod(idx, calc.omega1.dim)
                    col = w12.col(b * calc.omega[2].dim + c)
                    for rr, vv in enumerate(col):
                        if vv:
                            acc[rr * calc.omega1.dim + e] += v * vv
            cols.append(ts3.proj.apply(acc))
    expect = Mat.from_rows(cols, ts3.dim).transpose() * selection(ts1)
    assert lhs == expect


# --- tensor connections -----------------------------------------------------------------------

def test_tensor_connection_preserves_parallel_tensors(quat):
    calc = quat
    bc = braided_connection(quat)
    conn2 = tensor_connection(calc, bc, bc.base)
    om11, ts = calc.form_module(1, calc.omega1)
    for w, v in itertools.product((frame_form(calc, 0), frame_form(calc, 1)), repeat=2):
        # the tensor connection uses the identified coordinates of 1-1 tensors
        x = conn2.module  # forms (x) forms module
    g = quaternion_metric(calc)
    assert all(not x for x in conn2.mat.apply(g))


def test_tensor_connection_iterates(quat):
    calc = quat
    bc = braided_connection(quat)
    conn2 = tensor_connection(calc, bc, bc.base)
    conn3 = tensor_connection(calc, bc, conn2)
    assert conn3.leibniz_violations() == []


def test_tensor_connection_with_base(quat):
    calc = quat
    conn = tensor_connection(calc, braided_connection(quat), base_connection(quat))
    assert conn.leibniz_violations() == []


def _tensor_connection_by_kron(calc, bconn, connf):
    """The induced connection through plain Kronecker products (the reference)."""
    f = connf.module
    fm, ts_f = calc.form_module(1, f)
    _, ts_v = calc.form_module(1, fm)
    _, ts11 = calc.form_module(1, calc.omega1)
    eye_o, eye_f = Mat.identity(calc.omega1.dim), Mat.identity(f.dim)
    to_v = ts_v.proj * kron(eye_o, ts_f.proj)
    sec11, sec_f = selection(ts11), selection(ts_f)
    term1 = kron(sec11 * bconn.base.mat, eye_f)
    term2 = kron(sec11 * bconn.sigma * ts11.proj, eye_f) * kron(eye_o, sec_f * connf.mat)
    return to_v * (term1 + term2) * sec_f


def test_tensor_connection_matches_kron_formula(kron_oracle_calc):
    calc = kron_oracle_calc
    bc = braided_connection(calc)
    for connf in (base_connection(calc), bc.base):
        assert tensor_connection(calc, bc, connf).mat == _tensor_connection_by_kron(calc, bc, connf)


# --- higher-order connections -------------------------------------------------------------------

def canonical_two_connection(quat):
    q = quantization_of(quat)
    j2 = jet_module(quat, quat.base_module(), 2)
    return higher_connection_from_split(quat, j2, q.system[2].split)


def test_split_that_does_not_retract_the_symbols_is_refused(quat):
    q = quantization_of(quat)
    j2 = jet_module(quat, quat.base_module(), 2)
    with pytest.raises(InvalidConnection):
        higher_connection_from_split(quat, j2, q.system[2].split.scale(2))


def test_jet_projection_that_is_not_onto_is_refused(quat):
    j2 = jet_module(quat, quat.base_module(), 2)
    fake = copy.copy(j2)
    fake.pi = Mat.zeros(12, 16)
    with pytest.raises(InvalidConnection, match="^the jet projection is not onto$"):
        higher_connection_from_split(quat, fake, quantization_of(quat).system[2].split)


def test_symbol_inclusion_that_is_not_injective_is_refused(quat):
    from ncjet.connections import HigherConnection

    hc = canonical_two_connection(quat)
    fake = copy.copy(hc.jet)
    fake.iota = hc.jet.iota.hstack(hc.jet.iota)
    with pytest.raises(InvalidConnection, match="^the symbol inclusion is not injective$"):
        HigherConnection(quat, fake, hc.section)


def test_one_connection_from_connection(quat):
    hc = one_connection(quat, base_connection(quat))
    assert hc.jet.pi * hc.section == Mat.identity(4)
    # its associated connection recovers the generator
    back = associated_connection(quat, hc)
    assert back.mat == base_connection(quat).mat


def test_sections_differ_by_symbol_part(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    j2 = hc.jet
    # add iota o upsilon for a module-linear upsilon: J1 -> S2
    sol = solve_module_maps(j2.lower.mod, j2.sym.mod, "left")
    ups = mat_from_flat(
        [a + b for a, b in zip(sol.particular, sol.direction.basis.data[0])],
        j2.sym.dim, j2.lower.dim,
    )
    from ncjet.connections import HigherConnection

    other = HigherConnection(calc, j2, hc.section + j2.iota * ups)
    diff = other.section - hc.section
    assert image_of(j2.iota).contains_space(image_of(diff))


def test_higher_curvature_flat_at_order_one(quat):
    hc = one_connection(quat, base_connection(quat))
    assert higher_curvature(quat, hc).is_zero()


def test_higher_curvature_matches_associated_curvature(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    r_hc = higher_curvature(calc, hc)
    conn = associated_connection(calc, hc)
    assert r_hc == curvature(calc, conn)


def test_higher_curvature_vanishing_iff_prolongable(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    j2 = hc.jet
    j3 = jet_module(calc, quat.base_module(), 3)
    from ncjet.jets import pair_module

    pd = pair_module(calc, j2.mod)
    omega_c = calc.omega_lift(1, hc.section, j2.lower.mod, j2.mod)
    j1c = (hc.section.hstack(Mat.zeros(hc.section.rows, omega_c.cols))).vstack(
        Mat.zeros(omega_c.rows, hc.section.cols).hstack(omega_c)
    )
    composite = j1c * j2.l * hc.section
    inside = j3.carrier.contains_space(image_of(composite))
    assert inside == higher_curvature(calc, hc).is_zero()


def test_associated_connection_projects_to_spencer(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    conn = associated_connection(calc, hc)
    j2 = hc.jet
    j1 = j2.lower
    om_pi = calc.omega_lift(1, j1.pi, j1.mod, j1.lower.mod)
    assert om_pi * conn.mat == spencer_operator(calc, j1, 0)


def test_exterior_derivative_of_section_matches_connection(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    conn = associated_connection(calc, hc)
    for m in (0, 1):
        assert covariant_exterior_of_section(calc, hc, m) == covariant_exterior(calc, conn, m)


def test_jet_connection_round_trip(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    conn = associated_connection(calc, hc)
    back = higher_from_jet_connection(calc, hc.jet, conn)
    assert back.section == hc.section
    # and forward again
    again = associated_connection(calc, back)
    assert again.mat == conn.mat


def test_jet_connection_hypothesis_violation_is_named(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    conn = associated_connection(calc, hc)
    j1 = hc.jet.lower
    fm, _ = calc.form_module(1, j1.mod)
    sol = solve_module_maps(j1.mod, fm, "left")
    bad = None
    for row in sol.direction.basis.data:
        gamma = mat_from_flat(list(row), fm.dim, j1.mod.dim)
        om_pi = calc.omega_lift(1, j1.pi, j1.mod, j1.lower.mod)
        if not (om_pi * gamma).is_zero():
            bad = Connection(calc, j1.mod, conn.mat + gamma)
            break
    assert bad is not None
    with pytest.raises(InvalidConnection, match="hypothesis"):
        higher_from_jet_connection(calc, hc.jet, bad)


def test_jet_connection_dichotomy_on_perturbations(quat):
    # any perturbation keeping hypothesis (i) either violates hypothesis (ii)
    # with a named error, or round-trips through a (different) section
    calc = quat
    hc = canonical_two_connection(quat)
    conn = associated_connection(calc, hc)
    j1 = hc.jet.lower
    fm, _ = calc.form_module(1, j1.mod)
    om_pi = calc.omega_lift(1, j1.pi, j1.mod, j1.lower.mod)
    sol = solve_module_maps(j1.mod, fm, "left")
    tried = rejected = 0
    for row in sol.direction.basis.data[:16]:
        gamma = mat_from_flat(list(row), fm.dim, j1.mod.dim)
        if not (om_pi * gamma).is_zero():
            continue
        tried += 1
        cand = Connection(calc, j1.mod, conn.mat + gamma)
        try:
            back = higher_from_jet_connection(calc, hc.jet, cand)
        except InvalidConnection as exc:
            assert "hypothesis (ii)" in str(exc) or "factorization" in str(exc)
            rejected += 1
            continue
        assert associated_connection(calc, back).mat == cand.mat
    assert tried > 0
    # a perturbation built from another section always satisfies both
    # hypotheses and round-trips onto that section
    ups_sol = solve_module_maps(j2_lower_of(hc), hc.jet.sym.mod, "left")
    ups = mat_from_flat(
        [a + b for a, b in zip(ups_sol.particular, ups_sol.direction.basis.data[0])],
        hc.jet.sym.dim, j1.mod.dim,
    )
    from ncjet.connections import HigherConnection

    other = HigherConnection(calc, hc.jet, hc.section + hc.jet.iota * ups)
    cand = associated_connection(calc, other)
    back = higher_from_jet_connection(calc, hc.jet, cand)
    assert back.section == other.section


def j2_lower_of(hc):
    return hc.jet.lower.mod


def test_order_one_correspondence_is_classical(quat):
    calc = quat
    j1 = jet_module(calc, quat.base_module(), 1)
    conn = base_connection(quat)
    hc = one_connection(calc, conn)
    # classical split identities
    assert hc.split == conn.mat * j1.pi + j1.rho
    assert j1.iota * hc.split + hc.section * j1.pi == Mat.identity(j1.dim)


# --- transfer between jet and symbol connections (order two) -------------------------------------

def test_transfer_round_trip(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    q = quantization_of(quat)
    sym_conn = q.sym_conns[2]
    jet_conn = jet_connection_from_sym(calc, hc, sym_conn)
    back = sym_connection_from_jet(calc, hc, jet_conn)
    assert back.mat == sym_conn.mat


def test_block_forms_of_transferred_connection(quat):
    calc = quat
    hc = canonical_two_connection(quat)
    q = quantization_of(quat)
    sym_conn = q.sym_conns[2]
    jet_conn = jet_connection_from_sym(calc, hc, sym_conn)
    j2 = hc.jet
    e = quat.base_module()
    for m in (0, 1):
        d_jet = covariant_exterior(calc, jet_conn, m)
        d_c = covariant_exterior_of_section(calc, hc, m)
        d_sym = covariant_exterior(calc, sym_conn, m)
        om_c = calc.omega_lift(m, hc.section, j2.lower.mod, j2.mod)
        om_c1 = calc.omega_lift(m + 1, hc.section, j2.lower.mod, j2.mod)
        om_pi = calc.omega_lift(m, j2.pi, j2.mod, j2.lower.mod)
        om_iota1 = calc.omega_lift(m + 1, j2.iota, j2.sym.mod, j2.mod)
        om_split = calc.omega_lift(m, hc.split, j2.mod, j2.sym.mod)
        om_lower_iota = calc.omega_lift(
            m + 1, j2.lower.iota, sym_module(calc, e, 1).mod, j2.lower.mod
        )
        delta = delta_contraction(calc, e, 2, m)
        lhs = d_jet
        rhs = (
            om_c1 * d_c * om_pi
            + om_iota1 * d_sym * om_split
            - om_c1 * om_lower_iota * delta * om_split
        )
        assert lhs == rhs
    # curvature block form: off-diagonal term and diagonal blocks
    r_jet = curvature(calc, jet_conn)
    r_c = higher_curvature(calc, hc)
    r_sym = curvature(calc, sym_conn)
    om2_c = calc.omega_lift(2, hc.section, j2.lower.mod, j2.mod)
    om2_iota = calc.omega_lift(2, j2.iota, j2.sym.mod, j2.mod)
    om1_lower_iota = calc.omega_lift(1, j2.lower.iota, sym_module(calc, e, 1).mod, j2.lower.mod)
    om2_lower_iota = calc.omega_lift(2, j2.lower.iota, sym_module(calc, e, 1).mod, j2.lower.mod)
    d_c1 = covariant_exterior_of_section(calc, hc, 1)
    delta0 = delta_contraction(calc, e, 2, 0)
    delta1 = delta_contraction(calc, e, 2, 1)
    off = d_c1 * om1_lower_iota * delta0 + om2_lower_iota * delta1 * sym_conn.mat
    rhs = om2_c * r_c * j2.pi + om2_iota * r_sym * hc.split - om2_c * off * hc.split
    assert r_jet == rhs


def test_spencer_block_decomposition(quat):
    # S^{2,m} = d_C o forms(pi) - forms(iota^1) o delta o forms(split)
    calc = quat
    hc = canonical_two_connection(quat)
    j2 = hc.jet
    e = quat.base_module()
    for m in (0, 1):
        s = spencer_operator(calc, j2, m)
        d_c = covariant_exterior_of_section(calc, hc, m)
        om_pi = calc.omega_lift(m, j2.pi, j2.mod, j2.lower.mod)
        om_split = calc.omega_lift(m, hc.split, j2.mod, j2.sym.mod)
        om_lower_iota = calc.omega_lift(
            m + 1, j2.lower.iota, sym_module(calc, e, 1).mod, j2.lower.mod
        )
        delta = delta_contraction(calc, e, 2, m)
        assert s == d_c * om_pi - om_lower_iota * delta * om_split
