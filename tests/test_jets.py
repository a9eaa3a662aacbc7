"""Jet modules of all flavors, symmetric forms, Spencer machinery."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cayley import cayley_spec, cyclic_group, direct_product, group_spec
from ncjet.linalg import Mat, Subspace, ZERO, image_of, kernel_of, rank, rat
from ncjet.algebra import mat_from_flat, solve_module_maps
from ncjet.calculus import CalculusError
from ncjet.specio import parse_calculus_spec
from ncjet.jets import (
    HOLONOMIC,
    NONHOLONOMIC,
    SESQUI,
    bicomplex_report,
    delta_contraction,
    dtilde_maps,
    elemental_span,
    exterior_operator,
    flavor_inclusion,
    holonomic_via_spencer,
    jet_exactness,
    jet_lift,
    jet_module,
    jet_split,
    nu_operator,
    pair_map,
    pair_module,
    spencer_complex,
    spencer_lift_symbol_check,
    spencer_operator,
    sym_module,
)


def frame_form(calc, t):
    v = [ZERO] * calc.omega1.dim
    v[t * calc.algebra.dim] = rat(1)
    return v


# --- order one -------------------------------------------------------------------

def test_jet1_dimension_and_split_maps(quat):
    calc = quat
    j1 = jet_module(calc, quat.base_module(), 1)
    assert j1.dim == 4 + 8
    # rho o j1 = 0 and pi o j1 = id
    assert (j1.rho * j1.j).is_zero()
    assert j1.pi * j1.j == Mat.identity(4)


def test_order_one_defect(quat):
    # a j1(b) - j1(ab) = -iota1(da . b)
    calc = quat
    e = quat.base_module()
    j1 = jet_module(calc, e, 1)
    pd = pair_module(calc, e)
    _, ts = calc.form_module(1, e)
    alg = calc.algebra
    for a, b in itertools.product(range(4), repeat=2):
        av, bv = alg.basis_vector(a), alg.basis_vector(b)
        lhs = [
            x - y
            for x, y in zip(
                j1.mod.act_left(av, j1.j.apply(bv)),
                j1.j.apply(alg.mul(av, bv)),
            )
        ]
        da_b = ts.class_of(calc.d_of_basis(a), bv)
        rhs = [-x for x in pd.iota.apply(da_b)]
        assert lhs == rhs


# --- obstruction maps -------------------------------------------------------------

def test_first_obstruction_on_double_prolongations(quat):
    calc = quat
    e = quat.base_module()
    j1 = jet_module(calc, e, 1)
    p2 = pair_module(calc, j1.mod)
    d1m, d2m = dtilde_maps(calc, j1)
    for t in range(4):
        xi = p2.j.apply(j1.j.apply(calc.algebra.basis_vector(t)))
        assert all(not x for x in d1m.apply(xi))
        assert all(not x for x in d2m.apply(xi))


def test_first_obstruction_on_iota_images(quat):
    # D^I(iota1_{J1}(w (x) j1(e))) = w (x) e  and  D^I(j1(iota1 w)) = -w
    calc = quat
    e = quat.base_module()
    j1 = jet_module(calc, e, 1)
    p2 = pair_module(calc, j1.mod)
    d1m, _ = dtilde_maps(calc, j1)
    _, ts1e = calc.form_module(1, e)
    _, ts1j = calc.form_module(1, j1.mod)
    di = frame_form(calc, 0)
    for t in range(4):
        ev = calc.algebra.basis_vector(t)
        inner = ts1j.class_of(di, j1.j.apply(ev))
        out = d1m.apply(p2.iota.apply(inner))
        assert out == ts1e.class_of(di, ev)
    # second family: j1 of iota1 images
    for w in (di, frame_form(calc, 1)):
        wi = j1.iota.apply(ts1e.class_of(w, calc.algebra.unit))
        out = d1m.apply(p2.j.apply(wi))
        assert out == [-x for x in ts1e.class_of(w, calc.algebra.unit)]


def test_second_obstruction_leibniz_expansion(quat):
    # On the outer pair (ab [c (x) e], -(da)b (x) [c (x) e]) the second
    # obstruction returns da ^ (db) c e + (da) b ^ (dc) e.
    calc = quat
    e = quat.base_module()
    alg = calc.algebra
    j1 = jet_module(calc, e, 1)
    p2 = pair_module(calc, j1.mod)
    _, d2m = dtilde_maps(calc, j1)
    _, ts1j = calc.form_module(1, j1.mod)
    _, ts2e = calc.form_module(2, e)
    w11 = calc.wedge_plain(1, 1)
    for a, b, c in itertools.product(range(4), repeat=3):
        av, bv, cv = alg.basis_vector(a), alg.basis_vector(b), alg.basis_vector(c)
        inner = j1.mod.act_left(cv, j1.j.apply(alg.unit))  # [c (x) 1] = c j1(1)
        ab = alg.mul(av, bv)
        da_b = calc.omega1.right_mult(bv).apply(calc.d_of_basis(a))
        outer = [x + y for x, y in zip(
            p2.j.apply(j1.mod.act_left(ab, inner)),
            [-z for z in p2.iota.apply(ts1j.class_of(da_b, inner))],
        )]
        # expected: da ^ d(bc) (x) e with Leibniz split
        got = d2m.apply(outer)
        bc = alg.mul(bv, cv)
        lhs_form = w11.apply([x * y for x in calc.d_of_basis(a) for y in calc.d[0].apply(bc)])
        expect = ts2e.class_of(lhs_form, alg.unit)
        assert got == expect


def _iterated_pair_obstructions(calc, m):
    """Both obstruction maps written on the iterated pair space P(P(M))."""
    pm = pair_module(calc, m)
    p2 = pair_module(calc, pm.mod)
    omega_pi = calc.omega_lift(1, pm.pi, pm.mod, m)
    d_first = omega_pi * p2.rho - pm.rho * p2.pi
    second = exterior_operator(calc, 1, pm.mod, m, pm.pi, -pm.rho, "second obstruction map")
    return d_first, Mat.zeros(second.rows, pm.mod.dim).hstack(second)


_OBSTRUCTION_ORDERS = {
    "quat": (2, 3), "two_point": (2, 3), "matrix2": (2, 3), "s3": (2, 3),
    "z4xz4": (2,),  # at order 3 the iterated pair space exceeds the default cap
}


@pytest.mark.parametrize("name", list(_OBSTRUCTION_ORDERS))
def test_obstructions_equal_their_iterated_pair_space_form(request, name):
    # On P(J^{n-1}) the maps built from J^{n-1}'s projection and Spencer operator
    # are the iterated-pair-space obstructions pulled back through P(l).
    if name == "z4xz4":
        calc = parse_calculus_spec(
            group_spec(direct_product(cyclic_group(4), cyclic_group(4)), [4, 1]))
    else:
        calc = request.getfixturevalue(name)
    e = calc.base_module()
    for n in _OBSTRUCTION_ORDERS[name]:
        lower = jet_module(calc, e, n - 1)
        lower2 = jet_module(calc, e, n - 2)
        into_pp = pair_map(calc, lower.l, lower.mod, pair_module(calc, lower2.mod).mod)
        old_first, old_second = _iterated_pair_obstructions(calc, lower2.mod)
        first, second = dtilde_maps(calc, lower)
        assert old_first * into_pp == first, (name, n)
        assert old_second * into_pp == second, (name, n)


# --- jets of all flavors ---------------------------------------------------------------

def test_holonomic_dimensions(quat):
    dims = [jet_module(quat, quat.base_module(), n).dim for n in range(4)]
    assert dims == [4, 12, 16, 16]


def test_prolongations_are_holonomic(quat):
    for n in (2, 3):
        jet = jet_module(quat, quat.base_module(), n)
        assert jet.j.cols == 4  # defined on the base, lands in carrier coords


def test_flavor_inclusions(quat):
    calc, e = quat, quat.base_module()
    h2 = jet_module(calc, e, 2, HOLONOMIC)
    s2 = jet_module(calc, e, 2, SESQUI)
    n2 = jet_module(calc, e, 2, NONHOLONOMIC)
    assert h2.dim == 16 and s2.dim == 28 and n2.dim == 36
    t_hs = flavor_inclusion(calc, e, 2, HOLONOMIC, SESQUI)
    t_hn = flavor_inclusion(calc, e, 2, HOLONOMIC, NONHOLONOMIC)
    t_sn = flavor_inclusion(calc, e, 2, SESQUI, NONHOLONOMIC)
    assert rank(t_hs) == 16 and rank(t_hn) == 16 and rank(t_sn) == 28
    assert t_sn * t_hs == t_hn
    # prolongations are compatible
    assert t_hs * h2.j == s2.j
    assert t_hn * h2.j == n2.j


def test_symbols_belong_to_holonomic_jets_and_to_every_first_jet(quat):
    calc, e = quat, quat.base_module()
    for flavor in (HOLONOMIC, SESQUI, NONHOLONOMIC):
        j1 = jet_module(calc, e, 1, flavor)
        assert j1.iota == pair_module(calc, e).iota, flavor
        assert j1.sym is sym_module(calc, e, 1), flavor
    h2 = jet_module(calc, e, 2, HOLONOMIC)
    assert h2.iota is not None and h2.sym is sym_module(calc, e, 2)
    for flavor in (SESQUI, NONHOLONOMIC):
        j2 = jet_module(calc, e, 2, flavor)
        assert j2.iota is None and j2.sym is None, flavor


def test_unconstrained_jets_are_the_pair_space_itself(quat):
    calc, e = quat, quat.base_module()
    for flavor in (HOLONOMIC, NONHOLONOMIC):
        j1 = jet_module(calc, e, 1, flavor)
        assert j1.mod is pair_module(calc, e).mod, flavor
    n1, n2 = (jet_module(calc, e, n, NONHOLONOMIC) for n in (1, 2))
    assert n2.lower is n1 and n2.mod is pair_module(calc, n1.mod).mod


def test_nonholonomic_projection_keeps_prolongation(quat):
    n2 = jet_module(quat, quat.base_module(), 2, NONHOLONOMIC)
    assert n2.pi * n2.j == n2.lower.j


def test_projection_of_prolongation_every_flavor_and_fixture(all_fixtures):
    for fx in all_fixtures:
        for flavor in (HOLONOMIC, SESQUI, NONHOLONOMIC):
            for n in (1, 2):
                jet = jet_module(fx, fx.base_module(), n, flavor)
                assert jet.pi * jet.j == jet.lower.j, (fx.name, flavor, n)


def test_holonomic_is_sesqui_cut_by_second_obstruction(quat):
    calc, e = quat, quat.base_module()
    h2 = jet_module(calc, e, 2, HOLONOMIC)
    s2 = jet_module(calc, e, 2, SESQUI)
    j1 = jet_module(calc, e, 1)
    _, d2m = dtilde_maps(calc, j1)
    cut = kernel_of(d2m)
    from ncjet.linalg import intersect

    assert intersect(s2.carrier, cut) == h2.carrier


def test_two_point_sesqui_vs_holonomic(two_point):
    calc, e = two_point, two_point.base_module()
    h2 = jet_module(calc, e, 2, HOLONOMIC)
    s2 = jet_module(calc, e, 2, SESQUI)
    assert h2.carrier.dim <= s2.carrier.dim
    assert s2.carrier.contains_space(h2.carrier)


# --- symmetric forms -------------------------------------------------------------------

def test_sym_dims(quat):
    dims = [sym_module(quat, quat.base_module(), n).dim for n in range(4)]
    assert dims == [4, 8, 4, 0]


def test_sym2_is_the_metric_line(quat):
    calc, e = quat, quat.base_module()
    s2 = sym_module(calc, e, 2)
    _, tsE = calc.form_module(1, e)
    _, tsS1 = calc.form_module(1, s2.lower.mod)
    di, dj = frame_form(calc, 0), frame_form(calc, 1)
    di1 = tsE.class_of(di, calc.algebra.unit)
    dj1 = tsE.class_of(dj, calc.algebra.unit)
    g = [x - y for x, y in zip(tsS1.class_of(di, dj1), tsS1.class_of(dj, di1))]
    carrier = Subspace(tsS1.dim, [s2.iota_wedge.col(t) for t in range(s2.dim)])
    assert carrier.contains(g)
    # closure of g under the action is everything
    from ncjet.algebra import module_closure

    fm, _ = calc.form_module(1, s2.lower.mod)
    assert module_closure(fm, [g]) == carrier


def test_sym1_is_form_module(quat):
    calc, e = quat, quat.base_module()
    s1 = sym_module(calc, e, 1)
    fm, _ = calc.form_module(1, e)
    assert s1.mod is fm


# --- contraction -------------------------------------------------------------------------

def test_delta_squares_to_zero(quat, two_point):
    for fx in (quat, two_point):
        calc, e = fx, fx.base_module()
        for h, k in ((2, 0), (2, 1)):
            d1 = delta_contraction(calc, e, h, k)
            d2 = delta_contraction(calc, e, h - 1, k + 1)
            assert (d2 * d1).is_zero()


def test_sym_module_is_the_kernel_of_the_contraction(quat, two_point):
    # matrix2 is left out: it adds about 8 s
    for fx in (quat, two_point):
        calc, e = fx, fx.base_module()
        for n in (2, 3):
            ker = kernel_of(delta_contraction(calc, e, n - 1, 1))
            assert ker == image_of(sym_module(calc, e, n).iota_wedge)


def test_delta_at_degree_zero_is_the_inclusion(quat):
    calc, e = quat, quat.base_module()
    s2 = sym_module(calc, e, 2)
    assert delta_contraction(calc, e, 2, 0) == s2.iota_wedge


# --- Spencer operators --------------------------------------------------------------------

def test_spencer_on_iota_image(quat):
    # S^{1,1}(di (x) iota1(dj)) = di ^ dj
    calc, e = quat, quat.base_module()
    j1 = jet_module(calc, e, 1)
    s11 = spencer_operator(calc, j1, 1)
    _, ts1e = calc.form_module(1, e)
    _, ts1j = calc.form_module(1, j1.mod)
    _, ts2e = calc.form_module(2, e)
    di, dj = frame_form(calc, 0), frame_form(calc, 1)
    x = ts1j.class_of(di, j1.iota.apply(ts1e.class_of(dj, calc.algebra.unit)))
    got = s11.apply(x)
    w11 = calc.wedge_plain(1, 1)
    expect = ts2e.class_of(w11.apply([a * b for a in di for b in dj]), calc.algebra.unit)
    assert got == expect


def test_spencer_kills_prolongations_all_fixtures(all_fixtures):
    for fx in all_fixtures:
        calc, e = fx, fx.base_module()
        for n in (1, 2):
            jet = jet_module(calc, e, n)
            assert (spencer_operator(calc, jet, 0) * jet.j).is_zero()


def test_spencer_squares_to_zero_all_fixtures(all_fixtures):
    for fx in all_fixtures:
        calc, e = fx, fx.base_module()
        for n, m in ((2, 0), (2, 1)):
            if m + 2 > calc.max_degree:
                continue
            s_top = spencer_operator(calc, jet_module(calc, e, n), m)
            s_low = spencer_operator(calc, jet_module(calc, e, n - 1), m + 1)
            assert (s_low * s_top).is_zero()


def test_spencer_order_one_surjective(all_fixtures):
    for fx in all_fixtures:
        calc, e = fx, fx.base_module()
        j1 = jet_module(calc, e, 1)
        for m in range(calc.max_degree):
            s = spencer_operator(calc, j1, m)
            assert rank(s) == s.rows


def test_kernel_of_spencer_is_prolongation_image(all_fixtures):
    for fx in all_fixtures:
        calc, e = fx, fx.base_module()
        for n in (1, 2):
            jet = jet_module(calc, e, n)
            s = spencer_operator(calc, jet, 0)
            assert kernel_of(s) == image_of(jet.j)


def test_spencer_complex_quaternion_exact(quat):
    for n in (1, 2, 3):
        sc = spencer_complex(quat, quat.base_module(), n)
        assert sc["is_complex"]
        assert all(d == 0 for d in sc["cohomology"])


def test_spencer_complex_other_fixtures(two_point, matrix2):
    for fx in (two_point, matrix2):
        for n in (1, 2):
            sc = spencer_complex(fx, fx.base_module(), n)
            assert sc["is_complex"]
            # degrees 0, 1 and n+1 are always exact
            assert sc["cohomology"][0] == 0
            assert sc["cohomology"][1] == 0
            assert sc["cohomology"][-1] == 0


def test_spencer_flavor_compatibility_at_order_two(quat):
    # Omega^{m+1}(t) o S = S^{flavor} o Omega^m(t) for the flavor inclusions
    calc, e = quat, quat.base_module()
    h2 = jet_module(calc, e, 2, HOLONOMIC)
    s2 = jet_module(calc, e, 2, SESQUI)
    n2 = jet_module(calc, e, 2, NONHOLONOMIC)
    for m in (0, 1):
        s_h = spencer_operator(calc, h2, m)
        for other, flavor in ((s2, SESQUI), (n2, NONHOLONOMIC)):
            t = flavor_inclusion(calc, e, 2, HOLONOMIC, flavor)
            s_o = spencer_operator(calc, other, m)
            om_t = calc.omega_lift(m, t, h2.mod, other.mod) if m else t
            # both land in forms (x) J1 since the lower jets agree at order 1
            assert s_o * om_t == s_h


def test_spencer_restriction_symbols(quat):
    calc, e = quat, quat.base_module()
    j1 = jet_module(calc, e, 1)
    j2 = jet_module(calc, e, 2)
    for jet, m in ((j1, 0), (j1, 1), (j2, 0)):
        got, expect = spencer_lift_symbol_check(calc, jet, m)
        assert got == expect


# --- nu operator -------------------------------------------------------------------------

def test_nu_zero_is_projection(quat):
    calc, e = quat, quat.base_module()
    numat, tw, m1dim = nu_operator(calc, e, 0)
    _, ts2e = calc.form_module(2, e)
    assert numat.cols == tw.dim
    assert numat.submatrix(range(numat.rows), range(m1dim)).is_zero()
    assert numat.submatrix(range(numat.rows), range(m1dim, tw.dim)) == Mat.identity(ts2e.dim)


def test_nu_composition_identities(quat):
    # S^{1,m+1} o S^{1,m}_{J1} = -nu^m o (forms of the obstruction pair)
    calc, e = quat, quat.base_module()
    j1 = jet_module(calc, e, 1)
    p2 = pair_module(calc, j1.mod)
    d1m, d2m = dtilde_maps(calc, j1)
    dtilde = d1m.vstack(d2m)
    s11 = spencer_operator(calc, j1, 1)
    num0, tw, _ = nu_operator(calc, e, 0)
    lhs0 = s11 * (-p2.rho)
    assert lhs0 == -(num0 * dtilde)
    # m = 1
    outer = jet_module(calc, j1.mod, 1)
    num1, tw1, _ = nu_operator(calc, e, 1)
    omega_dt = calc.omega_lift(1, dtilde, p2.mod, tw)
    lhs1 = spencer_operator(calc, j1, 2) * spencer_operator(calc, outer, 1)
    assert lhs1 == -(num1 * omega_dt)


# --- alternative characterizations -----------------------------------------------------------

def test_holonomic_via_spencer(quat, two_point):
    for fx in (quat, two_point):
        calc, e = fx, fx.base_module()
        for n in (2, 3) if fx is quat else (2,):
            jet = jet_module(calc, e, n)
            assert holonomic_via_spencer(calc, e, n) == jet.carrier


def test_elemental_span_equality(quat, two_point):
    for fx, orders in ((quat, (1, 2, 3)), (two_point, (1, 2))):
        for n in orders:
            jet = jet_module(fx, fx.base_module(), n)
            assert elemental_span(fx, jet).dim == jet.dim


# calculus fixture -> highest jet order checked against the affine oracle
_LIFT_ORDERS = {"quat": 3, "two_point": 2, "cayley_z4": 3}


@pytest.mark.parametrize("name", list(_LIFT_ORDERS))
def test_jet_lift_matches_the_affine_oracle(request, name):
    """jet_lift against solve_module_maps(..., compose_eq=[(j^n, D)]) on the base module."""
    calc = request.getfixturevalue(name)
    e = calc.base_module()
    jets = [jet_module(calc, e, n) for n in range(_LIFT_ORDERS[name] + 1)]
    families = {jet.n: solve_module_maps(jet.mod, e, "left") for jet in jets}
    entries = st.lists(st.lists(st.integers(-2, 2), min_size=e.dim, max_size=e.dim),
                       min_size=e.dim, max_size=e.dim)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.data())
    def check(data):
        jet = data.draw(st.sampled_from(jets))
        # phi o j^n lifts back to phi, for phi any member of the module-map family
        family = families[jet.n]
        flat = list(family.particular)
        for row in family.direction.basis.nz:
            c = data.draw(st.integers(-2, 2))
            for k, x in row.items():
                flat[k] += c * x
        phi = mat_from_flat(flat, e.dim, jet.dim)
        assert jet_lift(calc, jet, phi * jet.j, e) == phi
        # any operator lifts exactly when the oracle has a point, and to that point
        d = Mat(e.dim, e.dim, data.draw(entries))
        oracle = solve_module_maps(jet.mod, e, "left", compose_eq=[(jet.j, d)])
        got = jet_lift(calc, jet, d, e)
        if oracle.empty:
            assert got is None
        else:
            assert got == mat_from_flat(oracle.particular, e.dim, jet.dim)

    check()


def test_jet_split_refuses_where_prolongations_do_not_span():
    """On the directed 4-cycle the order-4 prolongations span a proper submodule."""
    from ncjet.specio import parse_calculus_spec

    calc = parse_calculus_spec(cayley_spec(4, [1]))
    e = calc.base_module()
    jet = jet_module(calc, e, 4)
    assert elemental_span(calc, jet).dim < jet.dim
    for attempt in (lambda: jet_split(calc, jet),
                    lambda: jet_lift(calc, jet, Mat.identity(e.dim), e)):
        with pytest.raises(CalculusError, match="^jet lifts are not unique at order 4$"):
            attempt()


def test_exactness_reports(all_fixtures):
    for fx in all_fixtures:
        for n in (1, 2):
            rep = jet_exactness(fx, fx.base_module(), n)
            assert rep["exact"]
            assert rep["pullback_square"]
            assert rep["pullback_dim"] == fx.base_module().dim


def test_exactness_refuses_order_zero(quat):
    # The order-0 jet has no lower jet and no symbol module to compare.
    with pytest.raises(ValueError, match="^jet exactness needs jet order >= 1$"):
        jet_exactness(quat, quat.base_module(), 0)


def test_jet_of_a_module_and_jet_module_keep_separate_entries():
    # Each (module, order, flavor) has one entry; the order-1 jet carries its
    # symbols, which jet_exactness reads, and flavor aliases share the entry.
    from ncjet.algebra import functions_on_points
    from ncjet.calculus import universal_calculus

    calc = universal_calculus(functions_on_points(2))
    e = calc.base_module()
    assert jet_exactness(calc, e, 1)["exact"]
    assert jet_module(calc, e, 2) is jet_module(calc, e, 2, HOLONOMIC)
    assert jet_module(calc, e, 1, SESQUI) is jet_module(calc, e, 1)


def test_quaternion_exactness_dims(quat):
    rep = jet_exactness(quat, quat.base_module(), 2)
    assert rep["dims"] == (4, 16, 12)


# --- bicomplex -------------------------------------------------------------------------------

def test_bicomplex_all_fixtures(all_fixtures):
    for fx in all_fixtures:
        rep = bicomplex_report(fx, fx.base_module(), 2)
        assert rep["all_pass"], [c for c in rep["cells"] if not c[1]]


def test_bicomplex_quaternion_order_three(quat):
    rep = bicomplex_report(quat, quat.base_module(), 3)
    assert rep["all_pass"]


def test_bicomplex_sign_flip_is_detected(quat):
    rep = bicomplex_report(quat, quat.base_module(), 2, corrupt_sign=True)
    assert not rep["all_pass"]
    failing = [name for name, ok in rep["cells"] if not ok]
    assert any("left square" in name for name in failing)


def test_degree_overflow_raises(quat):
    with pytest.raises(CalculusError):
        spencer_operator(quat, jet_module(quat, quat.base_module(), 1), 3)


def test_degenerate_calculus_yields_zero_objects():
    # with no one-forms every jet is the module itself and symbols vanish
    from ncjet.algebra import Algebra
    from ncjet.calculus import universal_calculus

    calc = universal_calculus(Algebra(1, ["1"], [[[1]]], [1]), max_degree=2)
    e = calc.base_module()
    for n in range(3):
        jet = jet_module(calc, e, n)
        assert jet.dim == 1
        if n:
            assert sym_module(calc, e, n).dim == 0
            assert spencer_operator(calc, jet, 0).is_zero()
    assert jet_exactness(calc, e, 2)["exact"]


def test_engine_on_an_unregistered_algebra():
    # three points: J^1 is the full tensor square, symbols stabilize at 2
    from ncjet.algebra import functions_on_points
    from ncjet.calculus import universal_calculus

    calc = universal_calculus(functions_on_points(3))
    e = calc.base_module()
    jets = [jet_module(calc, e, n) for n in range(3)]
    assert [j.dim for j in jets] == [3, 9, 9]
    assert [sym_module(calc, e, n).dim for n in range(3)] == [3, 6, 0]
    assert jet_exactness(calc, e, 2)["exact"]
    sc = spencer_complex(calc, e, 2)
    assert sc["is_complex"] and all(d == 0 for d in sc["cohomology"])
    assert bicomplex_report(calc, e, 2)["all_pass"]
    for n in (1, 2):
        assert elemental_span(calc, jets[n]).dim == jets[n].dim
