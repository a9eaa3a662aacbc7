"""End-to-end quaternion demonstration with a structured claim report.

Every claim is evaluated exactly; the report carries one entry per claim
with a pass flag and a printable detail.  One known discrepancy is
expected: the joint connection/braiding solver finds a 24-parameter family
where a unique solution was claimed by the source material; the
frame-parallel member of that family is unique and has all the stated
properties.  See DECISIONS.md for the analysis.
"""

from __future__ import annotations

from .linalg import Mat, ONE, rat, left_inverse, kernel_of, image_of
from .calculus import CalculusError
from .connections import (
    curvature,
    metric_compatibility,
    solve_bimodule_connections,
    torsion,
)
from .fixtures import (
    braided_connection, fixture, frame_vectors, quantization_of, quaternion_metric,
    star_generators)
from .jets import HOLONOMIC, elemental_span, jet_exactness, jet_module, sym_module
from .quantization import GradedSymbol, Symbol


def demo_quaternion(corrupt=False):
    """Run the full quaternion pipeline; returns the claim report."""
    calc = fixture("quaternion")
    alg = calc.algebra
    e = calc.base_module()
    claims = []

    def claim(name, ok, detail=""):
        claims.append({"claim": name, "pass": bool(ok), "detail": str(detail)})

    om11, ts11 = calc.form_module(1, calc.omega1)
    di, dj = frame_vectors(calc)
    g = quaternion_metric(calc)

    # --- connection layer -------------------------------------------------
    sol = solve_bimodule_connections(calc)
    claim(
        "braided connections form a zero-dimensional family",
        sol.dim == 0,
        "computed affine dimension %d (known discrepancy when nonzero: the "
        "frame-coefficients there are quaternionic, not scalar)" % sol.dim,
    )
    bc = braided_connection(calc)
    if corrupt:
        bc = type(bc)(calc, bc.base, -bc.sigma, check=False)
    claim(
        "frame-parallel connection kills the frame",
        all(not x for x in bc.base.mat.apply(di)) and all(not x for x in bc.base.mat.apply(dj)),
    )
    flip_ok = True
    for w in (di, dj):
        for v in (di, dj):
            lhs = bc.sigma.apply(ts11.class_of(w, v))
            rhs = [-x for x in ts11.class_of(v, w)]
            flip_ok = flip_ok and lhs == rhs
    claim("braiding flips frame pairs with a sign", flip_ok)
    claim("torsion vanishes", torsion(calc, bc.base).is_zero())
    try:
        claim("metric is parallel", all(not x for x in metric_compatibility(calc, bc, g)))
    except CalculusError as exc:
        claim("metric is parallel", False, exc)
    claim("curvature vanishes", curvature(calc, bc.base).is_zero())

    # --- jet layer ---------------------------------------------------------
    jets = [jet_module(calc, e, n, HOLONOMIC) for n in range(4)]
    dims = tuple(j.dim for j in jets)
    claim("jet dimensions are (4, 12, 16, 16)", dims == (4, 12, 16, 16), dims)
    syms = [sym_module(calc, e, n) for n in range(4)]
    claim("symmetric forms stabilize: S3 = 0", syms[3].dim == 0)
    exact_ok = all(jet_exactness(calc, e, n)["exact"] for n in (1, 2, 3))
    claim("jet sequences are exact at orders 1..3", exact_ok)
    elem_ok = all(elemental_span(calc, jets[n]).dim == jets[n].dim for n in (1, 2, 3))
    claim("prolongations span every jet module", elem_ok)

    q = quantization_of(calc)

    # retraction candidate (id + braiding)/2
    s2 = syms[2]
    fmE, _ = calc.form_module(1, e)
    mu = calc.wedge_map(1, 0)  # frame evaluation w (x) a -> w . a
    iso = calc.omega_lift(1, mu, fmE, calc.omega1)
    emb = iso * s2.iota_wedge  # S2 inside one-forms (x) one-forms
    proj_half = (Mat.identity(ts11.dim) + bc.sigma).scale(rat(1, 2))
    fixes = (proj_half * emb) == emb
    into = kernel_of(calc.wedge_map(1, 1)).contains_space(image_of(proj_half))
    claim("half of (identity + braiding) retracts the wedge kernel", fixes and into)

    ch2 = q.chain[2]
    g_s2 = left_inverse(emb).apply(g)
    vals_ok = (
        all(not x for x in ch2.col(0))
        and all(not x for x in ch2.col(1))
        and all(not x for x in ch2.col(2))
        and ch2.col(3) == g_s2
    )
    claim("universal order-2 operator sends h to -Re(kh) g", vals_ok)

    # iota^2(g) as a combination of prolongations
    j2 = jets[2]
    i_v, j_v, k_v = alg.basis_vector(1), alg.basis_vector(2), alg.basis_vector(3)
    lhs = j2.iota.apply(g_s2)
    rhs = [
        a - b + c + d
        for a, b, c, d in zip(
            j2.mod.act_left(j_v, j2.j.apply(i_v)),
            j2.mod.act_left(i_v, j2.j.apply(j_v)),
            j2.j.apply(k_v),
            j2.mod.act_left(k_v, j2.j.apply(alg.unit)),
        )
    ]
    claim("symbol inclusion of the metric equals the prolongation combination", lhs == rhs)

    # --- operator layer ----------------------------------------------------
    lk = alg.left_mult(k_v)
    claim("left multiplication by k has order 2", q.ctx.op_order(lk) == 2)
    h2 = q.homogeneous_component(lk, 2)
    h1 = q.homogeneous_component(lk, 1)
    h0 = q.homogeneous_component(lk, 0)
    exp2 = Mat.from_cols([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [-4, 0, 0, 0]], 4)
    exp1_cols = []
    for t in range(4):
        h = alg.basis_vector(t)
        com = [x - y for x, y in zip(alg.mul(k_v, h), alg.mul(h, k_v))]
        com[0] += 4 * h[3] * ONE
        exp1_cols.append(com)
    exp1 = Mat.from_cols(exp1_cols, 4)
    rk = Mat.from_cols([alg.mul(alg.basis_vector(t), k_v) for t in range(4)], 4)
    claim("order-2 component is -4 times the k-coefficient", h2 == exp2)
    claim("order-1 component is [k, .] plus 4 times the k-coefficient", h1 == exp1)
    claim("order-0 component is right multiplication by k", h0 == rk)
    claim("components reassemble the operator", (h2 + h1 + h0) == lk)

    # --- star table ----------------------------------------------------------
    gens = star_generators(calc)
    idsym = Symbol(0, Mat.identity(alg.dim))
    table_ok = True
    details = []
    for hbar in (rat(0), rat(1), rat(2, 3)):
        for na in ("x_i", "x_j", "p_i", "p_j"):
            for nb in ("x_i", "x_j", "p_i", "p_j"):
                a, b = gens[na], gens[nb]
                star = q.star_eval(a, b, hbar)
                if na[0] == "p" and nb[0] == "x":
                    expect = GradedSymbol.of(q.symbol_product(b, a)).scale(-1)
                    if na[2] == nb[2]:
                        expect = expect + GradedSymbol.of(idsym).scale(hbar)
                else:
                    expect = GradedSymbol.of(q.symbol_product(a, b))
                if star != expect:
                    table_ok = False
                    details.append("%s * %s at %s" % (na, nb, hbar))
    claim("star table matches the canonical relations at 0, 1, 2/3",
          table_ok, "; ".join(details))
    claim("momenta square to zero",
          q.symbol_product(gens["p_i"], gens["p_i"]).is_zero()
          and q.symbol_product(gens["p_j"], gens["p_j"]).is_zero())
    claim("momenta anticommute under star",
          q.star_eval(gens["p_i"], gens["p_j"], 1)
          == q.star_eval(gens["p_j"], gens["p_i"], 1).scale(-1))

    failures = [c["claim"] for c in claims if not c["pass"]]
    return {
        "fixture": "quaternion",
        "claims": claims,
        "passed": not failures,
        "first_failure": failures[0] if failures else None,
    }
