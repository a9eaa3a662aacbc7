"""Command-line frontend: exit codes, report shapes, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cayley import cayley_spec, cyclic_group, direct_product, group_spec, symmetric_group
from ncjet.cli import EXIT_FAIL, EXIT_INVALID, EXIT_PARSE, EXIT_PASS, main
from ncjet.linalg import rat
from ncjet.specio import (SpecParseError, dump_json, parse_calculus_spec, parse_rat,
                          serialize_calculus)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def quat_spec_path(tmp_path_factory, quat):
    path = tmp_path_factory.mktemp("specs") / "quaternion.json"
    path.write_text(dump_json(serialize_calculus(quat)))
    return str(path)


def test_validate_fixture_file(quat_spec_path):
    code, out = run(["validate", quat_spec_path])
    assert code == EXIT_PASS
    assert "ok" in out


def test_validate_broken_leibniz_names_the_pair(tmp_path, quat):
    doc = serialize_calculus(quat)
    doc["omega1"]["d"][0][3] = "5"  # corrupt d(k)
    path = tmp_path / "broken.json"
    path.write_text(dump_json(doc))
    code, out = run(["validate", str(path)])
    assert code == EXIT_INVALID
    assert out.startswith("invalid calculus: invalid first-order calculus: ")
    assert "Leibniz" in out and "(" in out


# Full reports recorded before the module checks moved to the algebra generators: Omega^1
# is still checked on every basis pair, so each failing pair is named, in order.
_BROKEN_RIGHT_ACTION = (
    "invalid calculus: invalid first-order calculus: right action not multiplicative at (i, j) "
    "on O1; left/right actions do not commute at (i, j) on O1; right action not multiplicative "
    "at (i, k) on O1; right action not multiplicative at (j, i) on O1; right action not "
    "multiplicative at (j, j) on O1; left/right actions do not commute at (j, j) on O1; right "
    "action not multiplicative at (j, k) on O1; right action not multiplicative at (k, i) on "
    "O1; right action not multiplicative at (k, j) on O1; left/right actions do not commute at "
    "(k, j) on O1\n")
_BROKEN_LEIBNIZ = (
    "invalid calculus: invalid first-order calculus: Leibniz fails at (i, j); Leibniz fails at "
    "(i, k); Leibniz fails at (j, i); Leibniz fails at (j, k); Leibniz fails at (k, i); Leibniz "
    "fails at (k, j); Leibniz fails at (k, k)\n")


@pytest.mark.parametrize("section, index, entry, report", [
    ("right", (2, 5, 6), "1/3", _BROKEN_RIGHT_ACTION),
    ("d", (0, 3), "5", _BROKEN_LEIBNIZ),
], ids=["right-action", "leibniz"])
def test_validate_reports_every_failing_pair(tmp_path, quat, section, index, entry, report):
    doc = serialize_calculus(quat)
    node = doc["omega1"][section]
    for i in index[:-1]:
        node = node[i]
    node[index[-1]] = entry
    path = tmp_path / "broken.json"
    path.write_text(dump_json(doc))
    assert run(["validate", str(path)]) == (EXIT_INVALID, report)


# Recorded before validate_algebra read the action matrices: the structure constants
# 1/2 at j * 1 -> j and -2 at k * k -> 1 break associativity and the right unit law.
_BROKEN_PRODUCT = (
    "invalid calculus: invalid first-order calculus: associativity fails at (i, j, 1); "
    "associativity fails at (i, j, k); associativity fails at (i, k, 1); associativity fails at "
    "(i, k, k); associativity fails at (j, 1, 1); associativity fails at (j, 1, i); associativity "
    "fails at (j, 1, j); associativity fails at (j, 1, k); associativity fails at (j, i, i); "
    "associativity fails at (j, i, k); associativity fails at (j, j, 1); associativity fails at "
    "(j, j, j); associativity fails at (k, i, 1); associativity fails at (k, i, j); associativity "
    "fails at (k, j, 1); associativity fails at (k, j, i); associativity fails at (k, k, i); "
    "associativity fails at (k, k, j); j * unit != j; left action not multiplicative at (j, 1) "
    "on O1; left action not multiplicative at (k, k) on O1; right action not multiplicative at "
    "(j, 1) on O1; right action not multiplicative at (k, k) on O1\n")


def test_validate_reports_every_broken_product(tmp_path, quat):
    doc = serialize_calculus(quat)
    doc.pop("leftFrameSize")
    doc["algebra"]["mult"][2][0][2] = "1/2"
    doc["algebra"]["mult"][3][3][0] = "-2"
    path = tmp_path / "broken.json"
    path.write_text(dump_json(doc))
    assert run(["validate", str(path)]) == (EXIT_INVALID, _BROKEN_PRODUCT)


def test_broken_product_is_reported_before_the_frame_layout(tmp_path, quat):
    """The frame layout is read off the algebra's action, so a broken product is named first."""
    doc = serialize_calculus(quat)
    assert doc["leftFrameSize"] == 2
    doc["algebra"]["mult"][2][0][2] = "1/2"
    doc["algebra"]["mult"][3][3][0] = "-2"
    path = tmp_path / "broken.json"
    path.write_text(dump_json(doc))
    assert run(["validate", str(path)]) == (EXIT_INVALID, _BROKEN_PRODUCT)


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(["validate", str(path)])
    assert code == EXIT_PARSE


ROOT = Path(__file__).resolve().parents[1]
_ONE_DIM_ALGEBRA = {"dim": 1, "unit": ["1"], "mult": [[["1"]]]}
_ZERO_FORMS = {"dim": 0, "left": [[]], "right": [[]], "d": []}
# functions on two points with one one-form w = e0 d(e1): e0 w = w = w e1, d(e1) = w = -d(e0)
_TWO_POINTS = {"dim": 2, "unit": ["1", "1"],
               "mult": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]}
_ONE_EDGE_FORMS = {"dim": 1, "left": [[["1"]], [["0"]]], "right": [[["0"]], [["1"]]],
                   "d": [["-1", "1"]]}
_QUAT_SPEC = json.loads((ROOT / "perfbench" / "quaternion.json").read_text())


_Z4 = cayley_spec(4, [1, 3])  # eight one-forms
_Z4_FORMS = _Z4["omega1"]
_Z4_LEFT0, _Z4_LEFT_REST = _Z4_FORMS["left"][0], _Z4_FORMS["left"][1:]
_FRAME_LAYOUT = ("leftFrameSize must be an integer n >= 1 with the one-forms laid out as "
                 "a theta_t at t * algebra dim + a, t < n; got %s")


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param({}, "missing 'algebra' or 'omega1' section", id="empty"),
        pytest.param([], "top level must be an object", id="top-level-not-an-object"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, basis=5), "omega1": _ZERO_FORMS},
                     "algebra unit and basis must be lists of length dim",
                     id="basis-not-a-list"),
        pytest.param({"algebra": {"dim": 1, "unit": ["1"]}, "omega1": _ZERO_FORMS},
                     "algebra section needs dim, unit, mult", id="algebra-without-mult"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, mult=[]), "omega1": _ZERO_FORMS},
                     "mult must be a rank-3 array of shape dim^3", id="mult-no-planes"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, mult=[[]]), "omega1": _ZERO_FORMS},
                     "mult plane 0 has wrong shape", id="mult-plane-empty"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, mult=[["1"]]), "omega1": _ZERO_FORMS},
                     "expected a list of length 1", id="mult-column-not-a-list"),
        pytest.param({"algebra": _ONE_DIM_ALGEBRA, "omega1": {"dim": 0}},
                     "omega1 section needs dim, left, right, d", id="omega1-without-actions"),
        pytest.param({"algebra": _ONE_DIM_ALGEBRA, "omega1": dict(_ZERO_FORMS, left=7)},
                     "omega1 needs one action matrix per algebra basis element",
                     id="left-not-a-list"),
        pytest.param({"algebra": _ONE_DIM_ALGEBRA, "omega1": dict(_ZERO_FORMS, right=7)},
                     "omega1 needs one action matrix per algebra basis element",
                     id="right-not-a-list"),
        pytest.param(dict(_Z4, omega1=dict(_Z4_FORMS, left=[_Z4_LEFT0[:7]] + _Z4_LEFT_REST)),
                     "omega1.left[0]: expected 8 rows", id="left-action-short"),
        pytest.param(dict(_Z4, omega1=dict(_Z4_FORMS, left=[[r[:7] for r in _Z4_LEFT0]]
                                           + _Z4_LEFT_REST)),
                     "omega1.left[0]: expected 8 columns", id="left-action-narrow"),
        pytest.param(dict(_Z4, omega1=dict(_Z4_FORMS, d=_Z4_FORMS["d"][:7])),
                     "omega1.d: expected 8 rows", id="d-short"),
        pytest.param({"algebra": _ONE_DIM_ALGEBRA, "omega1": _ZERO_FORMS, "leftFrameSize": "x"},
                     _FRAME_LAYOUT % "'x'", id="frame-not-an-int"),
        pytest.param({"algebra": _ONE_DIM_ALGEBRA, "omega1": _ZERO_FORMS, "leftFrameSize": 99},
                     _FRAME_LAYOUT % 99, id="frame-too-large"),
        pytest.param({"algebra": _ONE_DIM_ALGEBRA, "omega1": _ZERO_FORMS, "maxDegree": True},
                     "maxDegree must be a positive integer", id="max-degree-bool"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, basis=[1]), "omega1": _ZERO_FORMS},
                     "algebra basis names must be strings", id="basis-name-not-a-string"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, basis=[]), "omega1": _ZERO_FORMS},
                     "algebra unit and basis must be lists of length dim", id="basis-empty"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, basis=None), "omega1": _ZERO_FORMS},
                     "algebra unit and basis must be lists of length dim", id="basis-null"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, unit=[True]), "omega1": _ZERO_FORMS},
                     "bad rational True: expected an integer, 'p' or 'p/q'", id="unit-bool"),
        pytest.param({"algebra": dict(_ONE_DIM_ALGEBRA, dim=True), "omega1": _ZERO_FORMS},
                     "algebra dim must be a positive integer", id="algebra-dim-bool"),
        pytest.param({"algebra": _TWO_POINTS, "omega1": dict(_ONE_EDGE_FORMS, dim=True)},
                     "omega1 dim must be a nonnegative integer", id="omega1-dim-bool"),
        pytest.param(dict(_QUAT_SPEC, algebra=dict(_QUAT_SPEC["algebra"], unit="1000")),
                     "algebra unit and basis must be lists of length dim", id="unit-string"),
    ],
)
def test_validate_schema_error(tmp_path, doc, message):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == (EXIT_PARSE, "parse error: %s\n" % message)


def test_validate_unreadable_path(tmp_path):
    path = str(tmp_path / "missing.json")
    assert run(["validate", path]) == (
        EXIT_PARSE, "parse error: cannot read %s: [Errno 2] No such file or directory: %r\n"
        % (path, path))


@pytest.mark.parametrize("op_doc, message", [
    pytest.param([], "operator document must be an object", id="not-an-object"),
    pytest.param({"source": "jets", "matrix": [["1"] * 4] * 4},
                 "only operators on the base module are supported", id="off-the-base"),
])
def test_quantize_operator_schema_error(tmp_path, op_doc, message):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op_doc))
    assert run(["quantize", "quaternion", "--op", str(path), "--json"]) == (
        EXIT_PARSE, "parse error: %s\n" % message)


def _swap_first_two_forms(doc):
    """The same calculus with one-form basis vectors 0 and 1 swapped."""
    order = [1, 0] + list(range(2, doc["omega1"]["dim"]))

    def conj(mat):
        return [[mat[r][c] for c in order] for r in order]

    om = doc["omega1"]
    return dict(doc, omega1=dict(om, left=[conj(m) for m in om["left"]],
                                 right=[conj(m) for m in om["right"]],
                                 d=[om["d"][r] for r in order]))


@pytest.mark.parametrize("doc", [
    pytest.param(_swap_first_two_forms(_QUAT_SPEC), id="frame-basis-swapped"),
    pytest.param(dict(_QUAT_SPEC, leftFrameSize=1), id="frame-too-small"),
])
def test_left_frame_size_must_describe_the_layout(tmp_path, doc):
    """Both are valid calculi whose one-forms are not laid out as a . theta_t."""
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    code, out = run(["validate", str(path)])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: leftFrameSize") and out.count("\n") == 1
    path.write_text(json.dumps({k: v for k, v in doc.items() if k != "leftFrameSize"}))
    assert run(["validate", str(path)]) == (EXIT_PASS, "ok\n")


def test_schema_error_documents_are_valid_once_repaired(tmp_path):
    """The bool and string cases above differ from valid specs only in that one value."""
    for doc in ({"algebra": _ONE_DIM_ALGEBRA, "omega1": _ZERO_FORMS},
                {"algebra": _TWO_POINTS, "omega1": _ONE_EDGE_FORMS}, _QUAT_SPEC):
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == (EXIT_PASS, "ok\n")


@pytest.mark.parametrize("entry", ["1.5", "1e10000000"])
def test_spec_rationals_take_only_the_integer_forms(tmp_path, entry):
    """A decimal or an exponent is refused at once, before its digits are expanded."""
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({"algebra": dict(_ONE_DIM_ALGEBRA, unit=[entry]),
                                "omega1": _ZERO_FORMS}))
    start = time.perf_counter()
    code, out = run(["validate", str(path)])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_PARSE, "parse error: bad rational %r: expected an integer, "
                                       "'p' or 'p/q'\n" % entry)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.builds("".join, st.tuples(st.sampled_from(["", "-"]), _DIGITS,
                                               st.sampled_from(["", "/"]), _DIGITS)),
                 st.text(alphabet="0123456789-/+ _.e\u0661\u00b2\n", max_size=7)))
@example("+1")
@example(" 1")
@example("1_0")
@example("\u0661")
@example("1/0")
@example("-0/0")
def test_parse_rat_takes_exactly_its_pattern(text):
    """A string is read exactly when it matches -?[0-9]+(/[0-9]+)? with a nonzero
    denominator, as that rational; a zero denominator keeps the scalar backend's message."""
    num, _, den = text.partition("/")
    if not _RATIONAL.fullmatch(text):
        with pytest.raises(SpecParseError) as exc:
            parse_rat(text)
        assert str(exc.value) == "bad rational %r: expected an integer, 'p' or 'p/q'" % text
    elif den and not int(den):
        with pytest.raises(ZeroDivisionError) as zero:
            rat(text)
        with pytest.raises(SpecParseError) as exc:
            parse_rat(text)
        assert str(exc.value) == "bad rational %r: %s" % (text, zero.value)
    else:
        got = parse_rat(text)
        assert got == Fraction(text) and (type(got) is int) == (Fraction(text).denominator == 1)


@pytest.mark.parametrize("text", ["1" * 5000, "-" + "1" * 5000, "1/" + "2" * 5000,
                                  "3" * 5000 + "/" + "2" * 6000, "1" * 4300])
def test_parse_rat_refuses_long_digit_strings_as_int_does(text):
    """A digit string longer than int() reads is refused with int()'s own message."""
    try:
        want = Fraction(text)
    except ValueError as exc:
        with pytest.raises(SpecParseError) as got:
            parse_rat(text)
        assert str(got.value) == "bad rational %r: %s" % (text, exc)
    else:
        assert parse_rat(text) == want


@pytest.mark.parametrize("hbar", ["abc", "1/0"])
def test_quantize_bad_hbar_is_a_parse_error(hbar):
    code, out = run(["quantize", "quaternion", "--hbar", hbar])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: bad rational %r" % hbar) and out.count("\n") == 1


def test_each_tensor_presentation_is_built_once(monkeypatch):
    """The tower and the braided solver share every presentation of a module pair."""
    import ncjet.algebra
    import ncjet.cli
    from ncjet.algebra import matrix_algebra
    from ncjet.calculus import universal_calculus

    built = []
    tensor_space = ncjet.algebra.tensor_space

    def spy(m, n):
        built.append((m, n))
        return tensor_space(m, n)

    monkeypatch.setattr(ncjet.algebra, "tensor_space", spy)
    calc = universal_calculus(matrix_algebra(2))
    monkeypatch.setattr(ncjet.cli, "_load_calculus", lambda ref: calc)
    code, _ = run(["connections", "matrix2-universal", "--bimodule", "--json"])
    assert code == EXIT_PASS
    assert built and len(set(built)) == len(built)


def test_second_spencer_pass_builds_no_wedge_contraction(monkeypatch):
    """bicomplex_report reads each delta contraction from the calculus memo."""
    import ncjet.cli
    import ncjet.jets
    from ncjet.calculus import quaternion_calculus

    built = []
    exterior_operator = ncjet.jets.exterior_operator

    def spy(calc, m, dom, low, pi, d0, what):
        if what == "wedge contraction":
            built.append((m, dom))
        return exterior_operator(calc, m, dom, low, pi, d0, what)

    monkeypatch.setattr(ncjet.jets, "exterior_operator", spy)
    calc = quaternion_calculus()
    monkeypatch.setattr(ncjet.cli, "_load_calculus", lambda ref: calc)
    first = run(["spencer", "quaternion", "--order", "3", "--json"])
    assert first[0] == EXIT_PASS and built
    del built[:]
    assert run(["spencer", "quaternion", "--order", "3", "--json"]) == first
    assert built == []


def test_second_jets_and_spencer_pass_adds_no_span_row(monkeypatch):
    """Every result jets and spencer report is kept on the calculus: a second pass
    eliminates nothing."""
    import ncjet.cli
    import ncjet.linalg
    from ncjet.calculus import quaternion_calculus

    calls = []
    add = ncjet.linalg.SpanBuilder.add
    monkeypatch.setattr(ncjet.linalg.SpanBuilder, "add",
                        lambda self, v: calls.append(1) or add(self, v))
    calc = quaternion_calculus()
    monkeypatch.setattr(ncjet.cli, "_load_calculus", lambda ref: calc)
    session = [["jets", "quaternion", "--order", "3", "--json"],
               ["spencer", "quaternion", "--order", "3", "--json"]]
    first = [run(argv) for argv in session]
    assert [code for code, _ in first] == [EXIT_PASS, EXIT_PASS] and calls
    del calls[:]
    assert [run(argv) for argv in session] == first
    assert calls == []


@pytest.mark.parametrize("control_first", [True, False])
@pytest.mark.parametrize("clean, control", [
    (["spencer", "quaternion", "--order", "3", "--json"], "--corrupt-sign"),
    (["demo", "quaternion", "--json"], "--corrupt"),
])
def test_negative_control_and_clean_run_share_a_calculus_without_stale_hits(
        monkeypatch, clean, control, control_first):
    """On one calculus, in either order, the clean command prints its golden output and
    the negative control prints what it prints on a calculus of its own."""
    import ncjet.cli
    import ncjet.demo
    from ncjet.calculus import quaternion_calculus

    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())[" ".join(clean)]
    calcs = [quaternion_calculus()]
    for module, name in ((ncjet.cli, "_load_calculus"), (ncjet.demo, "fixture")):
        monkeypatch.setattr(module, name, lambda ref: calcs[-1])
    alone = run(clean + [control])
    calcs.append(quaternion_calculus())
    order = [clean + [control], clean] if control_first else [clean, clean + [control]]
    got = {tuple(argv): run(argv) for argv in order}
    assert got[tuple(clean + [control])] == alone and alone[0] == EXIT_FAIL
    code, out = got[tuple(clean)]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (golden["exit"],
                                                                golden["sha256"])


def test_demo_computes_each_generator_star_product_once():
    """demo evaluates 50 star products at three values of hbar, on the 16 ordered pairs
    of the four star generators; each formal product is computed once."""
    script = "\n".join([
        "import ncjet.quantization as q",
        "calls = []",
        "star_poly = q.Quantization.star_poly",
        "q.Quantization.star_poly = lambda self, a, b: calls.append(1) or star_poly(self, a, b)",
        "from ncjet.demo import demo_quaternion",
        "demo_quaternion()",
        "print(len(calls))"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "16\n"), done.stderr


def test_validate_dimension_cap_breach_is_invalid_input(quat_spec_path, monkeypatch):
    # the first presentation, Omega^1 (x) Omega^1, has 8 x 8 plain tensors
    monkeypatch.setenv("NCJET_MAX_DIM", "16")
    code, out = run(["validate", quat_spec_path])
    assert code == EXIT_INVALID
    assert out.startswith("invalid input:") and "exceeds cap 16" in out


def test_huge_max_degree_stops_at_the_first_degree_that_fails(tmp_path, monkeypatch, two_point):
    """The two-point forms stay 2-dimensional and the tower is valid in every degree,
    so a maxDegree of 10^6 would be a request for 10^6 degrees; the degree is bounded
    by the cap that bounds the matrices, and checked before the tower is built."""
    import ncjet.calculus

    doc = serialize_calculus(two_point)
    doc["maxDegree"] = 1000000
    path = tmp_path / "deep.json"
    path.write_text(dump_json(doc))
    built = []
    quotient_data = ncjet.calculus.quotient_data

    def spy(rel):  # called once per degree >= 2, as it lands
        built.append(rel.ambient)
        return quotient_data(rel)

    monkeypatch.setattr(ncjet.calculus, "quotient_data", spy)
    monkeypatch.delenv("NCJET_MAX_DIM", raising=False)
    assert run(["validate", str(path)]) == (
        EXIT_INVALID, "invalid input: tower degree 1000000 exceeds cap 4096\n")
    assert built == []


def test_s3_tower_stops_at_the_plain_product_past_degree_5(tmp_path, monkeypatch):
    """S3's forms (6, 18, 42, 90, 186, 378) land through degree 5; degree 6 needs
    the plain product omega_5 (x) omega1 = 378 x 18, which breaks the default cap."""
    import ncjet.calculus

    path = tmp_path / "s3.json"
    path.write_text(dump_json(group_spec(*symmetric_group(3), max_degree=6)))
    landed = []
    quotient_data = ncjet.calculus.quotient_data

    def spy(rel):
        out = quotient_data(rel)
        landed.append(out[0].rows)
        return out

    monkeypatch.setattr(ncjet.calculus, "quotient_data", spy)
    monkeypatch.delenv("NCJET_MAX_DIM", raising=False)
    assert run(["validate", str(path)]) == (
        EXIT_INVALID, "invalid input: plain tensor product 378 x 18 exceeds cap 4096\n")
    assert landed == [42, 90, 186, 378]


def test_oversized_tensor_product_is_refused_before_eliminating(quat_spec_path, quat,
                                                               monkeypatch):
    import ncjet.algebra
    from ncjet.linalg import DimensionCapError, SpanBuilder

    added = []

    class Spy(SpanBuilder):
        def add(self, v):
            added.append(self.ambient)
            return super().add(v)

    monkeypatch.setattr(ncjet.algebra, "SpanBuilder", Spy)
    # Omega^1 has dimension 8: A (x) A and every matrix before the first
    # tensor product fit under 63, and Omega^1 (x) Omega^1 is 64 plain
    monkeypatch.setenv("NCJET_MAX_DIM", "63")
    with pytest.raises(DimensionCapError, match="8 x 8 exceeds cap 63"):
        parse_calculus_spec(serialize_calculus(quat))
    assert added == []
    code, out = run(["validate", quat_spec_path])
    assert code == EXIT_INVALID
    assert out == "invalid input: plain tensor product 8 x 8 exceeds cap 63\n"
    assert added == []


def test_max_degree_one_spec_stops_the_tower(tmp_path, two_point):
    doc = serialize_calculus(two_point)
    doc["maxDegree"] = 1
    path = tmp_path / "flat.json"
    path.write_text(dump_json(doc))
    code, out = run(["jets", str(path)])
    assert code == EXIT_INVALID
    assert out == "invalid input: degree 2 outside tower (max 1)\n"
    code, _ = run(["jets", str(path), "--order", "1"])
    assert code == EXIT_PASS
    again = serialize_calculus(parse_calculus_spec(doc))
    assert again["maxDegree"] == 1
    assert serialize_calculus(parse_calculus_spec(again)) == again


def test_bimodule_connections_on_a_degree_one_spec(tmp_path, two_point):
    """The braided system needs no two-forms; the metric, torsion and curvature do."""
    doc = serialize_calculus(two_point)
    doc["maxDegree"] = 1
    path = tmp_path / "flat.json"
    path.write_text(dump_json(doc))
    code, out = run(["connections", str(path), "--bimodule", "--json"])
    assert code == EXIT_PASS
    flat = json.loads(out)
    _, full_out = run(["connections", "two-point-universal", "--bimodule", "--json"])
    full = json.loads(full_out)
    assert flat["affine_dim"] == full["affine_dim"] == 2
    assert flat["representative_connection"] == full["representative_connection"]
    assert not flat.keys() & {"metric_candidate_dim", "torsion_zero", "curvature_zero",
                              "metric_parallel"}


def test_spencer_run_builds_no_float_matrix(quat_spec_path, monkeypatch):
    """Every matrix born during a fresh spencer run holds ints and non-integral rationals."""
    from ncjet.linalg import Mat

    kinds = {}
    born = Mat._init

    def spy(self, rows, cols, nz):
        born(self, rows, cols, nz)
        for row in self.nz:
            for x in row.values():
                kind = "int" if type(x) is int else type(x).__name__
                if kind != "int" and x.denominator == 1:
                    kind = "integral " + kind
                kinds[kind] = kinds.get(kind, 0) + 1

    monkeypatch.setattr(Mat, "_init", spy)
    code, _ = run(["spencer", quat_spec_path, "--order", "2"])
    assert code == EXIT_PASS
    assert kinds.get("int", 0) > 10000
    assert set(kinds) <= {"int", "Fraction", "mpq"}, kinds


def test_sheared_spencer_report_equals_unsheared(tmp_path, sheared_quat_doc, monkeypatch):
    """The non-integral path end to end: same report in sheared coordinates."""
    from ncjet.linalg import Mat

    path = tmp_path / "sheared.json"
    path.write_text(dump_json(sheared_quat_doc))
    non_integral = []
    born = Mat._init

    def spy(self, rows, cols, nz):
        born(self, rows, cols, nz)
        if any(type(x) is not int for row in self.nz for x in row.values()):
            non_integral.append((rows, cols))

    monkeypatch.setattr(Mat, "_init", spy)
    code, sheared = run(["spencer", str(path), "--order", "3", "--json"])
    monkeypatch.undo()
    assert code == EXIT_PASS
    assert non_integral
    code, plain = run(["spencer", "quaternion", "--order", "3", "--json"])
    assert code == EXIT_PASS
    reports = [json.loads(out) for out in (sheared, plain)]
    for doc in reports:
        del doc["calculus"]
    assert reports[0] == reports[1]


def test_one_process_runs_commands_as_separate_processes_do(capsys):
    """main reuses one parser: jets, spencer and an unknown subcommand, run in turn in this
    process, give the exit codes and output of three fresh processes."""
    commands = [["jets", "quaternion", "--order", "2", "--json"],
                ["spencer", "quaternion", "--order", "2", "--json"],
                ["frobnicate", "quaternion"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands:
        fresh = subprocess.run([sys.executable, "-m", "ncjet.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        if argv[0] == "frobnicate":
            with pytest.raises(SystemExit) as exc:
                run(argv)
            got, want = (exc.value.code, capsys.readouterr().err), (fresh.returncode, fresh.stderr)
            assert got[0] == 2 and "invalid choice: 'frobnicate'" in got[1]
        else:
            got, want = run(argv), (fresh.returncode, fresh.stdout)
        assert got == want


def test_jets_quaternion_table():
    code, out = run(["jets", "quaternion", "--order", "3", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    jet_dims = [r["jet_dim"] for r in doc["orders"]]
    sym_dims = [r["sym_dim"] for r in doc["orders"]]
    assert jet_dims == [4, 12, 16, 16]
    assert sym_dims == [4, 8, 4, 0]
    assert all(r.get("exact", True) for r in doc["orders"])
    assert all(r.get("elemental_equal", True) for r in doc["orders"])


def test_jets_order_zero_trivial():
    code, out = run(["jets", "two-point-universal", "--order", "0", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["orders"] == [{"order": 0, "jet_dim": 2, "sym_dim": 2}]


@pytest.mark.parametrize("command, order, least", [
    ("jets", -1, 0), ("spencer", 0, 1), ("spencer", -2, 1)])
def test_order_below_the_command_floor_is_invalid_input(command, order, least):
    code, out = run([command, "quaternion", "--order", str(order), "--json"])
    assert (code, out) == (
        EXIT_INVALID, "invalid input: --order must be at least %d, not %d\n" % (least, order))


def test_spencer_order_above_the_tower_is_refused_up_front():
    """The refusal names --order, not a degree the command reached after computing."""
    code, out = run(["spencer", "quaternion", "--order", "5", "--json"])
    assert code == EXIT_INVALID
    assert out == ("invalid input: --order 5 needs forms of degree 5;"
                   " the tower stops at degree 3\n")


def test_spencer_quaternion_cohomology_vanishes():
    code, out = run(["spencer", "quaternion", "--order", "2", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    for entry in doc["complexes"]:
        assert entry["is_complex"]
        assert all(d == 0 for d in entry["cohomology"])
    assert doc["bicomplex"]["all_pass"]


def test_spencer_corrupt_sign_shows_failing_cell():
    code, out = run(["spencer", "quaternion", "--order", "2", "--json", "--corrupt-sign"])
    assert code == EXIT_FAIL
    doc = json.loads(out)
    failing = [c for c in doc["bicomplex"]["cells"] if not c["pass"]]
    assert failing
    assert any("left square" in c["cell"] for c in failing)


def test_connections_report_quaternion():
    code, out = run(["connections", "quaternion", "--bimodule", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "bimodule"
    # the family is 24-dimensional (see DECISIONS.md); the canonical
    # representative still has vanishing torsion obstructions reported
    assert doc["affine_dim"] == 24
    assert doc["metric_candidate_dim"] == 4


def test_connections_left_only():
    code, out = run(["connections", "quaternion", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "left"
    assert doc["affine_dim"] == 8


def test_quantize_operator_decomposition(tmp_path):
    op_doc = {
        "source": "base",
        "target": "base",
        # left multiplication by k on the basis (1, i, j, k)
        "matrix": [["0", "0", "0", "-1"],
                   ["0", "0", "-1", "0"],
                   ["0", "1", "0", "0"],
                   ["1", "0", "0", "0"]],
    }
    path = tmp_path / "lk.json"
    path.write_text(dump_json(op_doc))
    code, out = run(["quantize", "quaternion", "--op", str(path), "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["operator"]["order"] == 2
    comps = {c["degree"]: c["matrix"] for c in doc["operator"]["components"]}
    # rows of the order-2 component: value at k is -4 (real part row picks it up)
    assert comps[2][0] == ["0", "0", "0", "-4"]
    assert comps[2][1] == comps[2][2] == comps[2][3] == ["0", "0", "0", "0"]
    # order-0 component is right multiplication by k
    assert comps[0] == [["0", "0", "0", "-1"],
                       ["0", "0", "1", "0"],
                       ["0", "-1", "0", "0"],
                       ["1", "0", "0", "0"]]


def test_quantize_star_table_hbar_zero_is_symbol_products():
    code0, out0 = run(["quantize", "quaternion", "--star-gens", "--hbar", "0", "--json"])
    assert code0 == EXIT_PASS
    doc = json.loads(out0)
    table = {(e["left"], e["right"]): e for e in doc["star_table"]}
    # p_i * p_i vanishes identically
    assert table[("p_i", "p_i")]["degrees"] == []
    # p_i * x_i at zero parameter has no degree-0 unit shift
    assert table[("p_i", "x_i")]["degrees"] == [1]


def test_quantize_star_table_hbar_value():
    code, out = run(["quantize", "quaternion", "--star-gens", "--hbar", "2/3", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    table = {(e["left"], e["right"]): e for e in doc["star_table"]}
    entry = table[("p_i", "x_i")]
    assert entry["degrees"] == [0, 1]
    # the degree-0 part is (2/3) times the identity
    deg0 = entry["parts"]["0"]
    assert deg0[0][0] == "2/3" and deg0[1][1] == "2/3"


def test_json_outputs_are_deterministic():
    for argv in (
        ["jets", "quaternion", "--order", "2", "--json"],
        ["spencer", "two-point-universal", "--order", "2", "--json"],
        ["connections", "quaternion", "--bimodule", "--json"],
    ):
        c1, o1 = run(argv)
        c2, o2 = run(argv)
        assert (c1, o1) == (c2, o2)


def test_dump_fixture_round_trip(quat):
    code, out = run(["dump-fixture", "quaternion"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    calc = parse_calculus_spec(doc)
    assert [calc.omega[n].dim for n in range(4)] == [4, 8, 12, 16]
    # identical computation after the round trip
    assert serialize_calculus(calc) == doc


def test_demo_reports_known_discrepancy_only():
    code, out = run(["demo", "quaternion", "--json"])
    doc_lines = out.rsplit("\n", 2)
    doc = json.loads(out[: out.rindex("}") + 1])
    failing = [c["claim"] for c in doc["claims"] if not c["pass"]]
    assert failing == ["braided connections form a zero-dimensional family"]
    assert code == EXIT_FAIL


def test_demo_corrupt_adds_failures():
    code, out = run(["demo", "quaternion", "--json", "--corrupt"])
    assert code == EXIT_FAIL
    doc = json.loads(out[: out.rindex("}") + 1])
    failing = [c["claim"] for c in doc["claims"] if not c["pass"]]
    assert "braiding flips frame pairs with a sign" in failing


def test_demo_unknown_name():
    code, out = run(["demo", "octonion"])
    assert code == EXIT_INVALID


def test_connections_on_degenerate_calculus(tmp_path):
    # one-dimensional algebra with no one-forms: the unique connection is trivial
    doc = {
        "algebra": {"dim": 1, "basis": ["1"], "unit": ["1"], "mult": [[["1"]]]},
        "omega1": {"dim": 0, "left": [[]], "right": [[]], "d": []},
        "maxDegree": 2,
    }
    path = tmp_path / "point.json"
    path.write_text(dump_json(doc))
    code, out = run(["connections", str(path), "--json"])
    assert code == EXIT_PASS
    parsed = json.loads(out)
    assert parsed["affine_dim"] == 0
    code, out = run(["jets", str(path), "--order", "2", "--json"])
    assert code == EXIT_PASS
    parsed = json.loads(out)
    assert [r["jet_dim"] for r in parsed["orders"]] == [1, 1, 1]


@pytest.mark.parametrize("name", ["quaternion", "two-point-universal", "matrix2-universal"])
def test_quantize_spec_file_matches_fixture(tmp_path, name):
    code, spec = run(["dump-fixture", name])
    assert code == EXIT_PASS
    path = tmp_path / "spec.json"
    path.write_text(spec)
    extra = ["--star-gens"] if name == "quaternion" else []
    reports = []
    for ref in (name, str(path)):
        code, out = run(["quantize", ref, "--hbar", "2/3", "--json"] + extra)
        assert code == EXIT_PASS, out
        reports.append(json.loads(out))
    fixture_doc, spec_doc = reports
    assert fixture_doc.pop("calculus") != spec_doc.pop("calculus") == str(path)
    assert fixture_doc == spec_doc


def test_quantize_cayley_z4_spec(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(dump_json(cayley_spec(4, [1, 3])))
    code, out = run(["quantize", str(path), "--star-gens", "--json"])
    assert code == EXIT_PASS, out
    doc = json.loads(out)
    assert doc["order_cap"] == 3
    assert {e["left"] for e in doc["star_table"]} == {"p_0", "p_1"}
    assert {e["right"] for e in doc["star_table"]} == {"p_0", "p_1"}


def test_quantize_directed_cycle_refuses(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(dump_json(cayley_spec(4, [1])))
    code, out = run(["quantize", str(path), "--json"])
    assert code == EXIT_INVALID
    assert "jet lifts are not unique at order 4" in out


@pytest.fixture(scope="module")
def lattice_path(tmp_path_factory):
    """Path of the spec of the directed cycle Z/n {1}, a one-dimensional lattice."""
    def path(n):
        out = tmp_path_factory.mktemp("lattice") / ("z%d.json" % n)
        out.write_text(dump_json(cayley_spec(n, [1])))
        return str(out)

    return path


@pytest.mark.parametrize("n", [5, 6, 8])
def test_lattice_jets_grow_by_one_copy_per_order_below_n(lattice_path, n):
    code, out = run(["jets", lattice_path(n), "--order", str(n - 1), "--json"])
    assert code == EXIT_PASS
    rows = json.loads(out)["orders"]
    assert [(r["jet_dim"], r["sym_dim"]) for r in rows] == [(n * (k + 1), n) for k in range(n)]
    assert all(r["exact"] and r["elemental_equal"] for r in rows[1:])


@pytest.mark.parametrize("n", [5, 6, 8])
def test_lattice_spencer_complexes_are_exact_below_n(lattice_path, n):
    code, out = run(["spencer", lattice_path(n), "--order", "2", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert all(not any(c["cohomology"]) for c in doc["complexes"])
    assert doc["bicomplex"]["all_pass"]


@pytest.fixture(scope="module")
def square_lattice_path(tmp_path_factory):
    """Path of the spec of Z/4 x Z/4 {(1,0), (0,1)}, a two-dimensional lattice."""
    out = tmp_path_factory.mktemp("lattice") / "z4xz4.json"
    table = direct_product(cyclic_group(4), cyclic_group(4))
    out.write_text(dump_json(group_spec(table, [4, 1])))
    return str(out)


def test_square_lattice_jets_at_order_3(square_lattice_path):
    # Jets of order k are |G| copies of the polynomials of degree <= k in two
    # variables, symbols |G| copies of those of degree exactly k.
    code, out = run(["jets", square_lattice_path, "--order", "3", "--json"])
    assert code == EXIT_PASS
    rows = json.loads(out)["orders"]
    assert [r["jet_dim"] for r in rows] == [16, 48, 96, 160]
    assert [r["sym_dim"] for r in rows] == [16, 32, 48, 64]
    assert all(r["exact"] and r["elemental_equal"] for r in rows[1:])


def test_square_lattice_spencer_at_order_3(square_lattice_path):
    code, out = run(["spencer", square_lattice_path, "--order", "3", "--json"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert [c["order"] for c in doc["complexes"]] == [1, 2, 3]
    assert all(not any(c["cohomology"]) for c in doc["complexes"])
    assert doc["bicomplex"]["all_pass"]


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_lattice_jets_at_order_n_are_not_elemental(lattice_path, n):
    code, out = run(["jets", lattice_path(n), "--order", str(n), "--json"])
    assert code == EXIT_FAIL
    rows = json.loads(out)["orders"]
    assert [r["elemental_equal"] for r in rows[1:]] == [True] * (n - 1) + [False]


def test_quantize_lattice_z3_refuses(lattice_path):
    assert run(["quantize", lattice_path(3), "--json"]) == (
        EXIT_INVALID, "invalid input: jet lifts are not unique at order 3; quantization refuses "
        "to pick silently\n")


def test_quantize_refuses_a_declared_frame_whose_parallel_connection_has_no_braiding(
        tmp_path, reframed_quat_doc):
    # On the frame ((1 + i) di, dj), keeping (1 + i) di parallel gives
    # nabla(di) = -(1 - i)/2 di (x) di, whose coefficient has real part -1/2, so the
    # braided connections (the quaternion's 24-dimensional family) miss it.
    path = tmp_path / "reframed.json"
    path.write_text(dump_json(reframed_quat_doc))
    assert run(["validate", str(path)]) == (EXIT_PASS, "ok\n")
    code, out = run(["connections", str(path), "--bimodule", "--json"])
    assert code == EXIT_PASS
    assert json.loads(out)["affine_dim"] == 24
    assert run(["quantize", str(path), "--json"]) == (
        EXIT_INVALID, "invalid input: no frame-parallel braided connection exists: "
        "bimodule connection fails: braiding not right-linear at i\n")


def test_star_gens_refuse_a_repeated_label(tmp_path, quat):
    doc = serialize_calculus(quat)
    doc["algebra"]["basis"] = ["1", "x", "x", "k"]  # d(i) and d(j) both named x
    path = tmp_path / "named.json"
    path.write_text(dump_json(doc))
    code, out = run(["quantize", str(path), "--star-gens", "--json"])
    assert code == EXIT_INVALID
    assert "star generator label 'x' is used twice" in out


def test_star_gens_need_a_left_frame():
    code, out = run(["quantize", "two-point-universal", "--star-gens", "--json"])
    assert code == EXIT_INVALID
    assert "calculus has no declared left frame" in out


_S3_COMMANDS = {"connections": ["--bimodule", "--json"], "quantize": ["--star-gens", "--json"]}


@pytest.fixture(scope="module")
def s3_spec_path(tmp_path_factory):
    """The Cayley calculus of S3 with its three transpositions: 6 points, 18 one-forms."""
    path = tmp_path_factory.mktemp("specs") / "s3.json"
    path.write_text(dump_json(group_spec(*symmetric_group(3))))
    return str(path)


@pytest.fixture(scope="module")
def s3_reports(s3_spec_path):
    return {cmd: run([cmd, s3_spec_path] + extra) for cmd, extra in _S3_COMMANDS.items()}


def test_s3_braided_connections_and_quantization_at_the_default_cap(s3_reports):
    (code_c, conn), (code_q, quant) = s3_reports["connections"], s3_reports["quantize"]
    assert (code_c, code_q) == (EXIT_PASS, EXIT_PASS), conn + quant
    assert json.loads(conn)["affine_dim"] == 162
    assert json.loads(quant)["order_cap"] == 3


def test_s3_cap_bounds_the_braided_unknowns_not_kronecker_intermediates(
        s3_spec_path, s3_reports, monkeypatch):
    """The largest object each S3 command builds, from a census of the cap.

    `connections --bimodule` reports the (connection, braiding) family,
    whose 3,888 unknowns are its ambient dimension.  `quantize --star-gens`
    solves for the connection alone and reads the braiding off it, so its
    largest object is a plain tensor product, 42 x 24 = 1,008: two-forms
    (x) J^1, which the Spencer operator of J^2 needs.
    """
    largest = {"connections": ("ambient dimension 3888", 3888),
               "quantize": ("plain tensor product 42 x 24", 1008)}
    for cmd, extra in _S3_COMMANDS.items():
        what, size = largest[cmd]
        monkeypatch.setenv("NCJET_MAX_DIM", str(size - 1))
        assert run([cmd, s3_spec_path] + extra) == (
            EXIT_INVALID, "invalid input: %s exceeds cap %d\n" % (what, size - 1))
        monkeypatch.setenv("NCJET_MAX_DIM", str(size))
        assert run([cmd, s3_spec_path] + extra) == s3_reports[cmd]


GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command):
    """In-process output of every benchmark command matches its recorded digest."""
    expected = GOLDEN[command]
    code, out = run(command.split())
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]
