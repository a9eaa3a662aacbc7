"""JSON input/output for calculi and operators.

Rationals are serialized as decimal-free "p" or "p/q" strings, and only those
forms (or JSON integers) are read back; no floats appear in any document.
A calculus file carries the algebra structure constants, the one-form
bimodule actions, and the differential; parsing re-validates all axioms.
"""

from __future__ import annotations

import json

from .linalg import Mat, kron, rat, rat_str
from .algebra import Algebra, Bimodule
from .calculus import Calculus, build_calculus


class SpecParseError(Exception):
    """Malformed document (JSON or schema level)."""


def _digits(s):
    """True for a nonempty string of ASCII digits (str.isdigit alone takes other scripts)."""
    return s.isascii() and s.isdigit()


def parse_rat(x):
    """A JSON integer, or a string in the 'p' or 'p/q' form that rat_str writes.

    The strings taken are exactly those matching -?[0-9]+(/[0-9]+)?, with q != 0.
    """
    if type(x) is int:  # not bool, which JSON true/false parse to
        return rat(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if _digits(num[1:] if num[:1] == "-" else num) and (not slash or _digits(den)):
            try:
                p = int(num)
                if not slash:
                    return p
                q = int(den)
                # q = 0 goes through rat(x) for the scalar backend's own message
                return rat(p, q) if q else rat(x)
            except (ValueError, ZeroDivisionError) as exc:  # q = 0, or more digits than int() reads
                raise SpecParseError("bad rational %r: %s" % (x, exc))
    raise SpecParseError("bad rational %r: expected an integer, 'p' or 'p/q'" % (x,))


def _matrix_in(rows, nrows, ncols, what):
    if not isinstance(rows, list) or len(rows) != nrows:
        raise SpecParseError("%s: expected %d rows" % (what, nrows))
    data = []
    for r in rows:
        if not isinstance(r, list) or len(r) != ncols:
            raise SpecParseError("%s: expected %d columns" % (what, ncols))
        data.append([parse_rat(x) for x in r])
    return Mat(nrows, ncols, data)


def _matrix_out(m: Mat):
    return [[rat_str(x) for x in row] for row in m.data]


def parse_calculus_spec(doc) -> Calculus:
    """Build and validate a calculus from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise SpecParseError("top level must be an object")
    try:
        alg_doc = doc["algebra"]
        om_doc = doc["omega1"]
    except (KeyError, TypeError):
        raise SpecParseError("missing 'algebra' or 'omega1' section")
    max_degree = doc.get("maxDegree", 3)
    if type(max_degree) is not int or max_degree < 1:
        raise SpecParseError("maxDegree must be a positive integer")
    try:
        dim = alg_doc["dim"]
        unit = alg_doc["unit"]
        mult_rows = alg_doc["mult"]
    except (KeyError, TypeError):
        raise SpecParseError("algebra section needs dim, unit, mult")
    if type(dim) is not int or dim < 1:  # not bool, which JSON true/false parse to
        raise SpecParseError("algebra dim must be a positive integer")
    names = alg_doc.get("basis", ["e%d" % i for i in range(dim)])
    if not all(isinstance(x, list) and len(x) == dim for x in (unit, names)):
        raise SpecParseError("algebra unit and basis must be lists of length dim")
    unit = [parse_rat(x) for x in unit]
    if not all(isinstance(x, str) for x in names):
        raise SpecParseError("algebra basis names must be strings")
    if not isinstance(mult_rows, list) or len(mult_rows) != dim:
        raise SpecParseError("mult must be a rank-3 array of shape dim^3")
    mult = []
    for i, plane in enumerate(mult_rows):
        if not isinstance(plane, list) or len(plane) != dim:
            raise SpecParseError("mult plane %d has wrong shape" % i)
        mult.append([[parse_rat(x) for x in _expect_list(col, dim)] for col in plane])
    algebra = Algebra(dim, names, mult, unit)
    try:
        odim = om_doc["dim"]
        left_docs = om_doc["left"]
        right_docs = om_doc["right"]
        d_doc = om_doc["d"]
    except (KeyError, TypeError):
        raise SpecParseError("omega1 section needs dim, left, right, d")
    if type(odim) is not int or odim < 0:
        raise SpecParseError("omega1 dim must be a nonnegative integer")
    if any(not isinstance(m, list) or len(m) != dim for m in (left_docs, right_docs)):
        raise SpecParseError("omega1 needs one action matrix per algebra basis element")
    left = [_matrix_in(m, odim, odim, "omega1.left[%d]" % i) for i, m in enumerate(left_docs)]
    right = [_matrix_in(m, odim, odim, "omega1.right[%d]" % i) for i, m in enumerate(right_docs)]
    omega1 = Bimodule(algebra, odim, left, right, label="O1")
    d0 = _matrix_in(d_doc, odim, dim, "omega1.d")
    calc = build_calculus(algebra, omega1, d0, max_degree)
    # the layout is read off the algebra's action, so it is checked once the calculus is valid
    frame = doc.get("leftFrameSize")
    if frame is not None and (type(frame) is not int or frame < 1 or frame * dim != odim or any(
            m != kron(Mat.identity(frame), a) for m, a in zip(left, algebra.lmat))):
        raise SpecParseError("leftFrameSize must be an integer n >= 1 with the one-forms laid "
                             "out as a theta_t at t * algebra dim + a, t < n; got %r" % (frame,))
    calc.left_frame_size = frame
    return calc


def _expect_list(x, n):
    if not isinstance(x, list) or len(x) != n:
        raise SpecParseError("expected a list of length %d" % n)
    return x


def serialize_calculus(calc: Calculus) -> dict:
    """Round-trippable document for a built calculus."""
    alg = calc.algebra
    doc = {
        "algebra": {
            "dim": alg.dim,
            "basis": list(alg.basis_names),
            "unit": [rat_str(x) for x in alg.unit],
            "mult": [
                [[rat_str(x) for x in col] for col in plane] for plane in alg.mult
            ],
        },
        "omega1": {
            "dim": calc.omega1.dim,
            "left": [_matrix_out(m) for m in calc.omega1.left],
            "right": [_matrix_out(m) for m in calc.omega1.right],
            "d": _matrix_out(calc.d[0]),
        },
        "maxDegree": calc.max_degree,
    }
    if calc.left_frame_size:
        doc["leftFrameSize"] = calc.left_frame_size
    return doc


def parse_operator_spec(doc, calc: Calculus) -> Mat:
    """Operator on the base module from an {source, target, matrix} document."""
    if not isinstance(doc, dict):
        raise SpecParseError("operator document must be an object")
    src = doc.get("source", "base")
    tgt = doc.get("target", "base")
    if src != "base" or tgt != "base":
        raise SpecParseError("only operators on the base module are supported")
    d = calc.algebra.dim
    return _matrix_in(doc.get("matrix"), d, d, "operator matrix")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SpecParseError("malformed JSON in %s: %s" % (path, exc))


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
