"""Seeded change of basis for a calculus spec file.

The sheared spec describes the same calculus in other coordinates, so every
dimension and verdict ncjet reports on it equals the one on the base spec,
while its matrices are denser and carry larger integers.  Only the standard
library is used: the engine sees nothing but the file this writes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


def _rat_str(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)) if a[i][k]) for j in range(len(b[0]))]
            for i in range(len(a))]


def _shear_pair(n, positions, coeffs):
    """(basis change, inverse) as a product of integer shears.

    The shear at (i, j) with coefficient c replaces basis vector i by
    b_i + c b_j; its inverse uses -c.
    """
    eye = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    fwd, inv = eye, eye
    for (i, j), c in zip(positions, coeffs):
        s = [row[:] for row in eye]
        s[j][i] = Fraction(c)
        s_inv = [row[:] for row in eye]
        s_inv[j][i] = Fraction(-c)
        fwd = _matmul(fwd, s)
        inv = _matmul(s_inv, inv)
    return fwd, inv


# Shear positions are fixed and the seed draws the coefficients.  Which
# basis vectors get mixed decides how dense the presentations become, and
# with it the cost of a job (5.5 to 10.3 s across positions drawn at
# random), so a seed changes the numbers but not the sparsity pattern.
# Algebra basis (1, i, j, k): k += a i, k += b j.  One-form basis t*4+q
# (frame t, quaternion component q): the last vector of frame 1 takes a
# multiple of its neighbour, the first vector of frame 0 a multiple of j di.
ALGEBRA_SHEARS = ((3, 1), (3, 2))
FORM_SHEARS = ((7, 6), (0, 2))
COEFFS = (-3, -2, 2, 3)


def sheared_spec(base: dict, seed: int) -> dict:
    """The calculus of `base` written in a seeded sheared basis.

    P (columns: new algebra basis in old coordinates) and Q (the same for
    the one-forms) transform the structure constants to P^-1 m(P., P.),
    the actions to Q^-1 (sum_k P[k][a] L_k) Q and the differential to
    Q^-1 d P.  The frame declaration is dropped: a sheared one-form basis
    is no longer ordered by frame.
    """
    rng = random.Random(seed)
    alg, om = base["algebra"], base["omega1"]
    n, m = alg["dim"], om["dim"]
    unit = [Fraction(x) for x in alg["unit"]]
    p, p_inv = _shear_pair(n, ALGEBRA_SHEARS, [rng.choice(COEFFS) for _ in ALGEBRA_SHEARS])
    q, q_inv = _shear_pair(m, FORM_SHEARS, [rng.choice(COEFFS) for _ in FORM_SHEARS])
    mult = [[[Fraction(x) for x in col] for col in plane] for plane in alg["mult"]]

    def alg_combo(vecs_by_basis, a):
        # sum_k P[k][a] * vecs_by_basis[k], elementwise over nested lists
        out = None
        for k in range(n):
            c = p[k][a]
            if c:
                term = [[c * x for x in row] for row in vecs_by_basis[k]]
                out = term if out is None else [[x + y for x, y in zip(r1, r2)]
                                                for r1, r2 in zip(out, term)]
        return out

    new_mult = []
    for i in range(n):
        plane = []
        for j in range(n):
            prod = [Fraction(0)] * n
            for k in range(n):
                for l in range(n):
                    c = p[k][i] * p[l][j]
                    if c:
                        prod = [x + c * y for x, y in zip(prod, mult[k][l])]
            plane.append([sum(p_inv[r][s] * prod[s] for s in range(n)) for r in range(n)])
        new_mult.append(plane)
    new_unit = [sum(p_inv[r][s] * unit[s] for s in range(n)) for r in range(n)]

    def actions(docs):
        mats = [[[Fraction(x) for x in row] for row in d] for d in docs]
        return [_matmul(_matmul(q_inv, alg_combo(mats, a)), q) for a in range(n)]

    d = [[Fraction(x) for x in row] for row in om["d"]]
    out = {
        "algebra": {
            "dim": n,
            "basis": ["b%d" % i for i in range(n)],
            "unit": [_rat_str(x) for x in new_unit],
            "mult": [[[_rat_str(x) for x in col] for col in plane] for plane in new_mult],
        },
        "omega1": {
            "dim": m,
            "left": [[[_rat_str(x) for x in row] for row in mat] for mat in actions(om["left"])],
            "right": [[[_rat_str(x) for x in row] for row in mat] for mat in actions(om["right"])],
            "d": [[_rat_str(x) for x in row] for row in _matmul(_matmul(q_inv, d), p)],
        },
        "maxDegree": base["maxDegree"],
    }
    return out


def spec_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def spec_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def nonzero_share(doc: dict) -> float:
    """Share of nonzero entries over every matrix of a calculus spec."""
    entries = [x for plane in doc["algebra"]["mult"] for col in plane for x in col]
    for key in ("left", "right"):
        entries += [x for mat in doc["omega1"][key] for row in mat for x in row]
    entries += [x for row in doc["omega1"]["d"] for x in row]
    return sum(1 for x in entries if Fraction(x)) / len(entries)
