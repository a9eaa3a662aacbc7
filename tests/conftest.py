from contextlib import contextmanager
from fractions import Fraction

import pytest

from cayley import cayley_spec, group_spec, symmetric_group
from ncjet.fixtures import fixture, frame_vectors
from ncjet.linalg import Mat, inverse
from ncjet.specio import parse_calculus_spec, serialize_calculus


@pytest.fixture(scope="session")
def quat():
    return fixture("quaternion")


@pytest.fixture(scope="session")
def two_point():
    return fixture("two-point-universal")


@pytest.fixture(scope="session")
def matrix2():
    return fixture("matrix2-universal")


@pytest.fixture(scope="session")
def all_fixtures(quat, two_point, matrix2):
    return (quat, two_point, matrix2)


def selection(ts):
    """The plain x presented matrix of a TensorSpace's section: column r is plain e_{section[r]}."""
    return Mat.from_cols([{c: 1} for c in ts.section], ts.proj.cols)


# Quaternion algebra basis (1, i, j, k): k += 2 i, k -= 3 j.  One-forms: the
# last vector of frame 1 takes 3 times its neighbour, the first vector of
# frame 0 takes -2 times j di.  Same positions as perfbench/shear.py.
QUAT_ALGEBRA_SHEARS = ((3, 1, 2), (3, 2, -3))
QUAT_FORM_SHEARS = ((7, 6, 3), (0, 2, -2))


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _shears(n, shears):
    """(P, P^-1): the basis change b_i += c b_j for each (i, j, c), in order."""
    eye = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    fwd, inv = eye, eye
    for i, j, c in shears:
        s, s_inv = [row[:] for row in eye], [row[:] for row in eye]
        s[j][i], s_inv[j][i] = Fraction(c), Fraction(-c)
        fwd, inv = _matmul(fwd, s), _matmul(s_inv, inv)
    return fwd, inv


def basis_change_spec(doc, p, q):
    """The calculus of the spec `doc` in new algebra and one-form bases.

    p = (P, P^-1) and q = (Q, Q^-1); column i of P (of Q) is the new i-th
    basis element of the algebra (of the one-forms) in old coordinates.
    Structure constants become P^-1 m(P., P.), actions Q^-1 (sum_k P[k][a] L_k) Q
    and the differential Q^-1 d P; every dimension and verdict is unchanged.
    Basis names and maxDegree are kept, and no left frame is declared.
    """
    alg, om = doc["algebra"], doc["omega1"]
    n, m = alg["dim"], om["dim"]
    (p, p_inv), (q, q_inv) = p, q
    mult = [[[Fraction(x) for x in col] for col in plane] for plane in alg["mult"]]

    def new_prod(i, j):
        prod = [sum(p[k][i] * p[l][j] * mult[k][l][r] for k in range(n) for l in range(n))
                for r in range(n)]
        return [sum(p_inv[r][s] * prod[s] for s in range(n)) for r in range(n)]

    def actions(mats):
        mats = [[[Fraction(x) for x in row] for row in mat] for mat in mats]
        combo = [[[sum(p[k][a] * mats[k][r][c] for k in range(n)) for c in range(m)]
                  for r in range(m)] for a in range(n)]
        return [_matmul(_matmul(q_inv, mat), q) for mat in combo]

    def out(mat):
        return [[str(x) for x in row] for row in mat]

    d = [[Fraction(x) for x in row] for row in om["d"]]
    unit = [Fraction(x) for x in alg["unit"]]
    return {
        "algebra": {
            "dim": n,
            "basis": list(alg["basis"]),
            "unit": [str(sum(p_inv[r][s] * unit[s] for s in range(n))) for r in range(n)],
            "mult": [out([new_prod(i, j) for j in range(n)]) for i in range(n)],
        },
        "omega1": {
            "dim": m,
            "left": [out(x) for x in actions(om["left"])],
            "right": [out(x) for x in actions(om["right"])],
            "d": out(_matmul(_matmul(q_inv, d), p)),
        },
        "maxDegree": doc["maxDegree"],
    }


def sheared_spec(doc, alg_shears, form_shears):
    """The spec `doc` in integer-sheared bases, with the algebra basis renamed b0, b1, ...

    The canonical quotient bases get non-unit pivots (see basis_change_spec).
    """
    n, m = doc["algebra"]["dim"], doc["omega1"]["dim"]
    out = basis_change_spec(doc, _shears(n, alg_shears), _shears(m, form_shears))
    out["algebra"]["basis"] = ["b%d" % i for i in range(n)]
    return out


@pytest.fixture(scope="session")
def sheared_quat_doc(quat):
    """The quaternion calculus as a spec in fixed integer-sheared bases."""
    return sheared_spec(serialize_calculus(quat), QUAT_ALGEBRA_SHEARS, QUAT_FORM_SHEARS)


@pytest.fixture(scope="session")
def sheared_quat(sheared_quat_doc):
    return parse_calculus_spec(sheared_quat_doc)


@pytest.fixture(scope="session")
def reframed_quat_doc(quat):
    """The quaternion calculus on the left frame ((1 + i) di, dj), declared as its frame.

    The new one-form basis element (t, a) is e_a theta'_t, so the spec keeps
    the frame layout.
    """
    alg, om1 = quat.algebra, quat.omega1
    n, m = alg.dim, om1.dim
    one_plus_i = list(alg.unit)
    one_plus_i[alg.basis_names.index("i")] += 1
    theta0, theta1 = frame_vectors(quat)
    frame = [om1.act_left(one_plus_i, theta0), theta1]
    cols = [om1.act_left(alg.basis_vector(a), theta) for theta in frame for a in range(n)]
    q = Mat.from_cols(cols, m)
    doc = basis_change_spec(serialize_calculus(quat), _shears(n, ()), (q.data, inverse(q).data))
    return dict(doc, leftFrameSize=2)


@pytest.fixture(scope="session")
def cayley_z4():
    return parse_calculus_spec(cayley_spec(4, [1, 3]))


@pytest.fixture(scope="session")
def s3():
    """The Cayley calculus of S3 with its three transpositions: 6 points, 18 one-forms."""
    return parse_calculus_spec(group_spec(*symmetric_group(3)))


@pytest.fixture(scope="session",
                params=["quat", "two_point", "matrix2", "sheared_quat", "cayley_z4", "s3"])
def braided_calc(request):
    """The calculi on which the braided solver is checked against the joint system."""
    return request.getfixturevalue(request.param)


_ORACLE_CALCS = {"sheared-quat": "sheared_quat", "cayley-z4": "cayley_z4", "matrix2": "matrix2"}


@pytest.fixture(scope="session", params=list(_ORACLE_CALCS))
def oracle_calc(request):
    """The calculi on which the generator reduction is checked against every basis element."""
    return request.getfixturevalue(_ORACLE_CALCS[request.param])


@pytest.fixture(scope="session", params=["quaternion", *_ORACLE_CALCS])
def kron_oracle_calc(request):
    """The calculi on which the gathers are checked against their plain Kronecker formulas."""
    return request.getfixturevalue(dict(_ORACLE_CALCS, quaternion="quat")[request.param])


@contextmanager
def _every_basis_element(alg):
    alg.__dict__["generators"] = tuple(range(alg.dim))
    try:
        yield
    finally:
        del alg.__dict__["generators"]


@pytest.fixture
def every_basis_element():
    """Context manager: run the engine with every basis element of an algebra as a generator.

    This is the all-basis reference for the reductions over
    Algebra.generators: inside the block every balancing, intertwining and
    Leibniz row is imposed once per basis element, as before the reduction.
    """
    return _every_basis_element
