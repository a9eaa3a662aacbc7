"""Cayley-graph calculi on cyclic groups, written as spec documents.

For Z/n and a generating set C, the algebra is the functions on Z/n with
the point basis delta_x.  Omega^1 is free on e_c for c in C, with the
relation e_c f = R_c(f) e_c where R_c(f)(x) = f(x + c), and
df = sum_c (R_c f - f) e_c.  The one-forms delta_x e_c sit at index
t * n + x for the t-th generator c, so C is a declared left frame.
"""


def cayley_spec(n, gens, max_degree=3):
    """Spec document of the Cayley-graph calculus of Z/n with generators `gens`."""
    m = len(gens) * n

    def zeros(rows, cols):
        return [["0"] * cols for _ in range(rows)]

    def at(t, x):
        return t * n + x % n

    left, right = [], []
    for b in range(n):
        lm, rm = zeros(m, m), zeros(m, m)
        for t, c in enumerate(gens):
            lm[at(t, b)][at(t, b)] = "1"          # delta_b delta_x e_c = [x = b] delta_x e_c
            rm[at(t, b - c)][at(t, b - c)] = "1"  # delta_x e_c delta_b = [x = b - c] delta_x e_c
        left.append(lm)
        right.append(rm)
    d = zeros(m, n)
    for b in range(n):
        for t, c in enumerate(gens):
            d[at(t, b - c)][b] = "1"              # d delta_b = sum_c (delta_{b-c} - delta_b) e_c
            d[at(t, b)][b] = "-1"
    return {
        "algebra": {
            "dim": n,
            "basis": ["d%d" % x for x in range(n)],
            "unit": ["1"] * n,
            "mult": [[["1" if i == j == k else "0" for k in range(n)] for j in range(n)]
                     for i in range(n)],
        },
        "omega1": {"dim": m, "left": left, "right": right, "d": d},
        "maxDegree": max_degree,
        "leftFrameSize": len(gens),
    }
