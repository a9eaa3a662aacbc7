"""Cayley-graph calculi on finite groups, written as spec documents.

For a finite group G given by its multiplication table and a generating
set C, the algebra is the functions on G with the point basis delta_x.
Omega^1 is free on e_c for c in C, with the relation e_c f = R_c(f) e_c
where R_c(f)(x) = f(xc), and df = sum_c (R_c f - f) e_c (Beggs-Majid,
Quantum Riemannian Geometry, ch. 1).  The one-forms delta_x e_c sit at
index t * |G| + x for the t-th generator c, so C is a declared left frame.
"""

from itertools import permutations


def group_spec(table, gens, max_degree=3):
    """Spec document of the Cayley-graph calculus of the group with table[x][y] = xy."""
    n = len(table)
    m = len(gens) * n

    def zeros(rows, cols):
        return [["0"] * cols for _ in range(rows)]

    def at(t, x):
        return t * n + x

    left, right = [], []
    for b in range(n):
        lm, rm = zeros(m, m), zeros(m, m)
        for t, c in enumerate(gens):
            lm[at(t, b)][at(t, b)] = "1"      # delta_b delta_x e_c = [x = b] delta_x e_c
            for x in range(n):
                if table[x][c] == b:         # delta_x e_c delta_b = [xc = b] delta_x e_c
                    rm[at(t, x)][at(t, x)] = "1"
        left.append(lm)
        right.append(rm)
    d = zeros(m, n)
    for b in range(n):
        for t, c in enumerate(gens):
            for x in range(n):
                if table[x][c] == b:         # d delta_b = sum_c (delta_{bc^-1} - delta_b) e_c
                    d[at(t, x)][b] = "1"
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


def cyclic_group(n):
    """Multiplication table of Z/n, x at index x."""
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def direct_product(g, h):
    """Multiplication table of G x H from those of G and H, (x, y) at index x * |H| + y."""
    m = len(h)
    return [[g[a // m][b // m] * m + h[a % m][b % m] for b in range(len(g) * m)]
            for a in range(len(g) * m)]


def cayley_spec(n, gens, max_degree=3):
    """Spec document of the Cayley-graph calculus of Z/n with generators `gens`."""
    return group_spec(cyclic_group(n), [c % n for c in gens], max_degree)


def symmetric_group(k):
    """(multiplication table, transposition indices) of S_k on the permutations in
    lexicographic order, with (pq)(i) = p(q(i))."""
    perms = list(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]
    swaps = [i for i, p in enumerate(perms) if sum(p[j] != j for j in range(k)) == 2]
    return table, swaps
