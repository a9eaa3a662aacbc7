"""First-order differential calculi and their maximal exterior towers.

A calculus is built from (algebra, bimodule of one-forms, differential) and
extended to degrees <= max_degree: degree-n forms are the n-fold tensor
power over the algebra modulo the two-sided ideal generated by applying the
differential to the degree-1 relations, so the degree-n relations are
omega_{n-2} ^ (degree-2 relations).  d in degree 1 is solved from its
values da ^ db on the spanning set a db, which doubles as a consistency
check of the input calculus; in each higher degree it is the graded Leibniz
rule d(w ^ xi) = dw ^ xi + (-1)^(k-1) w ^ dxi on the plain tensors of
omega_{k-1} (x) omega1, checked to be well defined and to square to zero.
leibniz_map builds that rule once, for the tower and for the Spencer
operators and wedge contractions of jets.exterior_operator alike, from the
integer wedge columns of _wedge_prepend.
"""

from __future__ import annotations

from math import lcm

from .linalg import (
    DimensionCapError,
    Mat,
    SpanBuilder,
    ONE,
    image_of,
    int_row,
    kernel_of,
    intersect,
    kron,
    max_dim,
    nonzeros,
    quotient_data,
    split,
)
from .algebra import (
    Algebra,
    Bimodule,
    LeftModule,
    TensorSpace,
    module_closure,
    regular_bimodule,
    tensor_left_module,
    validate_algebra,
)

_MISSING = object()


def memo(cache, key, build):
    """cache[key], calling build() only on a miss; None results are cached too.

    A key holds everything the result depends on, and the objects it names,
    never their addresses: modules hash by identity and matrices by value, so
    an entry keeps what it names alive and cannot answer for a later object
    built at a freed address.  Every key starts with a kind tag, so two
    constructions over one object never share an entry.  Cached values are
    read-only to every caller.  Refusals are never stored: build() raising
    leaves no entry, and argument checks run before the lookup.
    """
    got = cache.get(key, _MISSING)
    if got is _MISSING:
        got = cache[key] = build()
    return got


class CalculusError(Exception):
    """Invalid input calculus or out-of-range degree."""


def kernel_submodule(mod: LeftModule, f: Mat, label: str, what: str):
    """(ker f with mod's actions restricted to it, its Subspace, coords).

    The kernel keeps the left action, and the right one too when mod is a
    bimodule.  coords(m) reads the kernel coordinates of m's columns and
    raises CalculusError(what) when a column leaves ker f, so an action that
    does not preserve the kernel is refused here.
    """
    ker = kernel_of(f)
    emb = ker.basis.transpose()

    def coords(m):
        c = ker.coords_of_cols(m)
        if c is None:
            raise CalculusError(what)
        return c

    left = [coords(m * emb) for m in mod.left]
    if isinstance(mod, Bimodule):
        return Bimodule(mod.algebra, ker.dim, left, [coords(m * emb) for m in mod.right],
                        label=label), ker, coords
    return LeftModule(mod.algebra, ker.dim, left, label=label), ker, coords


def validate_fodc(algebra: Algebra, omega1: Bimodule, d0: Mat):
    """Violations of the first-order-calculus axioms (empty list = valid)."""
    problems = validate_algebra(algebra)
    problems += omega1.check_bimodule()
    if problems:
        return problems
    if d0.rows != omega1.dim or d0.cols != algebra.dim:
        return ["differential matrix has wrong shape"]
    if any(d0.apply(algebra.unit)):
        problems.append("d(1) != 0")
    de = [d0.col(j) for j in range(algebra.dim)]
    sb = SpanBuilder(omega1.dim)  # the a db span the one-forms
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            ei_dej = omega1.left[i].apply(de[j])
            sb.add(ei_dej)
            lhs = d0.apply(algebra.mult[i][j])
            if lhs != [x + y for x, y in zip(ei_dej, omega1.right[j].apply(de[i]))]:
                problems.append(
                    "Leibniz fails at (%s, %s)"
                    % (algebra.basis_names[i], algebra.basis_names[j])
                )
    if sb.dim != omega1.dim:
        problems.append("one-forms are not spanned by a*db (surjectivity fails)")
    return problems


class Calculus:
    """Exterior tower of a first-order differential calculus.

    steps[n] (n >= 2), a TensorSpace, presents omega[n] on plain omega[n-1] x omega1;
    its proj is the wedge omega[n-1] x omega1 -> omega[n]."""

    def __init__(self, algebra, omega, d, steps, relation_space, name=""):
        self.algebra = algebra
        self.omega = omega            # Bimodule per degree 0..max_degree
        self.d = d                    # d[n]: omega[n] -> omega[n+1], n < max_degree
        self.steps = steps            # n >= 2: omega[n] presented on omega[n-1] x omega1
        self.relation_space = relation_space  # degree-1 relations inside A (x) A
        self.name = name
        self.left_frame_size = None   # size of a declared free left frame of omega1
        self._memo = {}

    def memo(self, key, build):
        """This calculus's cached constructions; see the module-level memo()."""
        return memo(self._memo, key, build)

    @property
    def omega1(self) -> Bimodule:
        return self.omega[1]

    @property
    def max_degree(self):
        """Top degree of the tower; it grows as build_calculus appends degrees."""
        return len(self.omega) - 1

    def base_module(self) -> Bimodule:
        """The algebra as a bimodule over itself: omega[0], so its forms are the tower's."""
        return self.omega[0]

    def check_degree(self, n):
        if n < 0 or n > self.max_degree:
            raise CalculusError(
                "degree %d outside tower (max %d)" % (n, self.max_degree)
            )

    # -- wedge machinery ---------------------------------------------------

    def wedge_plain(self, p, q) -> Mat:
        """Wedge on plain tensor coordinates: omega_p x omega_q -> omega_{p+q}."""
        self.check_degree(p + q)
        return self.memo(("wedge_plain", p, q), lambda: self._wedge_plain(p, q))

    def _wedge_plain(self, p, q) -> Mat:
        if p == 0:
            # column (a, x) is a . x
            acts = [m.transpose().nz for m in self.omega[q].left]
            return Mat.from_cols([col for cols in acts for col in cols], self.omega[q].dim)
        if q == 0:
            # column (x, a) is x . a
            acts = [m.transpose().nz for m in self.omega[p].right]
            return Mat.from_cols([cols[i] for i in range(self.omega[p].dim) for cols in acts],
                                 self.omega[p].dim)
        if q == 1:
            return self.steps[p + 1].proj
        # the section of y in omega_q is one plain basis tensor u (x) k of
        # omega_{q-1} x omega1, so column (x, y) is (x ^ u) (x) k, projected
        o1 = self.omega1.dim
        return self.steps[p + q].gather(_wedge_prepend(self, p, x, {c: ONE}, o1, q - 1)
                                        for x in range(self.omega[p].dim)
                                        for c in self.steps[q].section)

    def tensor_pq(self, p, q) -> TensorSpace:
        """Presentation of omega_p (x)_A omega_q, p >= 1: the one form_module keeps."""
        return self.form_module(p, self.omega[q])[1]

    def wedge_map(self, p, q) -> Mat:
        """Wedge as a matrix on omega_p (x)_A omega_q coordinates."""
        return self.descend(self.wedge_plain(p, q), self.tensor_pq(p, q),
                            "wedge %d,%d" % (p, q))

    # -- module-valued forms -----------------------------------------------

    def form_module(self, m, mod: LeftModule):
        """(omega_m (x)_A mod as a left module, tensor presentation); m >= 1.

        The one builder of every presentation of omega_m (x)_A X, each made
        once per (m, X) and kept in the memo: the tower's pre-quotient
        modules, tensor_pq and the callers all read the same entry.  The
        result is a bimodule when mod is one.
        """
        if m < 1:
            raise ValueError("form_module needs m >= 1; use the module itself at m = 0")
        self.check_degree(m)
        return self.memo(("form", m, mod), lambda: tensor_left_module(
            self.omega[m], mod, label="O%d(%s)" % (m, mod.label)))

    def omega_lift(self, m, f: Mat, src: LeftModule, dst: LeftModule) -> Mat:
        """id_{omega_m} (x) f on A-tensor coordinates (f must be A-linear)."""
        if m == 0:
            return f
        _, ts_src = self.form_module(m, src)
        _, ts_dst = self.form_module(m, dst)
        return ts_dst.kron_between(Mat.identity(self.omega[m].dim), f, ts_src)

    def descend(self, plain_mat: Mat, ts: TensorSpace, what="map") -> Mat:
        """Descend a plain-tensor matrix through a quotient presentation: its section columns.

        As proj is the identity on the section columns and ker proj is the
        relation space, the plain matrix kills the relations, so is well-defined
        on the quotient, exactly when it equals down * proj for down its section
        columns; otherwise CalculusError."""
        down = plain_mat.submatrix(range(plain_mat.rows), ts.section)
        if down * ts.proj != plain_mat:
            raise CalculusError("%s is not well-defined on the tensor product" % what)
        return down

    # -- misc --------------------------------------------------------------

    def d_of_basis(self, i):
        """d of the i-th algebra basis element, as a one-form."""
        return self.d[0].apply(self.algebra.basis_vector(i))


def leibniz_map(calc: Calculus, m: int, ts_dom: TensorSpace, ts_tgt: TensorSpace,
                ts_one: TensorSpace, pi, d0: Mat, what: str) -> Mat:
    """Extension of d0: X -> one-forms (x) T to m-form-valued elements, m >= 1.

    Maps omega_m (x) X to omega_{m+1} (x) T by the graded Leibniz rule
    w (x) x -> dw (x) pi(x) + (-1)^m w ^ d0(x); pi=None drops the d-term.
    ts_dom presents the domain on plain omega_m x X, ts_tgt the target on
    plain omega_{m+1} x T and ts_one the values of d0 on plain omega1 x T.
    The map is built on plain tensors and descended through ts_dom (what
    names it in the error).
    """
    sign = ONE if m % 2 == 0 else -ONE
    x_dim, t_dim = ts_dom.right_dim, ts_tgt.right_dim
    # per domain basis vector: pi(x) and the plain lift of d0(x), as {index: value}
    pi_cols = pi.transpose().nz if pi is not None else [{}] * x_dim
    d0_plain = ts_one.plain_cols(d0)
    cols = []
    for b, dwb in enumerate(calc.d[m].transpose().nz):
        for t in range(x_dim):
            terms = []
            if dwb and pi_cols[t]:
                terms.append((ONE, ts_tgt.pure(dwb, pi_cols[t])))
            if d0_plain[t]:
                terms.append((sign, _wedge_prepend(calc, m, b, d0_plain[t], t_dim)))
            cols.append(_plain_sum(terms))
    return calc.descend(ts_tgt.gather(cols), ts_dom, what)


def _plain_sum(terms):
    """sum(c * plain / d) over terms (c, (d, plain)) as an integer plain (den, {index: int})."""
    den = lcm(*[int(c.denominator) * d for c, (d, _) in terms])
    acc = {}
    for c, (d, plain) in terms:
        f = int(c.numerator) * (den // (int(c.denominator) * d))
        for k, v in plain.items():
            acc[k] = acc.get(k, 0) + f * v
    return den, acc


def _wedge_prepend(calc, k, b_idx, w_plain, t_dim, q=1):
    """w_b ^ (plain q-form-valued vector {index: value}) as an integer plain tensor.

    Returns (den, {index: int}) in plain (k+q)-forms (x) T; the wedge columns
    are kept in integer form, so nothing divides before the projection.
    """
    wcols = calc.memo(("wedge_cols", k, q), lambda: [
        int_row(col) for col in calc.wedge_plain(k, q).transpose().nz])
    base = b_idx * calc.omega[q].dim
    dv, w_plain = int_row(w_plain)
    den = lcm(*[wcols[base + idx // t_dim][0] for idx in w_plain])
    acc = {}
    for idx, v in w_plain.items():
        c, e = divmod(idx, t_dim)
        d, col = wcols[base + c]
        v *= den // d
        for r, vv in col.items():
            key = r * t_dim + e
            acc[key] = acc.get(key, 0) + v * vv
    return dv * den, acc


def build_calculus(algebra: Algebra, omega1: Bimodule, d0: Mat, max_degree=3, name="") -> Calculus:
    """Maximal exterior tower over a validated first-order calculus."""
    problems = validate_fodc(algebra, omega1, d0)
    if problems:
        raise CalculusError("invalid first-order calculus: " + "; ".join(problems))
    if max_degree < 1:
        raise CalculusError("max_degree must be >= 1")
    if max_degree > max_dim():
        raise DimensionCapError("tower degree %d exceeds cap %d" % (max_degree, max_dim()))

    alg = algebra
    dA = alg.dim
    o1 = omega1.dim
    omega = [regular_bimodule(alg), omega1]
    steps = {}

    # degree-1 relations: kernel of A (x) A -> omega1, x (x) y -> x d(y),
    # intersected with the universal one-forms ker(mult).
    mult_cols = []
    to_omega_cols = []
    for i in range(dA):
        for j in range(dA):
            mult_cols.append(alg.mult[i][j])
            to_omega_cols.append(omega1.act_left(alg.basis_vector(i), d0.apply(alg.basis_vector(j))))
    mult_mat = Mat.from_cols(mult_cols, dA)
    to_omega = Mat.from_cols(to_omega_cols, o1)
    # to_omega is onto (validate_fodc): its kernel is the a (x) b with a db = 0
    vplus, vker = split(to_omega)
    relation_space = intersect(kernel_of(mult_mat), vker)
    # the tower is appended to calc.omega, so max_degree admits each degree as it lands
    calc = Calculus(alg, omega, [d0], steps, relation_space, name=name)

    def quotient_bimodule(pre_mod, pre_ts, rel, degree):
        projq, keep = quotient_data(rel)
        left = [projq * m.submatrix(range(pre_mod.dim), keep) for m in pre_mod.left]
        right = [projq * m.submatrix(range(pre_mod.dim), keep) for m in pre_mod.right]
        mod = Bimodule(alg, projq.rows, left, right, label="O%d" % degree)
        bad = mod.check_bimodule(alg.generators)
        if bad:
            raise CalculusError("degree-%d forms are not a bimodule: %s" % (degree, bad[0]))
        return mod, TensorSpace(pre_ts.left_dim, pre_ts.right_dim, projq * pre_ts.proj,
                                [pre_ts.section[c] for c in keep])

    # each degree n lands, then d_{n-1} is built into it, so the tower stops
    # at the first degree that fails and omega, d and max_degree agree
    for n in range(2, max_degree + 1):
        pre_mod, pre_ts = calc.form_module(n - 1, omega1)
        if n == 2:
            # degree-2 relations: two-sided action closure of d applied to them
            dd_plain = kron(d0, d0)  # da (x) db on plain one-forms, also the source of d1
            dgens = pre_ts.proj * dd_plain * relation_space.basis.transpose()
            rel = module_closure(pre_mod, [dgens.col(c) for c in range(dgens.cols)],
                                 use_right=True)
            # degree-2 relations as plain tensors in omega1 (x) omega1
            rel2_plain = pre_ts.plain_cols(rel.basis.transpose())
        else:
            # degree-n relations: omega_{n-2} ^ (degree-2 relations)
            rel = image_of(pre_ts.gather(_wedge_prepend(calc, n - 2, u, r, o1)
                                         for u in range(omega[n - 2].dim) for r in rel2_plain))
        om, steps[n] = quotient_bimodule(pre_mod, pre_ts, rel, n)
        omega.append(om)

        # d in degree k = n - 1: d1 is solved on its spanning set a db; for k >= 2 it is
        # the graded Leibniz rule d(w ^ xi) = dw ^ xi + (-1)^(k-1) w ^ dxi on the plain
        # tensors w (x) xi of omega_{k-1} (x) omega1, descended through steps[k]
        k = n - 1
        if k == 1:
            # d1 a db = da ^ db, so d1 = dd * to_omega^+ once dd kills ker to_omega
            dd = steps[2].proj * dd_plain
            if not (dd * vker.basis.transpose()).is_zero():
                raise CalculusError("differential in degree 1 is inconsistent on its spanning set")
            calc.d.append(dd * vplus)
        else:
            calc.d.append(leibniz_map(calc, k - 1, steps[k], steps[n], steps[2],
                                      Mat.identity(o1), calc.d[1],
                                      "differential in degree %d" % k))
        if not (calc.d[k] * calc.d[k - 1]).is_zero():
            raise CalculusError("differential does not square to zero at degree %d" % (k - 1))
    return calc


def universal_calculus(a: Algebra, max_degree=3) -> Calculus:
    """Universal calculus: one-forms are ker(mult) with d(a) = 1(x)a - a(x)1."""
    dA = a.dim
    eye = Mat.identity(dA)
    mult_mat = Mat.from_cols([a.mult[i][j] for i in range(dA) for j in range(dA)], dA)
    aa = Bimodule(a, dA * dA, [kron(m, eye) for m in a.lmat], [kron(eye, m) for m in a.rmat])
    om1, _, coords = kernel_submodule(aa, mult_mat, "O1u(%s)" % a.name,
                                      "universal form fell outside ker(mult)")
    unit = Mat.from_cols([a.unit], dA)
    d0 = coords(kron(unit, eye) - kron(eye, unit))
    return build_calculus(a, om1, d0, max_degree, name="universal(%s)" % a.name)


def quaternion_calculus(max_degree=3) -> Calculus:
    """Maximal exterior tower of the two-frame quaternion calculus.

    One-forms are a free left module on the frame (di, dj); basis vectors
    are q*d(theta) indexed t*4+q for t in (di, dj), q in (1, i, j, k).  The
    right action twists by the algebra automorphism fixing k and negating i
    and j (d(theta)*a = phi(a)*d(theta)), which is the unique choice making
    the Leibniz rule hold for d(k) = -j di + i dj; build_calculus checks
    Leibniz on all 16 basis pairs, so an inconsistent twist cannot slip by.
    """
    from .algebra import quaternion_algebra

    alg = quaternion_algebra()
    phi = [  # 1 -> 1, i -> -i, j -> -j, k -> k
        [1, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, 1],
    ]
    reg = regular_bimodule(alg)
    left = []
    right = []
    for s in range(4):
        left.append(kron(Mat.identity(2), alg.lmat[s]))
        right.append(kron(Mat.identity(2), reg.right_mult(phi[s])))
    om1 = Bimodule(alg, 8, left, right, label="O1(H)")
    dcols = [
        [0, 0, 0, 0, 0, 0, 0, 0],    # d(1) = 0
        [1, 0, 0, 0, 0, 0, 0, 0],    # d(i) = di
        [0, 0, 0, 0, 1, 0, 0, 0],    # d(j) = dj
        [0, 0, -1, 0, 0, 1, 0, 0],   # d(k) = -j di + i dj
    ]
    d0 = Mat.from_cols(dcols, 8)
    calc = build_calculus(alg, om1, d0, max_degree, name="quaternion")
    calc.left_frame_size = 2
    return calc


def twisted_pair(calc: Calculus, e: LeftModule):
    """Direct sum of one- and two-form valued copies of e with twisted action.

    The algebra acts by a.(alpha, beta) = (a alpha, da ^ alpha + a beta);
    the representation law is verified at (g, b) for every generator g and
    every basis element b, which covers every pair (LeftModule.check_left).
    """
    calc.check_degree(2)
    m1, ts1 = calc.form_module(1, e)
    m2, ts2 = calc.form_module(2, e)
    alg = calc.algebra
    o1 = calc.omega1.dim
    w11 = calc.wedge_plain(1, 1)
    left = []
    for a in range(alg.dim):
        da = nonzeros(calc.d_of_basis(a))
        # L_da: w -> da ^ w on plain one-forms
        l_da = w11 * Mat.from_cols([{s * o1 + w: x for s, x in da.items()} for w in range(o1)],
                                   o1 * o1)
        wda = ts2.kron_between(l_da, Mat.identity(e.dim), ts1)
        top = m1.left[a].hstack(Mat.zeros(m1.dim, m2.dim))
        bot = wda.hstack(m2.left[a])
        left.append(top.vstack(bot))
    mod = LeftModule(alg, m1.dim + m2.dim, left, label="tw(%s)" % e.label)
    bad = mod.check_left(alg.generators)
    if bad:
        raise CalculusError("twisted pair action fails: %s" % bad[0])
    return mod, m1, m2
