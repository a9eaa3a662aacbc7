"""Per-layer spans recorded from outside the engine.

`install()` wraps the public entry points of every ncjet layer.  Modules
bind names with `from .linalg import kron, ...`, so a function is replaced
at every module attribute that holds it, not only where it is defined;
methods are replaced on their class.  Each wrapper records calls and self
time (its span minus the spans of wrapped calls inside it), plus one ratio where the entry can waste work:

  nnz     share of nonzero entries of the matrix operand (self), summed
          over calls and counted once per distinct matrix object
  rank    share of SpanBuilder.add calls that grew the span
  pivot   share of AffineSystem.add_row calls that added a pivot
  repeat  share of calls whose arguments were all seen before in this job,
          immutable ones by value, matrices by value, the rest by identity

There are no threads or queues in the engine, so waiting is zero and is
not recorded.  The scalar type is not wrapped: timing every Fraction
operation from outside would cost more than the work it times.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (span name, defining module, attribute, ratio kind or None)
ENTRIES = (
    ("linalg.Mat.apply", "ncjet.linalg", "Mat.apply", "nnz"),
    ("linalg.Mat.mul", "ncjet.linalg", "Mat.__mul__", "nnz"),
    ("linalg.kron", "ncjet.linalg", "kron", None),
    ("linalg.rref", "ncjet.linalg", "_rref_rows", None),
    ("linalg.SpanBuilder.add", "ncjet.linalg", "SpanBuilder.add", "rank"),
    ("linalg.quotient_data", "ncjet.linalg", "quotient_data", None),
    ("algebra.tensor_space", "ncjet.algebra", "tensor_space", None),
    ("algebra.tensor_module", "ncjet.algebra", "tensor_left_module", None),
    ("algebra.tensor_module", "ncjet.algebra", "tensor_bimodule", None),
    ("algebra.module_closure", "ncjet.algebra", "module_closure", None),
    ("algebra.TensorSpace.class_of", "ncjet.algebra", "TensorSpace.class_of", None),
    ("algebra.AffineSystem.add_row", "ncjet.algebra", "AffineSystem.add_row", "pivot"),
    ("algebra.AffineSystem.solve", "ncjet.algebra", "AffineSystem.solve", None),
    ("algebra.solve_module_maps", "ncjet.algebra", "solve_module_maps", None),
    ("calculus.build_calculus", "ncjet.calculus", "build_calculus", None),
    ("calculus.Calculus.descend", "ncjet.calculus", "Calculus.descend", None),
    ("calculus.Calculus.omega_lift", "ncjet.calculus", "Calculus.omega_lift", None),
    ("calculus.Calculus.form_module", "ncjet.calculus", "Calculus.form_module", "repeat"),
    ("jets.jet_module", "ncjet.jets", "jet_module", "repeat"),
    ("jets.sym_module", "ncjet.jets", "sym_module", "repeat"),
    ("jets.pair_module", "ncjet.jets", "pair_module", "repeat"),
    ("jets.spencer_operator", "ncjet.jets", "spencer_operator", "repeat"),
    ("jets.dtilde_maps", "ncjet.jets", "dtilde_maps", None),
    ("jets.delta_contraction", "ncjet.jets", "delta_contraction", None),
    ("jets.spencer_complex", "ncjet.jets", "spencer_complex", None),
    ("jets.bicomplex_report", "ncjet.jets", "bicomplex_report", None),
    ("jets.jet_exactness", "ncjet.jets", "jet_exactness", None),
    ("jets.elemental_span", "ncjet.jets", "elemental_span", None),
    ("connections.solve_connections", "ncjet.connections", "solve_connections", None),
    ("connections.solve_bimodule_connections", "ncjet.connections",
     "solve_bimodule_connections", None),
    ("connections.tensor_connection", "ncjet.connections", "tensor_connection", None),
    ("quantization.build_quantization", "ncjet.quantization", "build_quantization", None),
    ("quantization.OperatorContext.op_lift", "ncjet.quantization", "OperatorContext.op_lift", None),
    ("quantization.Quantization.zeta", "ncjet.quantization", "Quantization.zeta", "repeat"),
    ("quantization.Quantization.star_eval", "ncjet.quantization", "Quantization.star_eval", None),
    ("specio.parse_calculus_spec", "ncjet.specio", "parse_calculus_spec", None),
)

RATIO_NAMES = {"nnz": "nnz_frac", "rank": "rank_frac", "pivot": "pivot_frac",
               "repeat": "repeat_frac"}
_NNZ_CACHE_SIZE = 512


class _Stat:
    __slots__ = ("calls", "self_time", "hits", "num", "den")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.hits = 0      # rank / pivot / repeat outcomes
        self.num = 0       # nnz summed over calls
        self.den = 0       # entries summed over calls


class Tracer:
    def __init__(self):
        self.stats = {}
        self.kinds = {}
        # stack[0] collects the time covered by outermost spans; each open
        # span has a slot that its wrapped children add their time to.
        self.stack = [0.0]
        self._nnz = {}      # id(mat) -> (mat, nnz, size); holding mat pins the id
        self._seen = set()
        self._alive = []    # arguments keyed by identity stay alive, so ids stay unique

    def stat(self, name, kind):
        self.kinds[name] = kind
        return self.stats.setdefault(name, _Stat())

    def nnz(self, mat):
        got = self._nnz.get(id(mat))
        if got is None or got[0] is not mat:
            nz = sum(1 for row in mat.data for x in row if x)
            if len(self._nnz) >= _NNZ_CACHE_SIZE:
                del self._nnz[next(iter(self._nnz))]
            got = (mat, nz, mat.rows * mat.cols)
            self._nnz[id(mat)] = got
        return got[1], got[2]

    def seen_before(self, name, args, kwargs):
        key = [name]
        values = list(args) + [v for _, v in sorted(kwargs.items())]
        for a in values:
            if a is None or isinstance(a, (bool, int, str, Fraction)):
                key.append(a)
            elif type(a).__name__ in ("Mat", "mpq"):
                key.append(a)
            else:
                key.append(("id", id(a)))
        key = tuple(key)
        if key in self._seen:
            return True
        self._seen.add(key)
        self._alive.append(values)
        return False

    def wrap(self, name, fn, kind):
        st = self.stat(name, kind)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "repeat" and self.seen_before(name, args, kwargs):
                st.hits += 1
            elif kind == "nnz":
                nz, size = self.nnz(args[0])
                st.num += nz
                st.den += size
            elif kind == "pivot":
                before = len(args[0].rows)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_time += dt - inner
            if kind == "rank" and out:
                st.hits += 1
            elif kind == "pivot" and len(args[0].rows) > before:
                st.hits += 1
            return out

        return wrapper

    def report(self):
        entries = {}
        for name, st in self.stats.items():
            row = {"calls": st.calls, "self_s": st.self_time}
            kind = self.kinds[name]
            if kind == "nnz":
                row["nnz_frac"] = st.num / st.den if st.den else 0.0
            elif kind:
                row[RATIO_NAMES[kind]] = st.hits / st.calls if st.calls else 0.0
            entries[name] = row
        return {"entries": entries, "covered_s": self.stack[0]}


def install() -> Tracer:
    """Wrap every entry of ENTRIES at every binding site; returns the tracer."""
    tracer = Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "ncjet" or n.startswith("ncjet.")) and m is not None]
    for name, modname, attr, kind in ENTRIES:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], kind))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, kind)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, wrapped)
    return tracer
