"""Command-line frontend.

Exit codes: 0 pass, 1 assertion failure, 2 invalid input, 3 parse error.
Every command takes a calculus spec file (JSON) or a compiled-in fixture
name, and treats both alike.  `quantize` starts from the frame-parallel
connection on a calculus with a declared left frame, and refuses when that
connection has no braiding, even if other braided connections exist;
without a frame it starts from the braided solver's canonical point.  Its
--star-gens needs a declared left frame.  All reports are deterministic and
--json output is byte-stable for identical inputs.  NCJET_MAX_DIM
overrides the ambient-dimension cap; an input that needs a larger matrix
is invalid (exit 2).  The cap bounds work actually done, so a result an
earlier command kept on the calculus is not re-checked against it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .linalg import DimensionCapError, rat_str, kernel_of
from .calculus import Calculus, CalculusError
from .connections import (
    canonical_bimodule_connection,
    curvature,
    metric_compatibility,
    solve_bimodule_connections,
    solve_connections,
    torsion,
)
from .fixtures import FIXTURE_NAMES, fixture, quantization_of, star_generators
from .jets import (
    HOLONOMIC,
    bicomplex_report,
    elemental_span,
    jet_exactness,
    jet_module,
    spencer_complex,
    sym_module,
)
from .specio import (
    SpecParseError,
    dump_json,
    load_json,
    parse_calculus_spec,
    parse_operator_spec,
    parse_rat,
    serialize_calculus,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_PARSE = 3


def _load_calculus(ref: str) -> Calculus:
    if ref in FIXTURE_NAMES:
        return fixture(ref)
    return parse_calculus_spec(load_json(ref))


def _rat_rows(mat):
    return [[rat_str(x) for x in row] for row in mat.data]


def _emit(report, as_json, stream):
    if as_json:
        stream.write(dump_json(report) + "\n")
    else:
        _pretty(report, stream)


def _pretty(node, stream, indent=0):
    pad = "  " * indent
    if isinstance(node, dict):
        for key in node:
            val = node[key]
            if isinstance(val, (dict, list)):
                stream.write("%s%s:\n" % (pad, key))
                _pretty(val, stream, indent + 1)
            else:
                stream.write("%s%s: %s\n" % (pad, key, val))
    elif isinstance(node, list):
        for val in node:
            if isinstance(val, (dict, list)):
                _pretty(val, stream, indent)
                stream.write("\n" if indent == 0 else "")
            else:
                stream.write("%s- %s\n" % (pad, val))
    else:
        stream.write("%s%s\n" % (pad, node))


def cmd_validate(args, out):
    try:
        _load_calculus(args.path)
    except SpecParseError as exc:
        out.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except CalculusError as exc:
        out.write("invalid calculus: %s\n" % exc)
        return EXIT_INVALID
    out.write("ok\n")
    return EXIT_PASS


def _check_order(args, least):
    if args.order < least:
        raise CalculusError("--order must be at least %d, not %d" % (least, args.order))


def cmd_jets(args, out):
    _check_order(args, 0)
    calc = _load_calculus(args.path)
    e = calc.base_module()
    rows = []
    for n in range(args.order + 1):
        jet = jet_module(calc, e, n, HOLONOMIC)
        sym = sym_module(calc, e, n)
        row = {"order": n, "jet_dim": jet.dim, "sym_dim": sym.dim}
        if n >= 1:
            ex = jet_exactness(calc, e, n)
            row["exact"] = ex["exact"]
            row["pullback"] = ex["pullback_square"]
            row["elemental_equal"] = elemental_span(calc, jet).dim == jet.dim
        rows.append(row)
    report = {"calculus": calc.name or args.path, "orders": rows}
    _emit(report, args.json, out)
    ok = all(r.get("exact", True) and r.get("elemental_equal", True) for r in rows)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_spencer(args, out):
    _check_order(args, 1)
    calc = _load_calculus(args.path)
    if args.order > calc.max_degree:
        raise CalculusError("--order %d needs forms of degree %d; the tower stops at degree %d"
                            % (args.order, args.order, calc.max_degree))
    e = calc.base_module()
    report = {"calculus": calc.name or args.path, "complexes": [], "bicomplex": None}
    ok = True
    for n in range(1, args.order + 1):
        sc = spencer_complex(calc, e, n)
        entry = {"order": n, "is_complex": sc["is_complex"], "cohomology": sc["cohomology"]}
        report["complexes"].append(entry)
        ok = ok and sc["is_complex"]
    bc = bicomplex_report(calc, e, args.order, corrupt_sign=args.corrupt_sign)
    report["bicomplex"] = {
        "all_pass": bc["all_pass"],
        "cells": [{"cell": name, "pass": flag} for name, flag in bc["cells"]],
    }
    ok = ok and bc["all_pass"]
    _emit(report, args.json, out)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_connections(args, out):
    calc = _load_calculus(args.path)
    report = {"calculus": calc.name or args.path}
    if args.bimodule:
        sol = solve_bimodule_connections(calc)
        report["kind"] = "bimodule"
        report["affine_dim"] = sol.dim
        if not sol.empty:
            bc = canonical_bimodule_connection(calc)
            report["representative_connection"] = _rat_rows(bc.base.mat)
            # metric, torsion and curvature need two-forms
            ker = kernel_of(calc.wedge_map(1, 1)) if calc.max_degree >= 2 else None
            if ker and ker.dim:
                g = ker.basis.row(0)
                report["metric_candidate_dim"] = ker.dim
                report["torsion_zero"] = torsion(calc, bc.base).is_zero()
                report["curvature_zero"] = curvature(calc, bc.base).is_zero()
                report["metric_parallel"] = all(
                    not x for x in metric_compatibility(calc, bc, g)
                )
    else:
        sol = solve_connections(calc, calc.base_module())
        report["kind"] = "left"
        report["affine_dim"] = sol.dim
    _emit(report, args.json, out)
    return EXIT_PASS if not sol.empty else EXIT_FAIL


def cmd_quantize(args, out):
    hbar = parse_rat(args.hbar)
    calc = _load_calculus(args.path)
    q = quantization_of(calc)
    report = {
        "calculus": calc.name or args.path,
        "hbar": rat_str(hbar),
        "order_cap": q.cap,
        "chain_dims": {str(k): [q.chain[k].rows, q.chain[k].cols] for k in sorted(q.chain)},
    }
    if args.op:
        mat = parse_operator_spec(load_json(args.op), calc)
        order = q.ctx.op_order(mat)
        report["operator"] = {"order": None} if order is None else {
            "order": order, "components": [
                {"degree": k, "matrix": _rat_rows(q.homogeneous_component(mat, k))}
                for k in range(order + 1)]}
    if args.star_gens:
        gens = star_generators(calc)
        table = []
        for na in sorted(gens):
            for nb in sorted(gens):
                prod = q.star_eval(gens[na], gens[nb], hbar)
                table.append({"left": na, "right": nb, "degrees": prod.degrees(), "parts": {
                    str(d): _rat_rows(s.mat) for d, s in sorted(prod.parts.items())}})
        report["star_table"] = table
    _emit(report, args.json, out)
    return EXIT_PASS


def cmd_demo(args, out):
    if args.name != "quaternion":
        out.write("unknown demo %r\n" % args.name)
        return EXIT_INVALID
    from .demo import demo_quaternion

    report = demo_quaternion(corrupt=args.corrupt)
    _emit(report, args.json, out)
    if not report["passed"]:
        out.write("FAILED: %s\n" % report["first_failure"])
        return EXIT_FAIL
    return EXIT_PASS


def cmd_dump_fixture(args, out):
    out.write(dump_json(serialize_calculus(fixture(args.name))) + "\n")
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncjet",
        description="exact computations with jets, Spencer operators, "
                    "connections and quantizations over finite-dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a calculus spec file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("jets", help="jet and symbol dimensions with exactness verdicts")
    p.add_argument("path")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jets)

    p = sub.add_parser("spencer", help="Spencer complexes and the double complex")
    p.add_argument("path")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--corrupt-sign", action="store_true",
                   help="negative control: flip the contraction sign")
    p.set_defaults(func=cmd_spencer)

    p = sub.add_parser("connections", help="solve for connections on the calculus")
    p.add_argument("path")
    p.add_argument("--bimodule", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_connections)

    p = sub.add_parser("quantize", help="quantization data, operator decompositions, star tables")
    p.add_argument("path")
    p.add_argument("--hbar", default="1")
    p.add_argument("--op", help="operator spec file to decompose")
    p.add_argument("--star-gens", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("demo", help="run a named end-to-end demonstration")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: corrupt the braiding sign")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("dump-fixture", help="write a compiled-in fixture as a spec file")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.set_defaults(func=cmd_dump_fixture)

    return parser


@cache
def _parser():
    """The process's one parser: parse_args leaves it unchanged, so every call reuses it."""
    return build_parser()


def main(argv=None, out=None):
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except SpecParseError as exc:
        out.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except (CalculusError, DimensionCapError) as exc:
        out.write("invalid input: %s\n" % exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
