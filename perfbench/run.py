#!/usr/bin/env python3
"""ncjet benchmark: closed-loop jobs, one at a time, each a fresh process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --negative-controls

Run from a source checkout; nothing is installed (the engine is imported
from src/ on PYTHONPATH).  Each job (job.py) builds its calculus, runs its
ncjet commands twice in one process and reports when each phase ended:
setup_s, compute_s (first pass), reuse_s (second pass), job_s (spawn to
exit) and peak_rss_mb.  The timings are seconds at a fixed reference CPU
speed: probes inside the job measure how fast its CPU ran during each
phase (see at_ref_speed); wall-clock medians are printed beside them.
Every output is checked against golden.json, recorded from a known-good
commit.  Jobs start until the next one would end after --seconds; the run
reports medians over its jobs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced jobs (spans.py wraps every layer's entry points) with
untraced ones, reports the per-layer metrics from the traced jobs only,
and the tracing overhead from the difference.  The last line of stdout is
the JSON result; the lines before it give every metric with its unit,
sample count and quartiles, the environment and the generated input.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0
# Seconds that job.py's probe kernel takes at the reference speed: its
# usual time, unslowed by other load, on a 2-vCPU x86-64 VM under
# CPython 3.11.  Only the scale of the timings depends on it.
REF_PROBE_S = 0.85e-3
PHASES = ("setup_s", "compute_s", "reuse_s", "job_s")

QUAT_SPENCER = ["spencer", "quaternion", "--order", "3", "--json"]
SHEARED_SPEC = "sheared-quaternion.json"

_SPENCER_PATH = [
    "linalg.Mat.apply", "linalg.Mat.mul", "linalg.kron", "linalg.rref",
    "linalg.SpanBuilder.add", "linalg.quotient_data",
    "algebra.tensor_space", "algebra.tensor_module", "algebra.module_closure",
    "algebra.TensorSpace.class_of",
    "calculus.build_calculus", "calculus.Calculus.descend",
    "calculus.Calculus.omega_lift", "calculus.Calculus.form_module",
    "jets.jet_module", "jets.sym_module", "jets.pair_module", "jets.spencer_operator",
    "jets.dtilde_maps", "jets.delta_contraction", "jets.spencer_complex",
    "jets.bicomplex_report",
]

# Why each workload is here: see README.md.  `reach` lists the wrapped
# entries a traced job must call; a zero count fails the traced run.
WORKLOADS = {
    "spencer-quat": {
        "ref": "quaternion",
        "commands": [QUAT_SPENCER],
        "reach": _SPENCER_PATH,
    },
    "tower-matrix2": {
        "ref": "matrix2-universal",
        "commands": [["connections", "matrix2-universal", "--bimodule", "--json"]],
        "reach": [
            "linalg.Mat.apply", "linalg.Mat.mul", "linalg.kron", "linalg.rref",
            "linalg.SpanBuilder.add", "linalg.quotient_data",
            "algebra.tensor_space", "algebra.tensor_module", "algebra.module_closure",
            "algebra.AffineSystem.add_row", "algebra.AffineSystem.solve",
            "calculus.build_calculus", "connections.solve_bimodule_connections",
        ],
    },
    "session-quat": {
        "ref": "quaternion",
        "commands": [
            ["jets", "quaternion", "--order", "3", "--json"],
            QUAT_SPENCER,
            ["connections", "quaternion", "--bimodule", "--json"],
            ["quantize", "quaternion", "--star-gens", "--hbar", "2/3", "--json"],
            ["demo", "quaternion", "--json"],
        ],
        "reach": _SPENCER_PATH + [
            "algebra.AffineSystem.add_row", "algebra.AffineSystem.solve",
            "algebra.solve_module_maps", "jets.jet_exactness", "jets.elemental_span",
            "connections.solve_bimodule_connections", "connections.tensor_connection",
            "quantization.build_quantization", "quantization.OperatorContext.op_lift",
            "quantization.Quantization.zeta", "quantization.Quantization.star_eval",
        ],
    },
    "sheared-quat": {
        "ref": SHEARED_SPEC,
        "commands": [["spencer", SHEARED_SPEC, "--order", "3", "--json"]],
        "reach": _SPENCER_PATH + ["specio.parse_calculus_spec"],
    },
}

# The engine's own negative controls: (corrupted command, the command whose
# golden output it is checked against).
NEGATIVE_CONTROLS = {
    "spencer --corrupt-sign": (QUAT_SPENCER + ["--corrupt-sign"], QUAT_SPENCER),
    "demo --corrupt": (["demo", "quaternion", "--json", "--corrupt"],
                       ["demo", "quaternion", "--json"]),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_calculus(stdout: str) -> str:
    """Canonical text of a --json report minus its `calculus` field."""
    doc = json.loads(stdout)
    doc.pop("calculus", None)
    return json.dumps(doc, sort_keys=True)


def golden_key(argv):
    """Golden entry for a command: a generated spec is checked as quaternion."""
    return " ".join("quaternion" if a == SHEARED_SPEC else a for a in argv)


def check_output(out, golden, key):
    """None if a command's exit code and stdout match golden[key], else why not."""
    want = golden.get(key)
    if want is None:
        return "no golden output for %r" % key
    if out["exit"] != want["exit"]:
        return "%r exited %d, expected %d" % (key, out["exit"], want["exit"])
    if SHEARED_SPEC not in out["argv"]:
        if sha256(out["stdout"]) != want["sha256"]:
            return "%r output differs from the golden" % key
        return None
    try:
        got = sha256(without_calculus(out["stdout"]))
    except ValueError:
        return "%r printed no JSON report" % key
    if got != want["sha256_without_calculus"]:
        return "%r output differs from the unsheared report" % key
    return None


def check_job(sample, golden, key_of=golden_key):
    """Set sample["error"] if a command's output differs from golden[key_of(argv)]."""
    if "error" in sample:
        return
    for out in sample["result"]["outputs"]:
        why = check_output(out, golden, key_of(out["argv"]))
        if why:
            sample["error"] = why
            return


def at_ref_speed(probes, lo, hi):
    """Seconds the job's work in [lo, hi) takes at the reference speed.

    The probes that ran in the interval are taken out of it, and the rest
    is scaled by the mean speed they measured (REF_PROBE_S over a probe's
    time), since work done is speed integrated over time.  An interval
    shorter than the probe period is scaled by the whole job's probes.
    """
    inside = [d for t, d in probes if lo <= t < hi]
    speeds = [REF_PROBE_S / d for d in inside or [d for _, d in probes]]
    return (hi - lo - sum(inside)) * statistics.fmean(speeds)


def run_job(ref, commands, trace, deadline, probe=False):
    """Spawn one job process; returns a sample dict with `error` set on failure.

    With `probe`, the phase timings are at the reference speed, and
    sample["wall"] holds them as measured.
    """
    job = {"ref": ref, "commands": commands, "trace": trace, "probe": probe}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), json.dumps(job)],
        cwd=str(WORK), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"job_s": time.monotonic() - t_spawn, "error": "timeout after %.0f s" % timeout}
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no job behind
            proc.kill()
            proc.communicate()
    t_exit = time.monotonic()
    sample = {"job_s": t_exit - t_spawn, "traced": trace}
    if proc.returncode != 0 or "Traceback" in stderr:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        sample["error"] = "job exited %d: %s" % (proc.returncode, tail[0])
        return sample
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sample["error"] = "job printed no result"
        return sample
    sample["result"] = result
    marks = result["marks"]
    # time.monotonic is one system-wide clock, so the child's marks and the
    # parent's spawn and exit times compare directly.
    bounds = {
        "setup_s": (t_spawn, marks["built"]),
        "compute_s": (marks["built"], marks["passes"][0]),
        "reuse_s": (marks["passes"][0], marks["passes"][1]),
        "job_s": (t_spawn, t_exit),
    }
    wall = {name: hi - lo for name, (lo, hi) in bounds.items()}
    sample.update(wall)
    probes = result.pop("probes")
    if probe:
        sample["wall"] = wall
        sample.update({name: at_ref_speed(probes, lo, hi) for name, (lo, hi) in bounds.items()})
        sample["cpu_speed"] = statistics.fmean(REF_PROBE_S / d for _, d in probes)
    sample["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    sample["import_s"] = marks["import"] - marks["start"]
    return sample


def closed_loop(ref, commands, seconds, trace, golden):
    """Run jobs back to back until the next one would end after `seconds`."""
    samples = []
    t0 = time.monotonic()
    hard_deadline = t0 + RUN_LIMIT_S
    while True:
        elapsed = time.monotonic() - t0
        if samples and elapsed + statistics.median(s["job_s"] for s in samples) > seconds:
            break
        # in a traced run, every other job is untraced to measure the overhead
        traced = bool(trace) and len(samples) % 2 == 0
        # the signal-driven probes would count in traced spans, so a traced
        # run compares traced and untraced jobs without them
        sample = run_job(ref, commands, traced, hard_deadline, probe=not trace)
        check_job(sample, golden)
        samples.append(sample)
        if time.monotonic() >= hard_deadline:
            break
    return samples


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, values, unit, wall=None):
    """(metric entry, printable line) for the median of `values`."""
    if not values:
        return {"value": 0.0, "unit": unit}, "%-44s no successful samples" % name
    q1, med, q3 = quartiles(values)
    line = "%-44s %12.6g %-5s n=%d  min=%.6g q1=%.6g q3=%.6g" % (
        name, med, unit, len(values), min(values), q1, q3)
    if wall:
        line += "  wall median=%.6g" % statistics.median(wall)
    return {"value": med, "unit": unit}, line


def end_to_end(spec, samples):
    ok = [s for s in samples if "error" not in s]
    metrics, lines = {}, []
    for m in spec["end_to_end"]:
        name = m["name"]
        wall = [s["wall"][name] for s in ok] if name in PHASES else None
        entry, line = summarize(name, [s[name] for s in ok], m["unit"], wall)
        metrics[name] = entry
        lines.append(line)
    entry, line = summarize("cpu_speed (probe speed / reference)",
                            [s["cpu_speed"] for s in ok], "ratio")
    lines.append(line)
    return metrics, lines


def per_layer(spec, samples, reach):
    """Per-layer metrics from the traced jobs; also the names never reached."""
    ok = [s for s in samples if "error" not in s]
    traced = [s for s in ok if s["traced"]]
    plain = [s for s in ok if not s["traced"]]
    metrics, lines = {}, []
    derived = {
        # share of traced job wall time inside `import ncjet` or an outermost span
        "trace.attributed_frac": [
            (s["import_s"] + s["result"]["trace"]["covered_s"]) / s["job_s"] for s in traced
        ],
        "trace.overhead_frac": [
            statistics.median(s["job_s"] for s in traced)
            / statistics.median(s["job_s"] for s in plain) - 1.0
        ] if traced and plain else [],
    }
    for m in spec["per_layer"]:
        name = m["name"]
        if name in derived:
            values = derived[name]
        else:
            entry, stat = name.rsplit(".", 1)
            values = [s["result"]["trace"]["entries"][entry][stat] for s in traced]
        metrics[name], line = summarize(name, values, m["unit"])
        lines.append(line)
    unreached = sorted(
        e for e in reach
        if not traced or any(s["result"]["trace"]["entries"][e]["calls"] == 0 for s in traced)
    )
    return metrics, lines, unreached


def source_stamp():
    """Commit if the checkout is a git repository, and a digest of src/ncjet."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "ncjet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def prepare(seed):
    """Byte-compile the engine and write the seeded spec; returns input facts."""
    if not (SRC / "ncjet" / "__init__.py").is_file():
        sys.exit("perfbench: no ncjet sources at %s; run from a source checkout" % SRC)
    # every job imports from cached bytecode, as an installed package would
    if not compileall.compile_dir(str(SRC / "ncjet"), quiet=2):
        sys.exit("perfbench: src/ncjet does not byte-compile")
    from shear import nonzero_share, sheared_spec, spec_digest, spec_text

    WORK.mkdir(exist_ok=True)
    base = json.loads((HERE / "quaternion.json").read_text())
    doc = sheared_spec(base, seed)
    text = spec_text(doc)
    (WORK / SHEARED_SPEC).write_text(text)
    return {"seed": seed, "spec": SHEARED_SPEC, "spec_sha256": spec_digest(text),
            "spec_nonzero_share": round(nonzero_share(doc), 6)}


def run_workload(name, args, spec, golden, inputs):
    wl = WORKLOADS[name]
    samples = closed_loop(wl["ref"], wl["commands"], args.seconds, args.trace, golden)
    failed = [s for s in samples if "error" in s]
    if args.trace:
        metrics, lines, unreached = per_layer(spec, samples, wl["reach"])
    else:
        metrics, lines = end_to_end(spec, samples)
        unreached = []
    print("== %s  seed=%d  trace=%d  jobs=%d  failed=%d  error_rate=%.4g"
          % (name, args.seed, args.trace, len(samples), len(failed),
             len(failed) / len(samples)))
    for s in failed:
        print("   FAILED job: %s" % s["error"])
    if unreached:
        print("   FAILED trace: wrapped entries never called: %s" % ", ".join(unreached))
    for line in lines:
        print("   " + line)
    backends = sorted({s["result"]["backend"] for s in samples if "result" in s})
    detail = {"workload": name, "backend": backends, "inputs": inputs if "sheared" in name else
              {"seed": args.seed}}
    print("   detail " + json.dumps(detail, sort_keys=True))
    return {"correct": not failed and not unreached, "attempted": len(samples),
            "failed": len(failed), "metrics": metrics}


def negative_controls(golden):
    """Each control must be counted as a failed job; returns the exit code."""
    missed = 0
    for label, (argv, good) in NEGATIVE_CONTROLS.items():
        sample = run_job("quaternion", [argv], False, time.monotonic() + RUN_LIMIT_S)
        check_job(sample, golden, lambda _argv: " ".join(good))
        why = sample.get("error")
        print("negative control %-24s %s" % (
            label, "counted as failure: " + why if why else "NOT DETECTED"))
        missed += why is None
    return 1 if missed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-controls", action="store_true",
                    help="check that corrupted engine outputs are counted as failures")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    inputs = prepare(args.seed)
    if args.negative_controls:
        return negative_controls(golden)

    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(), **source_stamp()}
    print("ncjet benchmark  " + json.dumps(stamp, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args, spec, golden, inputs) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
