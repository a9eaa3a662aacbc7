"""One benchmark job: a fresh process that runs ncjet commands as a session.

Usage: python3 job.py '<json>' with keys
  ref       the calculus the commands read (fixture name or spec path)
  commands  list of ncjet argument lists, run through ncjet.cli.main
  trace     true to wrap the engine's layer entry points (see spans.py)
  probe     true to time the reference kernel every PROBE_PERIOD_S (below)

The job builds the calculus once (set-up), then runs the command list
twice.  The first pass fills the per-Calculus caches; the second reads
them.  It prints one JSON line: monotonic-clock marks, every command's
exit code and output, the scalar backend and the peak resident memory.
The parent process times the job from before it is spawned, so set-up
includes interpreter start and `import ncjet`.

With `probe`, a timer signal interrupts the job every PROBE_PERIOD_S and
times a fixed pure-Python kernel (`probe`) on the same CPU.  On a shared
host the speed of that CPU changes from second to second with other
tenants' load; the probes sample it while the job runs, and run.py uses
them to convert each phase to the time it takes at a fixed reference speed.
"""

import time

T_START = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

PASSES = 2
PROBE_PERIOD_S = 0.025
PROBES = []  # (monotonic start, seconds) of each probe


def probe(_signum, _frame):
    """Time a fixed kernel of the engine's kind: rationals and a small dict."""
    t = time.monotonic()
    s = Fraction(0)
    d = {}
    for i in range(1, 200):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        d[i % 97] = d.get(i % 97, 0) + i
    PROBES.append((t, time.monotonic() - t))


def main():
    job = json.loads(sys.argv[1])
    if job["probe"]:
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    import ncjet.cli as cli
    import ncjet.linalg

    t_import = time.monotonic()
    tracer = None
    if job["trace"]:
        from spans import install

        tracer = install()

    # An API session keeps its Calculus.  The CLI re-reads a spec file on
    # every call, so the session hands the one it built back to each
    # command; fixtures are kept by ncjet's own registry either way.
    load = cli._load_calculus
    calc = load(job["ref"])
    cli._load_calculus = lambda ref: calc if ref == job["ref"] else load(ref)
    marks = {"start": T_START, "import": t_import, "built": time.monotonic(), "passes": []}

    outputs = []
    for p in range(PASSES):
        for argv in job["commands"]:
            buf = io.StringIO()
            code = cli.main(argv, buf)
            outputs.append({"pass": p, "argv": argv, "exit": code, "stdout": buf.getvalue()})
        marks["passes"].append(time.monotonic())

    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    zero = ncjet.linalg.ZERO
    result = {
        "marks": marks,
        "probes": PROBES,
        "outputs": outputs,
        "backend": "%s.%s" % (type(zero).__module__, type(zero).__name__),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
