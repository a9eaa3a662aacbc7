#!/usr/bin/env python3
"""Record golden.json: exit code and stdout digest of every benchmark command.

    python3 perfbench/golden.py

Runs each command through the real command line (`python3 -m ncjet.cli`)
from the source tree.  Record only from a commit whose outputs are known to
be right; the benchmark counts any later difference as a failed job.
"""

import json
import os
import subprocess
import sys

from run import HERE, SRC, WORKLOADS, golden_key, sha256, without_calculus


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    golden = {}
    # commands whose input is a generated spec are checked against the
    # fixture's report with the `calculus` field left out
    spec_keys = {golden_key(a) for wl in WORKLOADS.values() for a in wl["commands"]
                 if golden_key(a) != " ".join(a)}
    for wl in WORKLOADS.values():
        for argv in wl["commands"]:
            key = golden_key(argv)
            if key in golden:
                continue
            proc = subprocess.run([sys.executable, "-m", "ncjet.cli"] + key.split(),
                                  env=env, capture_output=True, text=True, timeout=600)
            entry = {"exit": proc.returncode, "sha256": sha256(proc.stdout)}
            if key in spec_keys:
                entry["sha256_without_calculus"] = sha256(without_calculus(proc.stdout))
            golden[key] = entry
            print("%-60s exit %d" % (key, proc.returncode))
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
