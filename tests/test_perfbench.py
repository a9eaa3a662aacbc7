"""Smoke test of the benchmark harness in perfbench/, traced, one job per workload."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import shear

    return run, shear


def test_traced_jobs_reach_every_entry_and_match_golden(harness, tmp_path):
    run, shear = harness
    base = json.loads((PERFBENCH / "quaternion.json").read_text())
    (tmp_path / run.SHEARED_SPEC).write_text(shear.spec_text(shear.sheared_spec(base, 1)))
    env = dict(os.environ, PYTHONPATH=str(run.SRC), PYTHONHASHSEED="0")
    jobs = {}
    for name, wl in run.WORKLOADS.items():
        job = {"ref": wl["ref"], "commands": wl["commands"], "trace": True, "probe": False}
        jobs[name] = subprocess.Popen(
            [sys.executable, str(PERFBENCH / "job.py"), json.dumps(job)], cwd=str(tmp_path),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    for name, proc in jobs.items():
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, (name, stderr)
        sample = {"result": json.loads(stdout.strip().splitlines()[-1])}
        run.check_job(sample, golden)
        assert "error" not in sample, (name, sample.get("error"))
        entries = sample["result"]["trace"]["entries"]
        never = [e for e in run.WORKLOADS[name]["reach"] if entries[e]["calls"] == 0]
        assert never == [], (name, never)
