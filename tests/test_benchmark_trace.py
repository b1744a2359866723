"""The benchmark's traced check, run as the benchmark runs it: one traced
cycle of all three workloads in a child process, on this tree's `src`.  It
fails when a name the tracer patches is renamed, a span a workload must
reach goes unreached, kernel-arith reaches a layer it must not, or an
operation's output is wrong (see README, "Benchmark")."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_check_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernel-arith",
                           "--trace", "1"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, \
        {k: v for k, v in last.items() if k != "metrics"}
