"""The benchmark harness runs on the library as it stands.

`bench/run.py --smoke` runs every workload at its smallest size, plain and
traced, and fails when a workload's own checks fail or a metric is missing.
The traced run wraps library functions by name, so dropping or renaming one
of them fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
