"""The benchmark's per-layer mode runs against the library as it is."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_run_is_correct():
    # The per-layer mode (--trace 1) wraps library functions and reads their
    # arguments, so a library change can break it while the untraced mode
    # still runs. One short traced sample must finish with correct outputs
    # and no failed op.
    argv = ["perfbench/run.py", "--workload", "cycle-p31", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
