"""The benchmark's modes run against the library as it is."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from hsagg import audit, cli, combi, gf, linalg, protocol, rates, scheme

ROOT = Path(__file__).resolve().parents[1]


def assert_one_sample_is_correct(workload: str, trace: str):
    """One short sample of the workload must finish with correct outputs and no failed op."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]


def test_traced_benchmark_run_is_correct():
    # The per-layer mode (--trace 1) wraps library functions and reads their
    # arguments, so a library change can break it while the untraced mode
    # still runs.
    assert_one_sample_is_correct("cycle-p31", "1")


def test_untraced_oracle_benchmark_run_is_correct():
    # The untraced mode on the tiny fields runs verify --oracle and the
    # builds that retry, which the traced cycle-p31 run does not.
    assert_one_sample_is_correct("oracle-small-q", "0")


def test_tracer_counts_the_key_states_of_every_oracle_run():
    # The benchmark reads audit.mask_distribution.states from result[0] of
    # each traced call: the q^cols key states of that oracle.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer([gf, combi, linalg, rates, scheme, protocol, audit, cli])
    tracer.install()
    try:
        report = audit.full_audit(scheme.build_example1(), fuzz_rounds=1, oracle_cap=audit.DEFAULT_ORACLE_CAP)
    finally:
        tracer.uninstall()
    oracles = [*report.oracle_relay.values(), report.oracle_server]
    assert all(isinstance(o, audit.OracleResult) for o in oracles)
    assert tracer.stat("audit.mask_distribution").calls == 3
    assert tracer.mask_states == sum(o.states for o in oracles) == 2 * 5**10 + 5**8
