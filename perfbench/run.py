#!/usr/bin/env python3
"""hsagg benchmark: build -> verify -> simulate cycles driven through `hsagg.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload cycle-p31 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

A sample is one pass over the workload's config list with one seed; every
--seed handed to `build`, `verify` and `simulate` derives from the workload
seed. A run repeats samples with the same seed while the next one is expected
to end within --seconds (there is always at least one) and reports medians
over them. Times are reported at a nominal host speed: each sample's op times
are scaled by the time of a fixed reference computation timed before each op
group of that sample (see REF_NOMINAL_S). Every op's output is checked; a
failed op is counted and its time is left out of the latency metrics. The
SHA-256 of every scheme, report and transcript must repeat across samples,
and between the untraced and the traced sample of a --trace 1 run.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and one
traced sample and prints the per-layer metrics (see perfbench/README.md).
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

USER_ENV = dict(os.environ)
# One process generates the load; pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402

Q31 = (1 << 31) - 1
Q61 = (1 << 61) - 1
GUARD_CAP = 1 << 26
SIM_ROUNDS = 100
SETUP_SPAWNS = 5
IMPORT_CMD = ["-c", "import hsagg.cli"]

# The shared host's speed drifts: one fixed computation takes from 1x to 1.7x
# its fastest time, in spells that last from a few seconds to minutes, and
# every op of a sample drifts with it. Process CPU time drifts as much as wall
# time, so it does not help: ten runs of the same code spread by up to 35 %.
# A fixed reference computation (reference_s), timed before each op group of
# a sample and once at its end, tracks that drift. Each sample's op times are
# therefore scaled by REF_NOMINAL_S over the median reference time of that
# sample, and the setup spawns likewise: the time metrics are seconds at the
# host speed at which one reference computation takes REF_NOMINAL_S, about its
# median time on the 2-core Xeon this was tuned on. Over five runs of each
# workload with different seeds, the spread (quartile distance over median) of
# build_s, verify_s and simulate_s was 0.08-0.25 unscaled and 0.06-0.11 scaled.
REF_NOMINAL_S = 0.1


@dataclass(frozen=True)
class Workload:
    configs: tuple  # (U, V, G, q), run in this order
    build_args: tuple = ()
    verify_args: tuple = ()
    oracle_guard: bool = False
    builds: int = 1  # per config, each with its own derived seed
    simulations: int = 1  # per config, each with its own derived seed


_CYCLE = ((3, 2, 3), (3, 3, 3), (4, 2, 4), (3, 3, 6))
WORKLOADS = {
    # Protocol rounds dominate; (4,2,4) is server-dominant, the others relay-dominant.
    "cycle-p31": Workload(tuple(c + (Q31,) for c in _CYCLE), oracle_guard=True),
    # The same ops on the object-dtype path, where linalg.rank dominates.
    "cycle-p61": Workload(tuple(c + (Q61,) for c in _CYCLE), oracle_guard=True),
    # Exhaustive oracles dominate; small fields make build_random retry. The
    # retry count is geometric in the build seed: the attempts of a sample
    # have a coefficient of variation of about 46 % over seeds with one build
    # per config, and of about 5 % with 128. One small-field simulate takes under
    # 0.1 s, so 8 per config give simulate_s enough work to time.
    "oracle-small-q": Workload(
        ((2, 2, 2, 5), (2, 2, 3, 7), (3, 2, 5, 3), (2, 3, 5, 2)),
        build_args=("--max-retries", "500"),
        verify_args=("--oracle",),
        builds=128,
        simulations=8,
    ),
}
LATENCY_OPS = ("build", "verify", "simulate")

# Per-layer metrics of the traced run (perfbench/README.md maps each layer to
# the end-to-end metric and workload it should move).
COUNTED = (
    "linalg.rank",
    "linalg.mat_vec",
    "linalg.mat_add",
    "linalg.random_mat",
    "combi.enumerate_groups",
    "scheme.sample_zero_sum_scheme",
    "protocol.run_round",
    "protocol.user_encode",
    "audit.mask_distribution",
)
TIMED = (
    "scheme.assemble_relay_matrix",
    "scheme.assemble_server_matrix",
    "scheme.check_zero_sum",
    "protocol.keygen",
    "audit.correctness_fuzz",
    "audit.full_audit",
    "cli.save_scheme",
    "cli.load_scheme",
    "cli.transcript_to_obj",
)
# Disjoint spans whose inclusive time, as a share of the traced sample, gives the layer split.
SHARES = ("linalg.rank", "protocol.run_round", "audit.mask_distribution")
UNITS = {
    "self_s": "s",
    "import_s": "s",
    "overhead_s": "s",
    "calls": "count",
    "cells": "count",
    "states": "count",
    "states_per_s": "1/s",
    "distinct_ratio": "ratio",
    "accept_ratio": "ratio",
    "share": "ratio",
    "bytes_written": "B",
}


@dataclass
class Sample:
    times: dict = field(default_factory=lambda: dict.fromkeys(LATENCY_OPS, 0.0))
    op_s: float = 0.0  # every op's time, failed ones included
    attempted: int = 0
    failed: int = 0
    outputs_ok: bool = True  # build, verify and simulate outputs all passed their checks
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0
    ref_s: list = field(default_factory=list)  # reference times, one before each op group

    @property
    def scale(self) -> float:
        """Factor that turns this sample's wall times into seconds at the nominal host speed."""
        return REF_NOMINAL_S / statistics.median(self.ref_s)

    def record(self, op: str, key: str, dt: float, problem: str | None):
        self.attempted += 1
        self.op_s += dt
        if problem is None:
            if op in self.times:
                self.times[op] += dt
            return
        self.failed += 1
        self.failures.append(f"{op} {key}: {problem}")
        if op in self.times:
            self.outputs_ok = False


def derive_seed(seed: int, idx: int, op: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}/{idx}/{op}".encode()).digest()[:4], "big")


# Allocated once, so that no reference pays page faults; it adds 16 MB to peak_rss_mb.
_SWEEP = np.ones(2_000_000)


def reference_s() -> float:
    """Time one fixed mix of the kinds of work hsagg does, none of it hsagg code.

    Python-int modular arithmetic, an object-dtype matrix product mod 2^61-1
    and small int64 array ops take a fifth of the time each, sweeps over a
    16 MB array two fifths: in the samples measured while tuning, the ops'
    times moved roughly in proportion to this mix's when the host slowed. The
    cyclic garbage collector is off meanwhile, so that objects the ops left
    behind do not add to the time.
    """
    rng = np.random.default_rng(0)
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 1
        for i in range(78_000):
            acc = (acc * 1103515245 + i) % Q61
        a = np.array(rng.integers(0, Q31, size=(12, 12)).tolist(), dtype=object)
        for _ in range(105):
            (a @ a) % Q61
        for _ in range(1250):
            c = rng.integers(0, Q31, size=(6, 9), dtype=np.int64)
            (c % 46341 * 3 % Q31).sum()
        for _ in range(49):
            np.add(_SWEEP, 1.0, out=_SWEEP)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def call_cli(cli, argv):
    """Run one `hsagg` command in-process; returns (exit code or error, seconds, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed op, never the end of the run
        rc = f"{type(exc).__name__}: {exc}"[:200]
    return rc, time.perf_counter() - t0, out.getvalue()


def check_verify(path: Path, oracles: bool) -> str | None:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    if report.get("passed") is not True:
        return "report not passed"
    if oracles:
        try:
            statuses = [o["status"] for o in report["oracle_relay"].values()]
            statuses.append(report["oracle_server"]["status"])
        except (KeyError, TypeError, AttributeError) as exc:
            return f"report lacks oracle statuses: {exc!r}"
        if any(st != "pass" for st in statuses):
            return f"oracle statuses {statuses}"
    return None


def oracle_guard(audit, s) -> str | None:
    """Every oracle of a large-field scheme must be refused with StateSpaceTooLarge."""
    calls = [(f"relay {u}", audit.entropy_oracle_relay, (s, u, GUARD_CAP)) for u in range(1, s.cfg.U + 1)]
    calls.append(("server", audit.entropy_oracle_server, (s, GUARD_CAP)))
    problems = []
    for label, fn, fn_args in calls:
        try:
            fn(*fn_args)
            problems.append(f"{label} oracle enumerated")
        except audit.StateSpaceTooLarge:
            pass
        except Exception as exc:
            problems.append(f"{label} oracle raised {type(exc).__name__}")
    return "; ".join(problems) or None


def run_sample(hs, wl: Workload, seed: int, work: Path, tracer: Tracer | None = None) -> Sample:
    cli, audit = hs["cli"], hs["audit"]
    unrecorded = tracer.paused if tracer else contextlib.nullcontext
    smp = Sample()
    for idx, (U, V, G, q) in enumerate(wl.configs):
        key = f"{U},{V},{G}@{q}"
        files = {kind: work / f"{idx}-{kind}.json" for kind in ("scheme", "report", "transcript")}
        for path in files.values():
            path.unlink(missing_ok=True)

        def written(kind, tag=""):
            path = files[kind]
            if path.exists():
                data = path.read_bytes()
                smp.digests[f"{key}/{kind}{tag}"] = hashlib.sha256(data).hexdigest()
                smp.bytes_written += len(data)

        smp.ref_s.append(reference_s())
        for b in range(wl.builds):  # the last scheme built goes on to verify and simulate
            files["scheme"].unlink(missing_ok=True)
            rc, dt, _ = call_cli(cli, [
                "build", "--U", str(U), "--V", str(V), "--G", str(G), "--q", str(q),
                "--seed", str(derive_seed(seed, idx, f"build{b}")), *wl.build_args,
                "--out", str(files["scheme"]),
            ])  # fmt: skip
            written("scheme", str(b) if wl.builds > 1 else "")
            s, problem = None, None
            if rc != 0:
                problem = f"exit {rc}"
            else:
                try:
                    with unrecorded():
                        s = cli.load_scheme(str(files["scheme"]))
                except cli.SchemeFileError as exc:
                    problem = f"reload: {exc}"
            smp.record("build", key, dt, problem)
        later = ["verify"] + ["simulate"] * wl.simulations + ["oracle_guard"] * wl.oracle_guard
        if s is None:
            for op in later:
                smp.record(op, key, 0.0, "not run: build failed")
            continue

        smp.ref_s.append(reference_s())
        rc, dt, _ = call_cli(cli, [
            "verify", str(files["scheme"]), "--seed", str(derive_seed(seed, idx, "verify")),
            *wl.verify_args, "--out", str(files["report"]),
        ])  # fmt: skip
        written("report")
        problem = f"exit {rc}" if rc != 0 else check_verify(files["report"], "--oracle" in wl.verify_args)
        smp.record("verify", key, dt, problem)

        smp.ref_s.append(reference_s())
        for k in range(wl.simulations):
            files["transcript"].unlink(missing_ok=True)
            rc, dt, out = call_cli(cli, [
                "simulate", str(files["scheme"]), "--rounds", str(SIM_ROUNDS),
                "--seed", str(derive_seed(seed, idx, f"simulate{k}")), "--out", str(files["transcript"]),
            ])  # fmt: skip
            written("transcript", str(k) if wl.simulations > 1 else "")
            problem = None
            if rc != 0:
                problem = f"exit {rc}"
            elif f"correct rounds: {SIM_ROUNDS}/{SIM_ROUNDS}" not in out:
                problem = "not every round decoded correctly"
            smp.record("simulate", key, dt, problem)

        if wl.oracle_guard:
            t0 = time.perf_counter()
            problem = oracle_guard(audit, s)
            smp.record("oracle_guard", key, time.perf_counter() - t0, problem)
    smp.ref_s.append(reference_s())  # brackets the last op group
    return smp


def child_env() -> dict:
    """The caller's environment (threads not pinned) with the checkout's sources first."""
    path = [str(SRC)] + ([USER_ENV["PYTHONPATH"]] if USER_ENV.get("PYTHONPATH") else [])
    return dict(USER_ENV, PYTHONPATH=os.pathsep.join(path))


def spawn_import(extra_args=()) -> tuple[float, str]:
    """Time one fresh interpreter importing hsagg.cli; returns (seconds, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra_args, *IMPORT_CMD],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0, proc.stderr


def setup_s(n: int) -> tuple[float, list[float]]:
    """Median import time of n spawns at the nominal host speed, and the raw times."""
    spawn_import()  # writes the bytecode cache; not timed
    times, refs = [], []
    for _ in range(n):
        refs.append(reference_s())
        times.append(spawn_import()[0])
    refs.append(reference_s())
    return statistics.median(times) * REF_NOMINAL_S / statistics.median(refs), times


def gf_import_s(n: int = 3) -> float:
    """Cumulative import time of hsagg.gf (sympy included), from -X importtime."""
    values = []
    for _ in range(n):
        _, err = spawn_import(("-X", "importtime"))
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "hsagg.gf":
                values.append(int(parts[1]) / 1e6)
    return statistics.median(values)


def environment(args, samples: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(USER_ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "hsagg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "sympy": sys.modules["sympy"].__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "threads_pinned": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(hs, wl, args, work, deadline) -> tuple[dict, list[Sample], bool]:
    setup, spawns = setup_s(SETUP_SPAWNS)
    samples = []
    while True:
        t0 = time.perf_counter()
        samples.append(run_sample(hs, wl, args.seed, work))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    n = len(samples)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    metrics = {"setup_s": (setup, "s", len(spawns))}
    for op in LATENCY_OPS:
        metrics[f"{op}_s"] = (statistics.median(s.scale * s.times[op] for s in samples), "s", n)
    metrics["verified_scheme_s"] = (
        statistics.median(s.scale * (s.times["build"] + s.times["verify"]) for s in samples), "s", n
    )
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    metrics["ok_op_share"] = ((attempted - failed) / attempted, "ratio", attempted)
    deterministic = all(s.digests == samples[0].digests for s in samples)
    print(f"determinism: {n} same-seed samples, digests {'repeat' if deterministic else 'DIFFER'}")
    print(f"sample op seconds: {[round(s.op_s, 3) for s in samples]}")
    print(f"sample speed scale: {[round(s.scale, 4) for s in samples]}")
    print(f"reference seconds per sample: {[[round(t, 4) for t in s.ref_s] for s in samples]}")
    for op in LATENCY_OPS:
        print(f"unscaled {op}_s per sample: {[round(s.times[op], 3) for s in samples]}")
    print(f"unscaled setup spawns: {[round(t, 4) for t in spawns]}")
    return metrics, samples, deterministic


def per_layer(hs, wl, args, work) -> tuple[dict, list[Sample], bool]:
    gf_import = gf_import_s()
    plain = run_sample(hs, wl, args.seed, work)
    tracer = Tracer(list(hs.values()))
    tracer.install()
    try:
        traced = run_sample(hs, wl, args.seed, work, tracer)
    finally:
        tracer.uninstall()
    deterministic = plain.digests == traced.digests
    print(f"determinism: traced vs untraced digests {'repeat' if deterministic else 'DIFFER'}")

    values = {"gf.import_s": gf_import}
    for name in COUNTED:
        values[f"{name}.self_s"] = tracer.stat(name).self_s
        values[f"{name}.calls"] = tracer.stat(name).calls
    for name in TIMED:
        values[f"{name}.self_s"] = tracer.stat(name).self_s
    rank_calls = tracer.stat("linalg.rank").calls
    values["linalg.rank.cells"] = tracer.rank_cells
    values["linalg.rank.distinct_ratio"] = len(tracer.rank_contents) / rank_calls if rank_calls else 0.0
    draws = tracer.stat("scheme.sample_zero_sum_scheme").calls
    values["scheme.build_random.accept_ratio"] = tracer.stat("scheme.build_random").ok / draws if draws else 0.0
    mask_s = tracer.stat("audit.mask_distribution").total_s
    values["audit.mask_distribution.states"] = tracer.mask_states
    values["audit.mask_distribution.states_per_s"] = tracer.mask_states / mask_s if mask_s else 0.0
    values["cli.bytes_written"] = traced.bytes_written
    for name in SHARES:
        values[f"{name}.share"] = tracer.stat(name).total_s / traced.op_s
    values["trace.overhead_s"] = traced.scale * traced.op_s - plain.scale * plain.op_s

    split = {m: round(tracer.module_self_s(m) / traced.op_s, 4) for m in hs}
    print(f"self-time share by module: {json.dumps(split)}")
    metrics = {name: (v, UNITS[name.rsplit(".", 1)[1]], 1) for name, v in values.items()}
    return metrics, [plain, traced], deterministic


def import_hsagg() -> dict:
    sys.path.insert(0, str(SRC))
    import hsagg
    from hsagg import audit, cli, combi, gf, linalg, protocol, rates, scheme

    if not Path(hsagg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: hsagg was imported from {hsagg.__file__}, not from {SRC}")
    return dict(gf=gf, linalg=linalg, combi=combi, rates=rates, scheme=scheme, protocol=protocol, audit=audit, cli=cli)


def run_all(args) -> int:
    """Run each workload in its own process, so each gets its own peak RSS."""
    rc = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = subprocess.run([sys.executable, __file__, *argv], env=USER_ENV).returncode or rc
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "hsagg" / "cli.py").is_file():
        print(f"error: no hsagg sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds
    hs = import_hsagg()
    reference_s()  # warm-up, not timed
    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, samples, deterministic = per_layer(hs, wl, args, Path(tmp))
        else:
            metrics, samples, deterministic = end_to_end(hs, wl, args, Path(tmp), deadline)

    failures = sorted({f for s in samples for f in s.failures})
    for f in failures:
        print(f"failed op: {f}")
    print(f"workload {args.workload}  seed {args.seed}  samples {len(samples)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n}")
    print("env " + json.dumps(environment(args, len(samples))))
    print("digests " + json.dumps(samples[0].digests, sort_keys=True))
    attempted = sum(s.attempted for s in samples)
    result = {
        "correct": deterministic and all(s.outputs_ok for s in samples),
        "attempted": attempted,
        "failed": sum(s.failed for s in samples),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
