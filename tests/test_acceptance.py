"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from hsagg import audit, cli, linalg, protocol, scheme
from hsagg.gf import make_field
from hsagg.rates import (
    Infeasible,
    ProblemConfig,
    classify_regime,
    optimal_rates,
    require_feasible,
)
from hsagg.scheme import (
    PrecodingScheme,
    build_example1,
    build_example2,
    build_random,
    check_zero_sum,
)
from reference import block, block_slices, enumerate_groups, sample_zero_sum_scheme

CAP = 1 << 26
BIG_Q = 2147483647

GOLDEN1 = {
    ((1, 1), (1, 2)): [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]],
    ((1, 1), (2, 1)): [[1, 2], [2, 1], [0, 1], [1, 0], [1, 1]],
    ((1, 1), (2, 2)): [[1, 1], [0, 2], [2, 0], [1, 2], [2, 1]],
    ((1, 2), (2, 1)): [[2, 1], [1, 1], [1, 0], [0, 3], [2, 2]],
    ((1, 2), (2, 2)): [[0, 1], [1, 0], [2, 1], [1, 2], [1, 1]],
    ((2, 1), (2, 2)): [[1, 0], [1, 1], [2, 2], [2, 1], [0, 2]],
}

# Schemes built by criteria 3-6, re-audited for rates in criterion 8.
BUILT_SCHEMES: list[PrecodingScheme] = []


def report(n: int, name: str, ok: bool):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def oracle_computable(cfg: ProblemConfig) -> bool:
    dims = classify_regime(cfg)
    q = cfg.field.modulus
    groups = enumerate_groups(cfg.U, cfg.V, cfg.G)
    t_max = max(sum(any(m[0] == u for m in grp) for grp in groups) for u in range(1, cfg.U + 1))
    c_x = sum(len({m[0] for m in grp}) >= 2 for grp in groups)
    return q ** (t_max * dims.L_S) <= CAP and q ** (c_x * dims.L_S) <= CAP


def gate_check(s, u=None):
    """The RankCheck of relay u's gate, or of the server's if u is None, as full_audit makes it on a zero-sum scheme."""
    m, target = scheme.gate(s, u)
    return audit.RankCheck(target, linalg.rank(m))


def test_criterion_1_rate_region():
    ok = True
    r1 = optimal_rates(ProblemConfig(2, 2, 2, make_field(5)))
    ok &= (r1.r_x, r1.r_y, r1.r_s) == (Fraction(1), Fraction(1), Fraction(2, 5))
    r2 = optimal_rates(ProblemConfig(4, 2, 7, make_field(11)))
    ok &= (r2.r_x, r2.r_y, r2.r_s) == (Fraction(1), Fraction(1), Fraction(3, 8))
    report(1, "rate region reproduction", ok)


def test_criterion_2_infeasibility(capsys):
    ok = True
    f = make_field(2)
    for U in range(2, 6):
        for V in range(1, 5):
            cfg = ProblemConfig(U, V, 1, f)
            try:
                require_feasible(cfg)
                ok = False
            except Infeasible:
                pass
            try:
                build_random(cfg, seed=0)
                ok = False
            except Infeasible:
                pass
            ok &= cli.main(["rates", "--U", str(U), "--V", str(V), "--G", "1"]) != 0
            capsys.readouterr()
    report(2, "G=1 infeasibility", ok)


def test_criterion_3_golden_example1():
    start = time.process_time()
    s = build_example1()
    ok = True
    for g_idx, grp in enumerate(enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)):
        base = np.array(GOLDEN1[grp])
        ok &= np.array_equal(block(s, g_idx, grp[0]), base)
        ok &= np.array_equal(block(s, g_idx, grp[1]), -base % 5)
    ok &= gate_check(s, 1) == audit.RankCheck(10, 10)
    ok &= gate_check(s, 2) == audit.RankCheck(10, 10)
    ok &= gate_check(s) == audit.RankCheck(5, 5)
    ok &= audit.correctness_fuzz(s, rounds=100, seed=0) == 0
    elapsed = time.process_time() - start
    ok &= elapsed < 1.0
    BUILT_SCHEMES.append(s)
    report(3, f"golden example 1 ({elapsed:.2f}s)", ok)


def test_criterion_4_golden_example2():
    start = time.process_time()
    s = build_example2()
    ok = check_zero_sum(s) and len(enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)) == 8
    for u in range(1, 5):
        ok &= gate_check(s, u) == audit.RankCheck(16, 16)
    ok &= gate_check(s) == audit.RankCheck(24, 24)
    ok &= audit.correctness_fuzz(s, rounds=100, seed=0) == 0
    elapsed = time.process_time() - start
    ok &= elapsed < 5.0
    BUILT_SCHEMES.append(s)
    report(4, f"golden example 2 ({elapsed:.2f}s)", ok)


def test_criterion_5_oracle_equivalence():
    start = time.process_time()
    ok = True
    checked = 0
    for q in (2, 3):
        f = make_field(q)
        for U, V in itertools.product((2, 3), (1, 2, 3)):
            for G in range(2, U * V + 1):
                cfg = ProblemConfig(U, V, G, f)
                if not oracle_computable(cfg):
                    continue
                s = build_random(cfg, seed=0, max_retries=500)
                BUILT_SCHEMES.append(s)
                for u in range(1, U + 1):
                    r = audit.entropy_oracle_relay(s, u, CAP)
                    ok &= r.uniform and r.entropy_qary == cfg.V * s.dims.L
                    ok &= r.passed == gate_check(s, u).passed
                o = audit.entropy_oracle_server(s, CAP)
                ok &= o.uniform and o.entropy_qary == (U - 1) * s.dims.L
                ok &= o.passed == gate_check(s).passed
                checked += 1
    ok &= checked >= 10  # the computable portion of the grid is non-trivial
    # Example 1 over GF(5)
    s = build_example1()
    for u in (1, 2):
        r = audit.entropy_oracle_relay(s, u, CAP)
        ok &= r.uniform and r.entropy_qary == 10.0
        ok &= r.passed == gate_check(s, u).passed
    o = audit.entropy_oracle_server(s, CAP)
    ok &= o.uniform and o.entropy_qary == 5.0
    ok &= o.passed == gate_check(s).passed
    elapsed = time.process_time() - start
    ok &= elapsed < 120.0
    report(5, f"oracle equivalence, {checked} grid configs ({elapsed:.1f}s)", ok)


def test_criterion_6_random_construction():
    start = time.process_time()
    ok = True
    f = make_field(BIG_Q)
    for U in (2, 3):
        for V in (1, 2, 3):
            for G in range(2, min(U * V, 6) + 1):
                cfg = ProblemConfig(U, V, G, f)
                for seed in range(10):
                    try:
                        s = build_random(cfg, seed=seed, max_retries=2)
                    except scheme.ConstructionFailed:
                        ok = False
                        continue
                    ok &= s.provenance["retries_used"] <= 2
                    rep = audit.full_audit(s, fuzz_rounds=5, oracle_cap=CAP, seed=seed)
                    ok &= rep.passed
                    if seed == 0:
                        BUILT_SCHEMES.append(s)
    elapsed = time.process_time() - start
    ok &= elapsed < 120.0
    report(6, f"random construction grid ({elapsed:.1f}s)", ok)


def _zero_cross_family(s, user):
    """Zero, in a copy of E, every cross-relay group containing the user."""
    e = s.encoding.copy()
    for g_idx, grp in enumerate(enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)):
        if user in grp and len({m[0] for m in grp}) >= 2:
            e[:, block_slices(s.cfg, s.dims, g_idx, user)[1]] = 0
    return replace(s, encoding=e)


def _mutate_zero_sum_preserving(s, seed):
    """Change one entry of one non-dependent block in a copy of E, then re-complete the group."""
    picks = linalg.random_mats(1, 4, make_field(2147483647), linalg.seed_rows(seed, [[555]]))
    g_pick, m_pick, r_pick, c_pick = picks[0, 0]
    groups = enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)
    g_idx = int(g_pick) % len(groups)
    grp = groups[g_idx]
    member = grp[int(m_pick) % (len(grp) - 1)]  # never the dependent (last)
    q = s.cfg.field.modulus
    e = s.encoding.copy()
    a = e[block_slices(s.cfg, s.dims, g_idx, member)]
    r, c = int(r_pick) % s.dims.L, int(c_pick) % s.dims.L_S
    a[r, c] = (a[r, c] + 1) % q
    others = sum(e[block_slices(s.cfg, s.dims, g_idx, m)] for m in grp[:-1])
    e[block_slices(s.cfg, s.dims, g_idx, grp[-1])] = -others % q
    return replace(s, encoding=e)


def test_criterion_7_negative_controls():
    ok = True
    ex1 = build_example1()

    # (a) one sign flip breaks zero-sum and correctness fuzzing
    e = ex1.encoding.copy()
    rows, cols = block_slices(ex1.cfg, ex1.dims, 0, (1, 1))
    e[rows, cols] = -e[rows, cols] % 5
    flipped = replace(ex1, encoding=e)
    ok &= not check_zero_sum(flipped)
    ok &= audit.correctness_fuzz(flipped, rounds=20, seed=0) > 0

    # (b) zeroing the cross-relay block family of one user drops the server
    # rank below target, and the oracle (where feasible) sees entropy < target
    fam1 = _zero_cross_family(ex1, (1, 1))
    c = gate_check(fam1)
    ok &= c.computed < 5 and not c.passed
    o = audit.entropy_oracle_server(fam1, CAP)
    ok &= o.entropy_qary < o.target and not o.passed
    ok &= o.passed == c.passed
    ex2 = build_example2()
    fam2 = _zero_cross_family(ex2, (1, 1))
    c2 = gate_check(fam2)
    ok &= c2.computed < 24 and not c2.passed

    # (c) >= 50 seeded zero-sum-preserving mutations: rank and oracle verdicts
    # must agree on every relay and on the server view
    mutations = 0
    for q in (2, 3):
        f = make_field(q)
        for U, V, G in ((2, 1, 2), (2, 2, 2), (2, 2, 3)):
            cfg = ProblemConfig(U, V, G, f)
            for seed in range(5):
                base = sample_zero_sum_scheme(cfg, seed)
                m = _mutate_zero_sum_preserving(base, seed)
                ok &= check_zero_sum(m)
                for u in range(1, U + 1):
                    rank_ok = gate_check(m, u).passed
                    ok &= audit.entropy_oracle_relay(m, u, CAP).passed == rank_ok
                ok &= (
                    audit.entropy_oracle_server(m, CAP).passed
                    == gate_check(m).passed
                )
                mutations += 1
    # mutated golden example too
    for seed in range(25):
        m = _mutate_zero_sum_preserving(ex1, seed)
        ok &= check_zero_sum(m)
        ok &= (
            audit.entropy_oracle_server(m, CAP).passed
            == gate_check(m).passed
        )
        mutations += 1
    ok &= mutations >= 50
    report(7, f"negative controls, {mutations} mutations", ok)


def test_criterion_8_rate_audit():
    ok = len(BUILT_SCHEMES) >= 20  # populated by criteria 3-6
    for s in BUILT_SCHEMES:
        passed, achieved, optimal = audit.rate_audit(s)
        ok &= passed and achieved == optimal
        ok &= achieved.r_x == 1 and achieved.r_y == 1
    report(8, f"rate audit over {len(BUILT_SCHEMES)} schemes", ok)


def test_criterion_9_determinism(tmp_path, capsys, keygen):
    ok = True
    # byte-identical scheme files from two identical builds
    cfg = ProblemConfig(2, 2, 2, make_field(BIG_Q))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cli.save_scheme(build_random(cfg, seed=11), p1)
    cli.save_scheme(build_random(cfg, seed=11), p2)
    ok &= Path(p1).read_bytes() == Path(p2).read_bytes()

    # identical key material and transcripts
    s = build_example1()
    ok &= np.array_equal(keygen(s, 99), keygen(s, 99))
    r1, r2 = protocol.run_rounds(s, 4, 10), protocol.run_rounds(s, 4, 10)
    for name in ("inputs", "user_messages", "relay_messages", "decoded_sum"):
        ok &= np.array_equal(getattr(r1, name), getattr(r2, name))

    # byte-identical transcript files across two CLI runs
    sp = str(tmp_path / "ex1.json")
    cli.main(["example", "--id", "1", "--out", sp])
    t1, t2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
    ok &= cli.main(["simulate", sp, "--rounds", "10", "--seed", "8", "--out", t1]) == 0
    ok &= cli.main(["simulate", sp, "--rounds", "10", "--seed", "8", "--out", t2]) == 0
    capsys.readouterr()
    ok &= Path(t1).read_bytes() == Path(t2).read_bytes()
    ok &= json.loads(Path(t1).read_text()) == json.loads(Path(t2).read_text())
    report(9, "determinism", ok)
