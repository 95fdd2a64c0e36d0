import pytest

from hsagg import audit, linalg, scheme
from hsagg.audit import (
    OracleResult,
    StateSpaceTooLarge,
    correctness_fuzz,
    entropy_oracle_relay,
    entropy_oracle_server,
    full_audit,
    mask_distribution,
    rate_audit,
    verify_relay_rank,
    verify_server_rank,
)
from hsagg.combi import cross_relay_groups
from hsagg.gf import make_field
from hsagg.linalg import identity, mat_neg, mat_sum, zeros
from hsagg.rates import ProblemConfig, SchemeDims
from hsagg.scheme import PrecodingScheme, build_random, sample_zero_sum_scheme

CAP = 1 << 26
Q61 = (1 << 61) - 1
GF2 = make_field(2)
GF3 = make_field(3)


def rebuild(s, blocks):
    return PrecodingScheme(s.cfg, s.dims, s.groups, blocks, s.provenance)


def zero_group_recompleted(s, g_idx, member):
    """Zero one member's block and re-complete the group's last member."""
    blocks = dict(s.blocks)
    grp = s.groups[g_idx]
    blocks[(g_idx, member)] = zeros(s.cfg.field, s.dims.L, s.dims.L_S)
    others = [blocks[(g_idx, m)] for m in grp[:-1]]
    blocks[(g_idx, grp[-1])] = mat_neg(mat_sum(others))
    return rebuild(s, blocks)


def zero_cross_family(s, user):
    """Zero every cross-relay group containing the user (zero-sum preserved)."""
    blocks = dict(s.blocks)
    _, cross = cross_relay_groups(s.cfg.U, s.cfg.V, s.cfg.G)
    z = zeros(s.cfg.field, s.dims.L, s.dims.L_S)
    for g_idx in cross:
        grp = s.groups[g_idx]
        if user in grp:
            for m in grp:
                blocks[(g_idx, m)] = z
    return rebuild(s, blocks)


def test_relay_rank_examples(ex1, ex2):
    for u in (1, 2):
        c = verify_relay_rank(ex1, u)
        assert c.passed and c.computed == 10 and c.expected == 10
    c = verify_relay_rank(ex2, 1)
    assert c.passed and c.computed == 16


def test_relay_rank_negative(ex1):
    # Group {(1,1),(2,1)} is index 1 in canonical order; zeroing user (1,1)'s
    # block there removes those columns from relay 1's view.
    assert ex1.groups[1] == ((1, 1), (2, 1))
    mutated = zero_group_recompleted(ex1, 1, (1, 1))
    assert scheme.check_zero_sum(mutated)
    assert not verify_relay_rank(mutated, 1).passed


def test_server_rank_examples(ex1, ex2):
    c = verify_server_rank(ex1)
    assert c.passed and c.computed == 5 and c.expected == 5
    c = verify_server_rank(ex2)
    assert c.passed and c.computed == 24


def test_all_cross_blocks_zeroed_rank_zero_and_entropy_zero():
    s = build_random(ProblemConfig(2, 1, 2, GF2), seed=0)
    dead = zero_cross_family(s, (1, 1))  # the only group is cross-relay
    c = verify_server_rank(dead)
    assert not c.passed and c.computed == 0
    o = entropy_oracle_server(dead, CAP)
    assert o.entropy_qary == 0.0 and not o.passed
    assert not verify_relay_rank(dead, 1).passed
    r = entropy_oracle_relay(dead, 1, CAP)
    assert r.entropy_qary == 0.0 and not r.passed


def test_mask_distribution_basics():
    states, tallies = mask_distribution(zeros(GF2, 1, 1), CAP)
    assert states == 2 and list(tallies) == [2]
    states, tallies = mask_distribution(identity(GF3, 2), CAP)
    assert states == 9 and sorted(tallies) == [1] * 9
    with pytest.raises(StateSpaceTooLarge) as exc:
        mask_distribution(zeros(GF2, 1, 40), 1 << 26)
    assert exc.value.required == 2**40 and exc.value.cap == 1 << 26


def test_state_space_guard_is_exact():
    # The cap decision is exact at the boundary and for huge exponents.
    cap = 100
    for q, n in ((2, 6), (2, 7), (3, 4), (3, 5), (97, 1), (101, 1), (Q61, 1)):
        try:
            mask_distribution(zeros(make_field(q), 1, n), cap)
            refused = False
        except StateSpaceTooLarge as exc:
            refused = True
            assert exc.required == q**n
        assert refused == (q**n > cap), (q, n)
    exc = StateSpaceTooLarge(Q61, 10**6, CAP)
    assert exc.required_text == f"{Q61}^{10**6}" and not exc.printable
    assert StateSpaceTooLarge(11, 24, CAP).required_text == str(11**24)


def test_entropy_oracle_minimal():
    for q in (2, 3):
        s = build_random(ProblemConfig(2, 1, 2, make_field(q)), seed=0)
        r = entropy_oracle_relay(s, 1, CAP)
        assert (r.states, r.entropy_qary, r.target) == (q, 1.0, 1)
        assert r.uniform and r.passed
        o = entropy_oracle_server(s, CAP)
        assert (o.states, o.entropy_qary, o.target) == (q, 1.0, 1)
        assert o.passed


def test_entropy_oracle_example1(ex1):
    r = entropy_oracle_relay(ex1, 1, CAP)
    assert r.states == 5**10 and r.uniform and r.entropy_qary == 10.0
    assert r.passed
    o = entropy_oracle_server(ex1, CAP)
    assert o.states == 5**8 and o.uniform and o.entropy_qary == 5.0
    assert o.passed


def test_entropy_oracle_example2_too_large(ex2):
    with pytest.raises(StateSpaceTooLarge) as exc:
        entropy_oracle_relay(ex2, 1, CAP)
    assert exc.value.required == 11**24
    with pytest.raises(StateSpaceTooLarge):
        entropy_oracle_server(ex2, CAP)


def test_rate_audit(ex1, ex2):
    ok, achieved, optimal = rate_audit(ex1)
    assert ok and achieved == optimal
    ok, achieved, optimal = rate_audit(ex2)
    assert ok
    # Padding the key blocklength breaks rate optimality.
    padded_dims = SchemeDims(ex1.dims.regime, ex1.dims.L, ex1.dims.L_S + 1)
    padded = PrecodingScheme(ex1.cfg, padded_dims, ex1.groups, {}, {})
    ok, achieved, optimal = rate_audit(padded)
    assert not ok and achieved.r_s > optimal.r_s


def test_full_audit_example1(ex1):
    report = full_audit(ex1, fuzz_rounds=100, oracle_cap=CAP, seed=0)
    assert report.passed
    assert report.zero_sum
    assert all(isinstance(o, OracleResult) for o in report.oracle_relay.values())
    assert isinstance(report.oracle_server, OracleResult)
    assert report.fuzz_failures == 0
    assert report.rates_match


def test_full_audit_example2_oracles_skipped(ex2):
    report = full_audit(ex2, fuzz_rounds=100, oracle_cap=CAP, seed=0)
    assert report.passed
    assert all(isinstance(o, StateSpaceTooLarge) for o in report.oracle_relay.values())
    assert isinstance(report.oracle_server, StateSpaceTooLarge)


def test_full_audit_oracles_not_run(ex1):
    report = full_audit(ex1, fuzz_rounds=10, run_oracles=False)
    assert report.passed
    assert all(o is None for o in report.oracle_relay.values())
    assert report.oracle_server is None


def test_full_audit_catches_sign_flip(ex1):
    blocks = dict(ex1.blocks)
    blocks[(0, (1, 1))] = mat_neg(blocks[(0, (1, 1))])
    corrupted = rebuild(ex1, blocks)
    report = full_audit(corrupted, fuzz_rounds=20, run_oracles=False)
    assert not report.zero_sum
    assert report.fuzz_failures > 0
    assert not report.passed


def test_server_oracle_never_exceeds_target_on_zero_sum_schemes():
    cfg = ProblemConfig(2, 2, 2, GF2)
    for seed in range(10):
        s = sample_zero_sum_scheme(cfg, seed)  # ungated, may be insecure
        o = entropy_oracle_server(s, CAP)
        assert o.entropy_qary <= (s.cfg.U - 1) * s.dims.L + 1e-12


def test_oracle_and_rank_verdicts_agree_on_ungated_schemes():
    for q, f in ((2, GF2), (3, GF3)):
        cfg = ProblemConfig(2, 2, 2, f)
        for seed in range(8):
            s = sample_zero_sum_scheme(cfg, seed)
            for u in (1, 2):
                assert entropy_oracle_relay(s, u, CAP).passed == verify_relay_rank(s, u).passed
            assert entropy_oracle_server(s, CAP).passed == verify_server_rank(s).passed


def test_correctness_fuzz_counts(ex1):
    assert correctness_fuzz(ex1, rounds=25, seed=3) == 0
