import json
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hsagg import cli, linalg, scheme
from hsagg.combi import all_users
from hsagg.linalg import rank
from hsagg.rates import Infeasible, ProblemConfig, Regime, classify_regime, security_fractions
from hsagg.scheme import (
    ConstructionFailed,
    PrecodingScheme,
    build_random,
    check_zero_sum,
    gate,
)
from reference import block, block_slices, enumerate_groups, sample_zero_sum_scheme

GF2 = 2
Q31 = 2**31 - 1
Q61 = 2**61 - 1

# Golden 5x2 matrices of the (2,2,2) GF(5) construction, one per group in
# canonical order; the earlier member of each pair holds +H, the later -H.
GOLDEN1 = {
    ((1, 1), (1, 2)): [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]],
    ((1, 1), (2, 1)): [[1, 2], [2, 1], [0, 1], [1, 0], [1, 1]],
    ((1, 1), (2, 2)): [[1, 1], [0, 2], [2, 0], [1, 2], [2, 1]],
    ((1, 2), (2, 1)): [[2, 1], [1, 1], [1, 0], [0, 3], [2, 2]],
    ((1, 2), (2, 2)): [[0, 1], [1, 0], [2, 1], [1, 2], [1, 1]],
    ((2, 1), (2, 2)): [[1, 0], [1, 1], [2, 2], [2, 1], [0, 2]],
}


def relay_sums(s):
    """The UL x C(UV,G) * L_S matrix of the relay sums of all of E; the server gate's matrix is its first U-1 row blocks at the cross-relay columns."""
    return linalg.from_array(s.cfg.q, scheme._relay_sums(s, s.encoding))


def test_complete_zero_sum_examples():
    # Every builder gives each group's last member the negated sum of the
    # other members' blocks, computed here in Python ints per group.
    draws = [sample_zero_sum_scheme(ProblemConfig(3, 2, 3, q), 4) for q in (5, Q61)]
    for s in [*draws, scheme.build_example1(), scheme.build_example2()]:
        q = s.cfg.q
        for g_idx, grp in enumerate(enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)):
            others = sum(block(s, g_idx, m).astype(object) for m in grp[:-1])
            assert block(s, g_idx, grp[-1]).tolist() == (-others % q).tolist()


def test_example1_matrices_bit_exact(ex1):
    assert (ex1.cfg.U, ex1.cfg.V, ex1.cfg.G, ex1.cfg.q) == (2, 2, 2, 5)
    assert (ex1.dims.regime, ex1.dims.L, ex1.dims.L_S) == (Regime.RELAY_DOMINANT, 5, 2)
    for g_idx, grp in enumerate(enumerate_groups(ex1.cfg.U, ex1.cfg.V, ex1.cfg.G)):
        base = np.array(GOLDEN1[grp])
        first, second = grp
        assert block(ex1, g_idx, first).tolist() == base.tolist()
        assert block(ex1, g_idx, second).tolist() == (-base % 5).tolist()
    # a non-member's block is zero
    assert block(ex1, 0, (2, 2)).tolist() == [[0, 0]] * 5
    assert check_zero_sum(ex1)


def test_example1_ranks(ex1):
    for u in (1, 2):
        m = gate(ex1, u)[0]
        assert (m.rows, m.cols) == (10, 10)
        assert rank(m) == 10
    server = relay_sums(ex1)
    assert (server.rows, server.cols) == (10, 12)
    assert rank(server) == 5
    cross = gate(ex1, None)[0]
    assert (cross.rows, cross.cols) == (5, 8)
    assert rank(cross) == 5


def test_example2_structure(ex2):
    assert (ex2.cfg.U, ex2.cfg.V, ex2.cfg.G, ex2.cfg.q) == (4, 2, 7, 11)
    assert (ex2.dims.regime, ex2.dims.L, ex2.dims.L_S) == (Regime.SERVER_DOMINANT, 8, 3)
    assert check_zero_sum(ex2)
    # First group: bases 2^0, 2^3, 2^6 = (1, 8, 9); user (1,1) starts at exponent 0.
    b = block(ex2, 0, (1, 1))
    assert b[0].tolist() == [1, 1, 1]
    assert b[1].tolist() == [1, 8, 9]
    assert b.tolist() == [[pow(base, r, 11) for base in (1, 8, 9)] for r in range(8)]
    # Dependent member of the first group is (4,1): the negated sum of the rest.
    groups = enumerate_groups(ex2.cfg.U, ex2.cfg.V, ex2.cfg.G)
    others = sum(block(ex2, 0, m) for m in groups[0] if m != (4, 1))
    assert np.array_equal(block(ex2, 0, (4, 1)), -others % 11)
    # (3,2) is not a member of the third group, so its block is zero.
    assert (3, 2) not in groups[2]
    assert not block(ex2, 2, (3, 2)).any()
    # (4,2) is the dependent member for every group it belongs to.
    for g_idx, grp in enumerate(groups):
        if (4, 2) in grp:
            assert grp[-1] == (4, 2)


def test_example2_ranks(ex2):
    for u in range(1, 5):
        m = gate(ex2, u)[0]
        assert (m.rows, m.cols) == (16, 24)
        assert rank(m) == 16
    server = relay_sums(ex2)
    assert (server.rows, server.cols) == (32, 24)
    assert rank(server) == 24
    cross = gate(ex2, None)[0]
    assert (cross.rows, cross.cols) == (24, 24)
    assert rank(cross) == 24


def test_build_random_basic():
    cfg = ProblemConfig(2, 2, 2, scheme.DEFAULT_RANDOM_MODULUS)
    s = build_random(cfg, seed=1)
    assert s.provenance["retries_used"] <= 2  # within 3 attempts
    assert s.provenance["construction"] == "random"
    assert s.provenance["prng_id"] == linalg.PRNG_ID
    assert check_zero_sum(s)
    assert scheme.scheme_rank_checks_pass(s)


def test_build_random_gf2_minimal():
    # (2,1,2) over GF(2): the only passing block pair is (1, 1) = (h, -h), h=1.
    cfg = ProblemConfig(2, 1, 2, GF2)
    s = build_random(cfg, seed=0)
    assert block(s, 0, (1, 1)).tolist() == [[1]]
    assert block(s, 0, (2, 1)).tolist() == [[1]]


def test_build_random_infeasible_and_failure():
    with pytest.raises(Infeasible):
        build_random(ProblemConfig(2, 2, 1, GF2), seed=0)
    # Over GF(2) the (2,2,2) rank gate fails for many consecutive seeds.
    with pytest.raises(ConstructionFailed) as exc:
        build_random(ProblemConfig(2, 2, 2, GF2), seed=0, max_retries=3)
    assert exc.value.attempts == 4


def test_build_random_reproducible():
    cfg = ProblemConfig(3, 2, 3, scheme.DEFAULT_RANDOM_MODULUS)
    a = build_random(cfg, seed=7)
    b = build_random(cfg, seed=7)
    assert np.array_equal(a.encoding, b.encoding)
    assert a.provenance == b.provenance


# Seeds -1 and 2^64 - 3 have attempt seeds that wrap past 2^64 to 0, 1, ...
# At (3,2,3)@2 the first of seeds 0, 1, ... that passes is 135.
EQUIVALENCE_SEEDS = [0, 1, 4, 9, 120, 135, -1, 2**64 - 3]


def _sequential_build(cfg, seed, max_retries):
    """build_random as one draw per attempt, gated in order: (encoding bytes, provenance) or the attempt count."""
    for attempt in range(max_retries + 1):
        s = sample_zero_sum_scheme(cfg, seed + attempt)
        if scheme.scheme_rank_checks_pass(s):
            provenance = {**s.provenance, "seed": seed, "retries_used": attempt}
            return s.encoding.tobytes(), list(provenance.items())
    return max_retries + 1


def _batched_build(cfg, seed, max_retries):
    try:
        s = build_random(cfg, seed, max_retries)
    except ConstructionFailed as exc:
        return exc.attempts
    return s.encoding.tobytes(), list(s.provenance.items())


@pytest.mark.parametrize("U, V, G, q", [(2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 5), (3, 2, 3, 2), (2, 3, 5, 2)])
def test_build_random_matches_one_draw_per_attempt(U, V, G, q):
    cfg = ProblemConfig(U, V, G, q)
    outcomes = set()
    for seed in EQUIVALENCE_SEEDS:
        for max_retries in (0, 1, 2, 3, 7, 40):
            expected = _sequential_build(cfg, seed, max_retries)
            assert _batched_build(cfg, seed, max_retries) == expected, (seed, max_retries)
            outcomes.add(isinstance(expected, int))
    assert outcomes == {False, True}  # both built schemes and used-up retries were compared


@pytest.mark.parametrize("seed", [0, 5, -1, 2**64 - 3, 2**64, 2**64 + 5])
def test_draw_seeds_reduce_mod_2_64_as_seed_rows_does(seed):
    cfg = ProblemConfig(2, 3, 5, 7)
    s = sample_zero_sum_scheme(cfg, seed)
    groups = enumerate_groups(cfg.U, cfg.V, cfg.G)
    index = [(g, m) for g in range(len(groups)) for m in range(cfg.G - 1)]
    drawn = linalg.random_mats(s.dims.L, s.dims.L_S, cfg.q, linalg.seed_rows(seed, index))
    for (g, m), drawn_block in zip(index, drawn):
        assert np.array_equal(block(s, g, groups[g][m]), drawn_block)


def _count_batches(monkeypatch, blocks_per_attempt):
    """Record the attempts that each random_mats call draws."""
    batches, draw = [], linalg.random_mats

    def counting(rows, cols, q, seeds):
        batches.append(len(seeds) // blocks_per_attempt)
        return draw(rows, cols, q, seeds)

    monkeypatch.setattr(linalg, "random_mats", counting)
    return batches


@pytest.mark.parametrize("max_retries", [0, 1, 2, 3, 7, 40, 500])
def test_build_random_draws_attempts_in_doubling_batches(max_retries, monkeypatch):
    cfg = ProblemConfig(2, 3, 5, GF2)  # 24 blocks and 432 entries an attempt
    batches = _count_batches(monkeypatch, 24)
    for seed in range(8):
        batches.clear()
        try:
            attempts = build_random(cfg, seed, max_retries).provenance["retries_used"] + 1
            most = min(max_retries + 1, 2 * attempts)
        except ConstructionFailed:
            attempts = most = max_retries + 1
        assert batches[0] == 1
        assert batches[:-1] == [2**i for i in range(len(batches) - 1)]
        assert attempts <= sum(batches) <= most


@pytest.mark.parametrize(
    "U, V, G, max_retries, widest",
    # 1280 entries an attempt, so 25 attempts a batch; 104,580, past the
    # budget, so each attempt is drawn alone.
    [(3, 2, 3, 200, 25), (3, 3, 6, 3, 1)],
)
def test_build_random_batches_stay_within_the_entry_budget(U, V, G, max_retries, widest, monkeypatch):
    monkeypatch.setattr(scheme, "scheme_rank_checks_pass", lambda s: False)
    cfg = ProblemConfig(U, V, G, GF2)
    dims, blocks = classify_regime(cfg), comb(U * V, G) * (G - 1)
    batches = _count_batches(monkeypatch, blocks)
    with pytest.raises(ConstructionFailed):
        build_random(cfg, 0, max_retries)
    most = max(1, scheme._BATCH_ENTRIES // (blocks * dims.L * dims.L_S))
    expected, size = [], 1
    while sum(expected) < max_retries + 1:
        expected.append(min(size, most, max_retries + 1 - sum(expected)))
        size *= 2
    assert batches == expected
    assert max(batches) == widest


def test_build_random_memory_does_not_grow_with_max_retries(monkeypatch):
    # Every attempt fails, so all 401 attempts of (3,2,3)@2 are drawn: 1280
    # entries each, 4 MB of int64 in all. A batch holds at most
    # _BATCH_ENTRIES of them, so the build peaks at what drawing one full
    # batch takes, plus a few encodings.
    cfg = ProblemConfig(3, 2, 3, GF2)
    monkeypatch.setattr(scheme, "scheme_rank_checks_pass", lambda s: False)
    s = sample_zero_sum_scheme(cfg, 0)  # warm up: first-call allocations
    most = scheme._BATCH_ENTRIES // 1280
    index = np.indices((len(enumerate_groups(cfg.U, cfg.V, cfg.G)), cfg.G - 1)).reshape(2, -1).T
    tracemalloc.start()
    try:
        seeds = linalg.seed_rows(np.arange(most, dtype=np.uint64)[:, None], index)
        linalg.random_mats(s.dims.L, s.dims.L_S, cfg.q, seeds)
        del seeds
        batch = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ConstructionFailed):
            build_random(cfg, 0, max_retries=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch + 4 * s.encoding.nbytes


def test_sample_zero_sum_always_zero_sum():
    for q in (2, 3, 5):
        cfg = ProblemConfig(2, 2, 3, q)
        for seed in range(5):
            s = sample_zero_sum_scheme(cfg, seed)
            assert check_zero_sum(s)


def test_relay_matrix_v1_is_horizontal_concat():
    cfg = ProblemConfig(3, 1, 2, scheme.DEFAULT_RANDOM_MODULUS)
    s = build_random(cfg, seed=0)
    m = gate(s, 2)[0]
    assert m.rows == s.dims.L
    touching = [g for g, grp in enumerate(enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)) if (2, 1) in grp]
    expected = np.hstack([block(s, g, (2, 1)) for g in touching])
    assert np.array_equal(m.array, expected)


def _grid_scheme(U, V, G):
    """A random draw over GF(2^31 - 1) with the config's groups and blocklengths.

    Configs whose encoding matrix would pass 2^20 entries keep their groups
    and L_S but get L = 1, and their member blocks are uniform nonzero
    without zero-sum completion, so that the whole grid stays small.
    """
    cfg = ProblemConfig(U, V, G, Q31)
    dims = classify_regime(cfg)
    n_groups = comb(U * V, G)
    if U * V * dims.L * n_groups * dims.L_S <= 1 << 20:
        return sample_zero_sum_scheme(cfg, seed=100 * U + 10 * V + G)
    groups = tuple(enumerate_groups(U, V, G))
    members = np.array([[user in grp for grp in groups] for user in all_users(U, V)])
    draws = np.random.default_rng(G).integers(1, Q31, size=(U * V, n_groups * dims.L_S))
    e = np.repeat(members, dims.L_S, axis=1) * draws
    return PrecodingScheme(cfg, replace(dims, L=1), e, {})


def _columns(group_indices, L_S):
    return [g * L_S + c for g in group_indices for c in range(L_S)]


def _grid(U):
    """The feasible (V, G) for U relays: V up to 4, and G = 1 has no scheme."""
    return [(V, G) for V in range(1, 5) for G in range(2, U * V + 1)]


@pytest.mark.parametrize("U", [2, 3, 4])
def test_relay_matrix_column_blocks_are_the_groups_touching_the_relay(U):
    for V, G in _grid(U):
        s = _grid_scheme(U, V, G)
        relay_frac, _ = security_fractions(s.cfg)
        height, groups = V * s.dims.L, enumerate_groups(U, V, G)
        for u in range(1, U + 1):
            touching = [g for g, grp in enumerate(groups) if any(m[0] == u for m in grp)]
            expected = s.encoding[(u - 1) * height : u * height, _columns(touching, s.dims.L_S)]
            m = gate(s, u)[0]
            assert np.array_equal(m.array, expected), (U, V, G, u)
            # C(UV,G) - C((U-1)V,G) groups touch each relay.
            assert m.cols == V / relay_frac * s.dims.L_S
        for u in (0, U + 1):
            with pytest.raises(ValueError, match="outside"):
                gate(s, u)


def test_relay_column_index_is_made_once_per_config_and_read_only():
    cfg = ProblemConfig(3, 2, 3, Q31)
    first, second = sample_zero_sum_scheme(cfg, seed=0), sample_zero_sum_scheme(cfg, seed=1)
    height = cfg.V * first.dims.L
    # Relay 2's rows, and the relay sums of the first U - 1 relays for the server (u None).
    rows = {2: lambda s: s.encoding[height : 2 * height], None: lambda s: scheme._relay_sums(s, s.encoding[: 2 * height])}
    for u, gate_rows in rows.items():
        key = (3, 2, 3, first.dims.L_S, u)
        index = scheme.gate_columns(*key)
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0
        assert scheme.gate_columns(*key) is index
        # Every attempt of a config takes the gate's columns from the one index.
        hits = scheme.gate_columns.cache_info().hits
        for s in (first, second):
            assert np.array_equal(gate(s, u)[0].array, gate_rows(s)[:, index])
        assert scheme.gate_columns.cache_info().hits == hits + 2


@pytest.mark.parametrize(
    "configs",
    [
        *([(U, V, G) for V, G in _grid(U)] for U in (2, 3, 4)),
        [(U, 1, G) for U in range(2, 9) for G in range(2, U + 1)],  # V = 1: every group spans relays
        [(U, V, U * V) for U in range(1, 7) for V in range(1, 6)],  # G = UV: a single group
    ],
    ids=["2", "3", "4", "V=1", "G=UV"],
)
def test_member_index_rows_are_the_canonical_groups_as_user_indices(configs):
    for U, V, G in configs:
        members = scheme._members(U, V, G)
        expected = [[(u - 1) * V + v - 1 for u, v in grp] for grp in enumerate_groups(U, V, G)]
        assert members.dtype == np.int64 and members.tolist() == expected, (U, V, G)
        assert not members.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            members[0, 0] = 0


def test_member_index_is_made_once_per_config_for_a_retrying_build(monkeypatch):
    # The gate fails attempts 0-3, so attempt 4 is returned: five schemes
    # are assembled, and every one takes its members from the one index.
    cfg = ProblemConfig(2, 3, 4, Q31)
    monkeypatch.setattr(scheme, "scheme_rank_checks_pass", lambda s: s.provenance["retries_used"] == 4)
    before = scheme._members.cache_info()
    index = scheme._members(2, 3, 4)
    s = build_random(cfg, seed=0)
    after = scheme._members.cache_info()
    assert s.provenance["retries_used"] == 4
    assert after.misses - before.misses <= 1  # made here at most once, by the first call
    assert after.hits - before.hits >= 5
    assert scheme._members(2, 3, 4) is index


def placed_block_by_block(cfg, dims, blocks):
    """The reference placement: blocks[g, j] written at block_slices of group g's j-th member, one block at a time."""
    groups = enumerate_groups(cfg.U, cfg.V, cfg.G)
    e = np.zeros((cfg.U * cfg.V * dims.L, len(groups) * dims.L_S), dtype=np.int64)
    for g_idx, grp in enumerate(groups):
        for member, member_block in zip(grp, blocks[g_idx]):
            e[block_slices(cfg, dims, g_idx, member)] = member_block
    return e


@pytest.mark.parametrize("U, V, G, q", [(2, 2, 2, 5), (3, 2, 3, Q31), (2, 3, 4, Q61), (4, 2, 7, 11), (3, 3, 6, Q31)])
def test_build_and_load_place_blocks_as_block_slices_does(U, V, G, q, tmp_path):
    cfg = ProblemConfig(U, V, G, q)
    dims = classify_regime(cfg)
    groups = enumerate_groups(U, V, G)
    rng = np.random.default_rng(U * 100 + V * 10 + G)
    drawn = rng.integers(0, q, size=(len(groups), G - 1, dims.L, dims.L_S))
    # A build gives the last member of each group the negated sum of the others.
    last = (-drawn.astype(object).sum(axis=1) % q).astype(np.int64)
    built = scheme._zero_sum_scheme(cfg, dims, drawn, {"construction": "test"})
    expected = placed_block_by_block(cfg, dims, np.concatenate([drawn, last[:, None]], axis=1))
    assert np.array_equal(built.encoding, expected)
    # A loaded file's blocks are placed as they are, zero-sum or not.
    blocks = rng.integers(0, q, size=(len(groups), G, dims.L, dims.L_S))
    e = placed_block_by_block(cfg, dims, blocks)
    cli.save_scheme(PrecodingScheme(cfg, dims, e, {"construction": "test"}), str(tmp_path / "s.json"))
    assert np.array_equal(cli.load_scheme(str(tmp_path / "s.json")).encoding, e)
    # A saved file reads each block back from where block_slices places it, in canonical order.
    saved = json.loads((tmp_path / "s.json").read_text())
    assert saved["group_order"] == [[list(member) for member in grp] for grp in groups]
    expected = [
        (g_idx, list(member), e[block_slices(cfg, dims, g_idx, member)].reshape(-1).tolist())
        for g_idx, grp in enumerate(groups)
        for member in grp
    ]
    assert [(b["group_index"], b["user"], [int(x) for x in b["matrix"]["data"]]) for b in saved["blocks"]] == expected


@pytest.mark.parametrize("U", [2, 3, 4])
def test_cross_relay_matrix_column_blocks_are_the_groups_spanning_relays(U):
    for V, G in _grid(U):
        s = _grid_scheme(U, V, G)
        L, q = s.dims.L, s.cfg.q
        _, server_frac = security_fractions(s.cfg)
        groups = enumerate_groups(U, V, G)
        cross = [g for g, grp in enumerate(groups) if len({m[0] for m in grp}) >= 2]
        relay_sums = s.encoding.astype(object).reshape(U, V, L, -1).sum(axis=1) % q
        expected = relay_sums.reshape(U * L, -1)[: (U - 1) * L, _columns(cross, s.dims.L_S)]
        m = gate(s, None)[0]
        assert np.array_equal(m.array, expected), (U, V, G)
        # The other U*C(V,G) groups lie within one relay.
        assert len(groups) - len(cross) == U * comb(V, G)
        assert m.cols == (U - 1) / server_frac * s.dims.L_S


def test_server_matrix_row_blocks_sum_to_zero():
    cfg = ProblemConfig(3, 2, 2, 5)
    for seed in range(4):
        s = sample_zero_sum_scheme(cfg, seed)  # ungated draws included
        full = relay_sums(s)
        L = s.dims.L
        row_blocks = [full.array[u * L : (u + 1) * L].astype(object) for u in range(s.cfg.U)]
        assert not (sum(row_blocks) % 5).any()
        # hence the server rank can never exceed (U-1)L
        assert rank(full) <= (s.cfg.U - 1) * L


def test_server_matrix_keeps_the_rank_of_all_relay_sums():
    # On a zero-sum scheme the last relay's row block and the intra-relay
    # columns add no rank, so the server gate may rank the cross-relay slice.
    # Ungated draws over tiny fields are often server-deficient; built schemes
    # over the two large fields have full rank.
    deficient = dict.fromkeys((2, 3, 5), 0)
    for q in deficient:
        for U, V, G in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 2, 3), (3, 1, 2)):
            for seed in range(8):
                s = sample_zero_sum_scheme(ProblemConfig(U, V, G, q), seed)
                r = rank(gate(s, None)[0])
                assert r == rank(relay_sums(s)), (q, U, V, G, seed)
                deficient[q] += r < (U - 1) * s.dims.L
    assert all(deficient.values()), deficient
    for q in (Q31, Q61):
        for U, V, G in ((3, 2, 3), (4, 2, 4)):
            s = build_random(ProblemConfig(U, V, G, q), seed=0)
            assert rank(gate(s, None)[0]) == rank(relay_sums(s)) == (U - 1) * s.dims.L


def test_intra_relay_column_blocks_are_zero(ex1):
    full = relay_sums(ex1)
    L_S = ex1.dims.L_S
    for g_idx, grp in enumerate(enumerate_groups(ex1.cfg.U, ex1.cfg.V, ex1.cfg.G)):
        if len({m[0] for m in grp}) == 1:
            sub = full.array[:, g_idx * L_S : (g_idx + 1) * L_S]
            assert not sub.any()


@pytest.mark.parametrize(
    "U, V, G",
    # The four benchmark cycle configs ((4,2,4) is server-dominant), small
    # relay-dominant ones, and more server-dominant ones with V = 1.
    [(3, 2, 3), (3, 3, 3), (4, 2, 4), (3, 3, 6), (2, 2, 2), (2, 3, 3), (3, 2, 5), (2, 2, 3), (3, 1, 2), (5, 1, 3)],
)
def test_converse_as_a_dimension_count(U, V, G):
    # Full row rank needs at least as many columns as rows: T_u * L_S >= V * L
    # for each relay u and X * L_S >= (U - 1) * L for the cross-relay matrix.
    # These are the paper's two key-rate bounds; T_u and X are counted from
    # the scheme's groups, not from the binomials in rates.
    s = sample_zero_sum_scheme(ProblemConfig(U, V, G, Q31), seed=0)
    L, L_S, groups = s.dims.L, s.dims.L_S, enumerate_groups(U, V, G)
    touching = [sum(any(m[0] == u for m in grp) for grp in groups) for u in range(1, U + 1)]
    spanning = sum(len({m[0] for m in grp}) > 1 for grp in groups)
    for u, t_u in enumerate(touching, start=1):
        assert gate(s, u)[0].cols == t_u * L_S
    assert gate(s, None)[0].cols == spanning * L_S
    # classify_regime's L_S / L is the least ratio that meets both bounds,
    # with equality in the dominant one.
    least = max([Fraction(V, t_u) for t_u in touching] + [Fraction(U - 1, spanning)])
    assert Fraction(L_S, L) == least
    if s.dims.regime is Regime.RELAY_DOMINANT:
        assert all(t_u * L_S == V * L for t_u in touching)
    else:
        assert spanning * L_S == (U - 1) * L


@pytest.mark.parametrize("q", [31, 101, 251])
def test_failed_attempts_stay_under_the_attempt_failure_bound(q):
    # Failed rank gates of sample_zero_sum_scheme over seeds 0-999 at (2,2,2):
    # 63, 23 and 9 at q = 31, 101 and 251, against bounds of 806, 248 and 100.
    cfg = ProblemConfig(2, 2, 2, q)
    seeds = range(1000)
    failed = sum(not scheme.scheme_rank_checks_pass(sample_zero_sum_scheme(cfg, seed)) for seed in seeds)
    bound = scheme.attempt_failure_bound(cfg, classify_regime(cfg))
    assert bound < 1
    assert failed <= bound * len(seeds)


def test_groups_match_canonical_enumeration(ex1, ex2, tmp_path):
    for s, groups in ((ex1, enumerate_groups(2, 2, 2)), (ex2, enumerate_groups(4, 2, 7))):
        cli.save_scheme(s, str(tmp_path / "s.json"))
        saved = json.loads((tmp_path / "s.json").read_text())
        assert saved["group_order"] == [[list(member) for member in grp] for grp in groups]


def test_a_scheme_is_its_encoding_matrix_and_nothing_else():
    assert [f.name for f in fields(PrecodingScheme)] == ["cfg", "dims", "encoding", "provenance"]


REPRESENTATION_BUILDS = {
    "example1": scheme.build_example1,
    "example2": scheme.build_example2,
    "p31": lambda: build_random(ProblemConfig(3, 2, 3, 2**31 - 1), seed=3),
    "p61": lambda: build_random(ProblemConfig(3, 2, 3, Q61), seed=3),
}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("name", sorted(REPRESENTATION_BUILDS))
def test_encoding_matrix_is_the_scheme(name, loaded, tmp_path):
    s = REPRESENTATION_BUILDS[name]()
    if loaded:
        cli.save_scheme(s, str(tmp_path / "s.json"))
        s = cli.load_scheme(str(tmp_path / "s.json"))
    groups = enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)
    U, V, L, L_S, C = s.cfg.U, s.cfg.V, s.dims.L, s.dims.L_S, len(groups)
    e = s.encoding
    assert e.dtype == np.int64 and not e.flags.writeable
    assert e.shape == (U * V * L, C * L_S)
    blocks = e.reshape(U * V, L, C, L_S)  # user, row, group, column
    for g, grp in enumerate(groups):
        members = {(u - 1) * V + v - 1 for u, v in grp}
        assert all(not blocks[i, :, g].any() for i in range(U * V) if i not in members)
        assert not (blocks[:, :, g].astype(object).sum(axis=0) % s.cfg.q).any()
