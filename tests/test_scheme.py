from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hsagg import cli, linalg, scheme
from hsagg.combi import all_users, enumerate_groups
from hsagg.gf import make_field
from hsagg.linalg import rank, vandermonde_block
from hsagg.rates import Infeasible, ProblemConfig, Regime, classify_regime, security_fractions
from hsagg.scheme import (
    ConstructionFailed,
    PrecodingScheme,
    assemble_relay_matrix,
    assemble_server_matrix,
    build_random,
    check_zero_sum,
    cross_relay_server_matrix,
    sample_zero_sum_scheme,
)

GF2 = make_field(2)
GF11 = make_field(11)
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


def test_complete_zero_sum_examples():
    # Every builder gives each group's last member the negated sum of the
    # other members' blocks, computed here in Python ints per group.
    draws = [sample_zero_sum_scheme(ProblemConfig(3, 2, 3, make_field(q)), 4) for q in (5, Q61)]
    for s in [*draws, scheme.build_example1(), scheme.build_example2()]:
        q = s.cfg.field.modulus
        for g_idx, grp in enumerate(s.groups):
            others = sum(s.block(g_idx, m).astype(object) for m in grp[:-1])
            assert s.block(g_idx, grp[-1]).tolist() == (-others % q).tolist()


def test_example1_matrices_bit_exact(ex1):
    assert (ex1.cfg.U, ex1.cfg.V, ex1.cfg.G, ex1.cfg.field.modulus) == (2, 2, 2, 5)
    assert (ex1.dims.regime, ex1.dims.L, ex1.dims.L_S) == (Regime.RELAY_DOMINANT, 5, 2)
    for g_idx, grp in enumerate(ex1.groups):
        base = np.array(GOLDEN1[grp])
        first, second = grp
        assert ex1.block(g_idx, first).tolist() == base.tolist()
        assert ex1.block(g_idx, second).tolist() == (-base % 5).tolist()
    # a non-member's block is zero
    assert ex1.block(0, (2, 2)).tolist() == [[0, 0]] * 5
    assert check_zero_sum(ex1)


def test_example1_ranks(ex1):
    for u in (1, 2):
        m = assemble_relay_matrix(ex1, u)
        assert (m.rows, m.cols) == (10, 10)
        assert rank(m) == 10
    server = assemble_server_matrix(ex1)
    assert (server.rows, server.cols) == (10, 12)
    assert rank(server) == 5
    cross = cross_relay_server_matrix(ex1)
    assert (cross.rows, cross.cols) == (5, 8)
    assert rank(cross) == 5


def test_example2_structure(ex2):
    assert (ex2.cfg.U, ex2.cfg.V, ex2.cfg.G, ex2.cfg.field.modulus) == (4, 2, 7, 11)
    assert (ex2.dims.regime, ex2.dims.L, ex2.dims.L_S) == (Regime.SERVER_DOMINANT, 8, 3)
    assert check_zero_sum(ex2)
    # First group: bases 2^0, 2^3, 2^6 = (1, 8, 9); user (1,1) starts at exponent 0.
    b = ex2.block(0, (1, 1))
    assert b[0].tolist() == [1, 1, 1]
    assert b[1].tolist() == [1, 8, 9]
    assert np.array_equal(b, vandermonde_block(GF11, (1, 8, 9), 0, 8))
    # Dependent member of the first group is (4,1): the negated sum of the rest.
    others = sum(ex2.block(0, m) for m in ex2.groups[0] if m != (4, 1))
    assert np.array_equal(ex2.block(0, (4, 1)), -others % 11)
    # (3,2) is not a member of the third group, so its block is zero.
    assert (3, 2) not in ex2.groups[2]
    assert not ex2.block(2, (3, 2)).any()
    # (4,2) is the dependent member for every group it belongs to.
    for g_idx, grp in enumerate(ex2.groups):
        if (4, 2) in grp:
            assert grp[-1] == (4, 2)


def test_example2_ranks(ex2):
    for u in range(1, 5):
        m = assemble_relay_matrix(ex2, u)
        assert (m.rows, m.cols) == (16, 24)
        assert rank(m) == 16
    server = assemble_server_matrix(ex2)
    assert (server.rows, server.cols) == (32, 24)
    assert rank(server) == 24
    cross = cross_relay_server_matrix(ex2)
    assert (cross.rows, cross.cols) == (24, 24)
    assert rank(cross) == 24


def test_build_random_basic():
    cfg = ProblemConfig(2, 2, 2, make_field(scheme.DEFAULT_RANDOM_MODULUS))
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
    assert s.block(0, (1, 1)).tolist() == [[1]]
    assert s.block(0, (2, 1)).tolist() == [[1]]


def test_build_random_infeasible_and_failure():
    with pytest.raises(Infeasible):
        build_random(ProblemConfig(2, 2, 1, GF2), seed=0)
    # Over GF(2) the (2,2,2) rank gate fails for many consecutive seeds.
    with pytest.raises(ConstructionFailed) as exc:
        build_random(ProblemConfig(2, 2, 2, GF2), seed=0, max_retries=3)
    assert exc.value.attempts == 4


def test_build_random_reproducible():
    cfg = ProblemConfig(3, 2, 3, make_field(scheme.DEFAULT_RANDOM_MODULUS))
    a = build_random(cfg, seed=7)
    b = build_random(cfg, seed=7)
    assert np.array_equal(a.encoding, b.encoding)
    assert a.provenance == b.provenance


def test_sample_zero_sum_always_zero_sum():
    for q in (2, 3, 5):
        cfg = ProblemConfig(2, 2, 3, make_field(q))
        for seed in range(5):
            s = sample_zero_sum_scheme(cfg, seed)
            assert check_zero_sum(s)


def test_relay_matrix_v1_is_horizontal_concat():
    cfg = ProblemConfig(3, 1, 2, make_field(scheme.DEFAULT_RANDOM_MODULUS))
    s = build_random(cfg, seed=0)
    m = assemble_relay_matrix(s, 2)
    assert m.rows == s.dims.L
    touching = [g for g, grp in enumerate(s.groups) if (2, 1) in grp]
    expected = np.hstack([s.block(g, (2, 1)) for g in touching])
    assert np.array_equal(m.array, expected)


def _grid_scheme(U, V, G):
    """A random draw over GF(2^31 - 1) with the config's groups and blocklengths.

    Configs whose encoding matrix would pass 2^20 entries keep their groups
    and L_S but get L = 1, and their member blocks are uniform nonzero
    without zero-sum completion, so that the whole grid stays small.
    """
    cfg = ProblemConfig(U, V, G, make_field(Q31))
    dims = classify_regime(cfg)
    n_groups = comb(U * V, G)
    if U * V * dims.L * n_groups * dims.L_S <= 1 << 20:
        return sample_zero_sum_scheme(cfg, seed=100 * U + 10 * V + G)
    groups = tuple(enumerate_groups(U, V, G))
    members = np.array([[user in grp for grp in groups] for user in all_users(U, V)])
    draws = np.random.default_rng(G).integers(1, Q31, size=(U * V, n_groups * dims.L_S))
    e = np.repeat(members, dims.L_S, axis=1) * draws
    return PrecodingScheme(cfg, replace(dims, L=1), groups, e, {})


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
        height = V * s.dims.L
        for u in range(1, U + 1):
            touching = [g for g, grp in enumerate(s.groups) if any(m[0] == u for m in grp)]
            expected = s.encoding[(u - 1) * height : u * height, _columns(touching, s.dims.L_S)]
            m = assemble_relay_matrix(s, u)
            assert np.array_equal(m.array, expected), (U, V, G, u)
            # C(UV,G) - C((U-1)V,G) groups touch each relay.
            assert m.cols == V / relay_frac * s.dims.L_S
        for u in (0, U + 1):
            with pytest.raises(ValueError, match="outside"):
                assemble_relay_matrix(s, u)


@pytest.mark.parametrize("U", [2, 3, 4])
def test_cross_relay_matrix_column_blocks_are_the_groups_spanning_relays(U):
    for V, G in _grid(U):
        s = _grid_scheme(U, V, G)
        L, q = s.dims.L, s.cfg.field.modulus
        _, server_frac = security_fractions(s.cfg)
        cross = [g for g, grp in enumerate(s.groups) if len({m[0] for m in grp}) >= 2]
        relay_sums = s.encoding.astype(object).reshape(U, V, L, -1).sum(axis=1) % q
        expected = relay_sums.reshape(U * L, -1)[: (U - 1) * L, _columns(cross, s.dims.L_S)]
        m = cross_relay_server_matrix(s)
        assert np.array_equal(m.array, expected), (U, V, G)
        # The other U*C(V,G) groups lie within one relay.
        assert len(s.groups) - len(cross) == U * comb(V, G)
        assert m.cols == (U - 1) / server_frac * s.dims.L_S


def test_server_matrix_row_blocks_sum_to_zero():
    cfg = ProblemConfig(3, 2, 2, make_field(5))
    for seed in range(4):
        s = sample_zero_sum_scheme(cfg, seed)  # ungated draws included
        full = assemble_server_matrix(s)
        L = s.dims.L
        row_blocks = [full.array[u * L : (u + 1) * L].astype(object) for u in range(s.cfg.U)]
        assert not (sum(row_blocks) % 5).any()
        # hence the server rank can never exceed (U-1)L
        assert rank(full) <= (s.cfg.U - 1) * L


def test_intra_relay_column_blocks_are_zero(ex1):
    full = assemble_server_matrix(ex1)
    L_S = ex1.dims.L_S
    for g_idx, grp in enumerate(ex1.groups):
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
    s = sample_zero_sum_scheme(ProblemConfig(U, V, G, make_field(Q31)), seed=0)
    L, L_S = s.dims.L, s.dims.L_S
    touching = [sum(any(m[0] == u for m in grp) for grp in s.groups) for u in range(1, U + 1)]
    spanning = sum(len({m[0] for m in grp}) > 1 for grp in s.groups)
    for u, t_u in enumerate(touching, start=1):
        assert assemble_relay_matrix(s, u).cols == t_u * L_S
    assert cross_relay_server_matrix(s).cols == spanning * L_S
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
    cfg = ProblemConfig(2, 2, 2, make_field(q))
    seeds = range(1000)
    failed = sum(not scheme.scheme_rank_checks_pass(sample_zero_sum_scheme(cfg, seed)) for seed in seeds)
    bound = scheme.attempt_failure_bound(cfg, classify_regime(cfg))
    assert bound < 1
    assert failed <= bound * len(seeds)


def test_groups_match_canonical_enumeration(ex1, ex2):
    assert list(ex1.groups) == enumerate_groups(2, 2, 2)
    assert list(ex2.groups) == enumerate_groups(4, 2, 7)


REPRESENTATION_BUILDS = {
    "example1": scheme.build_example1,
    "example2": scheme.build_example2,
    "p31": lambda: build_random(ProblemConfig(3, 2, 3, make_field(2**31 - 1)), seed=3),
    "p61": lambda: build_random(ProblemConfig(3, 2, 3, make_field(Q61)), seed=3),
}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("name", sorted(REPRESENTATION_BUILDS))
def test_encoding_matrix_is_the_scheme(name, loaded, tmp_path):
    s = REPRESENTATION_BUILDS[name]()
    if loaded:
        cli.save_scheme(s, str(tmp_path / "s.json"))
        s = cli.load_scheme(str(tmp_path / "s.json"))
    U, V, L, L_S, C = s.cfg.U, s.cfg.V, s.dims.L, s.dims.L_S, len(s.groups)
    e = s.encoding
    assert e.dtype == np.int64 and not e.flags.writeable
    assert e.shape == (U * V * L, C * L_S)
    blocks = e.reshape(U * V, L, C, L_S)  # user, row, group, column
    for g, grp in enumerate(s.groups):
        members = {(u - 1) * V + v - 1 for u, v in grp}
        assert all(not blocks[i, :, g].any() for i in range(U * V) if i not in members)
        assert not (blocks[:, :, g].astype(object).sum(axis=0) % s.cfg.field.modulus).any()
