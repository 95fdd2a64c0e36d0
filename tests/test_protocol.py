import itertools

import numpy as np
import pytest

from hsagg import linalg
from hsagg.combi import all_users
from hsagg.gf import make_field
from hsagg.linalg import DimensionMismatch
from hsagg.protocol import run, run_rounds
from hsagg.rates import ProblemConfig
from hsagg.scheme import build_random
from reference import block, enumerate_groups


def minimal_scheme(q):
    return build_random(ProblemConfig(2, 1, 2, make_field(q)), seed=0)


def inputs(s, seed, rounds=1):
    """Uniform random inputs of every user, one column per round."""
    return linalg.random_mats(s.encoding.shape[0], rounds, s.cfg.field, linalg.seed_rows(seed, [[]]))[0]


def zero_keys(s, rounds=1):
    return np.zeros((s.encoding.shape[1], rounds), dtype=np.int64)


def user_rows(s, user):
    """The rows of the user's input and message in the stacked columns."""
    i = (user[0] - 1) * s.cfg.V + user[1] - 1
    return slice(i * s.dims.L, (i + 1) * s.dims.L)


def test_keygen_determinism_and_shape(ex1, keygen):
    k1 = keygen(ex1, 42)
    assert np.array_equal(k1, keygen(ex1, 42))
    assert k1.shape == (6 * 2, 1) and k1.dtype == np.int64
    assert not np.array_equal(keygen(ex1, 43), k1)
    # Group g's key comes from the substream (seed, g).
    for g in range(6):
        substream = linalg.random_mats(2, 1, ex1.cfg.field, linalg.seed_rows(42, [[g]]))[0]
        assert np.array_equal(k1[2 * g : 2 * g + 2], substream)


def test_user_key_counts(ex1, ex2, keygen):
    # A user's message depends on the keys of exactly the groups it belongs to.
    for s, user, count in ((ex1, (1, 1), 3), (ex2, (1, 1), 7), (minimal_scheme(5), (2, 1), 1)):
        w, k = inputs(s, 1), keygen(s, 2)
        base = run(s, w, k).user_messages[user_rows(s, user)]
        used, groups = [], enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)
        for g in range(len(groups)):
            bumped = k.copy()
            bumped[g * s.dims.L_S] = (bumped[g * s.dims.L_S] + 1) % s.cfg.field.modulus
            if not np.array_equal(run(s, w, bumped).user_messages[user_rows(s, user)], base):
                used.append(g)
        assert used == [g for g, grp in enumerate(groups) if user in grp]
        assert len(used) == count


def test_user_encode_zero_keys_is_identity(ex1):
    w = inputs(ex1, 3)
    assert np.array_equal(run(ex1, w, zero_keys(ex1)).user_messages, w)


def test_user_encode_zero_input_is_pure_mask(ex1, keygen):
    # With zero inputs a user's message is sum over its groups of block(g, user) * S_g.
    k = keygen(ex1, 5)
    x = run(ex1, np.zeros((20, 1), dtype=np.int64), k).user_messages
    for user in [(1, 1), (2, 2)]:
        expected = sum(
            block(ex1, g, user).astype(object) @ k[2 * g : 2 * g + 2].astype(object)
            for g in range(len(enumerate_groups(ex1.cfg.U, ex1.cfg.V, ex1.cfg.G)))
        )
        assert x[user_rows(ex1, user)].tolist() == (expected % 5).tolist()


def test_user_encode_rejects_bad_shape(ex1, keygen):
    k = keygen(ex1, 0)
    with pytest.raises(DimensionMismatch):
        run(ex1, np.zeros((19, 1), dtype=np.int64), k)  # one input row short
    with pytest.raises(DimensionMismatch):
        run(ex1, np.zeros((20, 2), dtype=np.int64), k)  # two rounds of inputs, one of keys
    with pytest.raises(DimensionMismatch):
        run(ex1, np.zeros(20, dtype=np.int64), k[:, 0])  # not columns


def test_encode_is_affine_in_the_input(ex1, keygen):
    k = keygen(ex1, 9)
    w1, w2 = inputs(ex1, 21), inputs(ex1, 22)
    lhs = run(ex1, (w1 + w2) % 5, k).user_messages
    mask = run(ex1, np.zeros_like(w1), k).user_messages
    rhs = run(ex1, w1, k).user_messages + run(ex1, w2, k).user_messages - mask
    assert np.array_equal(lhs, rhs % 5)


def test_relay_and_server_sums(ex1):
    # V = 1: each relay forwards its one user's message; the server adds them.
    s = minimal_scheme(5)
    rounds = run(s, np.array([[3], [4]]), np.array([[2]]))
    assert np.array_equal(rounds.relay_messages, rounds.user_messages)
    assert rounds.decoded_sum.tolist() == [[2]]
    # V = 2: a relay message is the entrywise sum of its users' messages.
    rounds = run_rounds(ex1, seed=8, rounds=3)
    x = rounds.user_messages.reshape(2, 2, 5, 3)
    y = rounds.relay_messages.reshape(2, 5, 3)
    assert np.array_equal(y, (x[:, 0] + x[:, 1]) % 5)
    assert np.array_equal(rounds.decoded_sum, (y[0] + y[1]) % 5)


def test_exhaustive_correctness_minimal():
    # (2,1,2): every input pair x every key value decodes to the exact sum,
    # all q^3 cases as the columns of one run.
    for q in (2, 3):
        s = minimal_scheme(q)
        cases = np.array(list(itertools.product(range(q), repeat=3)), dtype=np.int64).T
        rounds = run(s, cases[:2], cases[2:])
        assert rounds.decoded_sum.tolist() == [((cases[0] + cases[1]) % q).tolist()]
        assert rounds.correct.all()


def test_decode_for_fixed_input_over_both_keys():
    s = minimal_scheme(2)
    rounds = run(s, np.array([[1, 1], [0, 0]]), np.array([[0, 1]]))
    assert rounds.decoded_sum.tolist() == [[1, 1]]


def test_run_round_deterministic(ex1, keygen):
    r1, r2 = run_rounds(ex1, seed=5, rounds=4), run_rounds(ex1, seed=5, rounds=4)
    assert np.array_equal(r1.inputs, r2.inputs)
    assert np.array_equal(r1.user_messages, r2.user_messages)
    assert not np.array_equal(run_rounds(ex1, seed=6, rounds=4).user_messages, r1.user_messages)
    # Round i depends on (seed, i) alone: its inputs come from the substreams
    # ((seed, 2i), u, v) and its keys from keygen(s, (seed, 2i + 1)).
    assert np.array_equal(run_rounds(ex1, seed=5, rounds=2).user_messages, r1.user_messages[:, :2])
    for i in range(4):
        w = linalg.random_mats(5, 1, ex1.cfg.field, linalg.seed_rows((5, 2 * i), all_users(2, 2))).reshape(-1, 1)
        assert np.array_equal(r1.inputs[:, i : i + 1], w)
        expected = run(ex1, w, keygen(ex1, (5, 2 * i + 1))).user_messages
        assert np.array_equal(r1.user_messages[:, i : i + 1], expected)


def test_zero_rounds_are_empty_columns(ex1):
    rounds = run_rounds(ex1, seed=5, rounds=0)
    assert rounds.inputs.shape == rounds.user_messages.shape == (20, 0)
    assert rounds.relay_messages.shape == (10, 0) and rounds.decoded_sum.shape == (5, 0)
    assert rounds.correct.shape == (0,)


def test_hundred_rounds_examples(ex1, ex2):
    for s in (ex1, ex2):
        q, L, n_users = s.cfg.field.modulus, s.dims.L, s.cfg.U * s.cfg.V
        rounds = run_rounds(s, seed=1, rounds=100)
        assert rounds.inputs.shape == rounds.user_messages.shape == (n_users * L, 100)
        assert rounds.relay_messages.shape == (s.cfg.U * L, 100)
        input_sum = rounds.inputs.astype(object).reshape(n_users, L, 100).sum(axis=0) % q
        assert rounds.decoded_sum.tolist() == input_sum.tolist()
        assert rounds.correct.all()


def test_intra_relay_key_cancels_in_relay_message(ex1, keygen):
    # Group 0 = {(1,1),(1,2)} lives entirely inside relay 1; changing its key
    # must leave Y_1 unchanged.
    k = keygen(ex1, 3)
    bumped = k.copy()
    bumped[0:2] = (bumped[0:2] + 1) % 5
    w = inputs(ex1, 77)
    r1, r2 = run(ex1, w, k), run(ex1, w, bumped)
    assert np.array_equal(r1.relay_messages[:5], r2.relay_messages[:5])
    assert not np.array_equal(r1.user_messages[:5], r2.user_messages[:5])
