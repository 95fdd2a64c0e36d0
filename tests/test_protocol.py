import itertools

import pytest

from hsagg import linalg, protocol
from hsagg.gf import make_field
from hsagg.linalg import DimensionMismatch, from_rows, mat_add, mat_sum, mat_vec, zeros
from hsagg.protocol import (
    KeyMaterial,
    keygen,
    run_round,
    run_round_with_inputs,
    user_encode,
    user_key,
)
from hsagg.rates import ProblemConfig
from hsagg.scheme import build_random


def minimal_scheme(q):
    return build_random(ProblemConfig(2, 1, 2, make_field(q)), seed=0)


def test_keygen_determinism_and_shape(ex1):
    k1 = keygen(ex1, 42)
    k2 = keygen(ex1, 42)
    assert k1.keys == k2.keys
    assert len(k1.keys) == 6
    assert all(k.rows == 2 and k.cols == 1 for k in k1.keys)
    assert k1.prng_id == linalg.PRNG_ID
    assert keygen(ex1, 43).keys != k1.keys


def test_user_key_counts(ex1, ex2):
    k = keygen(ex1, 0)
    assert len(user_key(ex1, k, (1, 1))) == 3
    k2 = keygen(ex2, 0)
    assert len(user_key(ex2, k2, (1, 1))) == 7
    s = minimal_scheme(5)
    assert len(user_key(s, keygen(s, 0), (2, 1))) == 1


def test_user_encode_zero_keys_is_identity(ex1):
    zero_keys = KeyMaterial(
        keys=tuple(zeros(ex1.cfg.field, 2, 1) for _ in ex1.groups),
        seed=0,
        prng_id=linalg.PRNG_ID,
    )
    w = linalg.random_mat(5, 1, ex1.cfg.field, 3)
    assert user_encode(ex1, zero_keys, (1, 1), w) == w


def test_user_encode_zero_input_is_pure_mask(ex1):
    k = keygen(ex1, 5)
    w0 = zeros(ex1.cfg.field, 5, 1)
    x = user_encode(ex1, k, (1, 1), w0)
    expected = w0
    for g_idx, key in user_key(ex1, k, (1, 1)):
        expected = mat_add(expected, mat_vec(ex1.block(g_idx, (1, 1)), key))
    assert x == expected


def test_user_encode_rejects_bad_shape(ex1):
    k = keygen(ex1, 0)
    with pytest.raises(DimensionMismatch):
        user_encode(ex1, k, (1, 1), zeros(ex1.cfg.field, 4, 1))
    with pytest.raises(DimensionMismatch):
        user_encode(ex1, k, (1, 1), zeros(ex1.cfg.field, 5, 2))


def test_encode_is_affine_in_the_input(ex1):
    f = ex1.cfg.field
    k = keygen(ex1, 9)
    w1 = linalg.random_mat(5, 1, f, 21)
    w2 = linalg.random_mat(5, 1, f, 22)
    lhs = user_encode(ex1, k, (2, 1), mat_add(w1, w2))
    mask = user_encode(ex1, k, (2, 1), zeros(f, 5, 1))
    rhs = mat_add(
        mat_add(user_encode(ex1, k, (2, 1), w1), user_encode(ex1, k, (2, 1), w2)),
        linalg.mat_neg(mask),
    )
    assert lhs == rhs


def test_relay_and_server_sums(ex1):
    # V = 1: each relay forwards its one user's message; the server adds them.
    s = minimal_scheme(5)
    f = s.cfg.field
    inputs = {(1, 1): from_rows(f, [[3]]), (2, 1): from_rows(f, [[4]])}
    keys = KeyMaterial((from_rows(f, [[2]]),), seed=0, prng_id=linalg.PRNG_ID)
    t = run_round_with_inputs(s, inputs, keys)
    assert t.relay_messages == {1: t.user_messages[(1, 1)], 2: t.user_messages[(2, 1)]}
    assert t.decoded_sum == from_rows(f, [[2]])
    # V = 2: a relay message is the entrywise sum of its users' messages.
    t = run_round(ex1, input_seed=8, key_seed=9)
    for u in (1, 2):
        assert t.relay_messages[u] == mat_add(t.user_messages[(u, 1)], t.user_messages[(u, 2)])
    assert t.decoded_sum == mat_add(t.relay_messages[1], t.relay_messages[2])


def test_exhaustive_correctness_minimal():
    # (2,1,2): every input pair x every key value decodes to the exact sum.
    for q in (2, 3):
        s = minimal_scheme(q)
        f = s.cfg.field
        for w1, w2, key in itertools.product(range(q), repeat=3):
            inputs = {
                (1, 1): from_rows(f, [[w1]]),
                (2, 1): from_rows(f, [[w2]]),
            }
            keys = KeyMaterial((from_rows(f, [[key]]),), seed=0, prng_id=linalg.PRNG_ID)
            t = run_round_with_inputs(s, inputs, keys)
            assert t.decoded_sum.entries() == [(w1 + w2) % q]


def test_decode_for_fixed_input_over_both_keys():
    s = minimal_scheme(2)
    f = s.cfg.field
    inputs = {(1, 1): from_rows(f, [[1]]), (2, 1): from_rows(f, [[0]])}
    for key in (0, 1):
        keys = KeyMaterial((from_rows(f, [[key]]),), seed=0, prng_id=linalg.PRNG_ID)
        t = run_round_with_inputs(s, inputs, keys)
        assert t.decoded_sum.entries() == [1]


def test_run_round_deterministic(ex1):
    t1 = run_round(ex1, input_seed=5, key_seed=6)
    t2 = run_round(ex1, input_seed=5, key_seed=6)
    assert t1 == t2
    assert t1 != run_round(ex1, input_seed=5, key_seed=7)


def test_hundred_rounds_examples(ex1, ex2):
    for s in (ex1, ex2):
        for i in range(100):
            t = run_round(s, input_seed=(1, i), key_seed=(2, i))
            assert t.decoded_sum == mat_sum(list(t.inputs.values()))
            assert all(x.rows == s.dims.L for x in t.user_messages.values())
            assert all(y.rows == s.dims.L for y in t.relay_messages.values())


def test_intra_relay_key_cancels_in_relay_message(ex1):
    # Group 0 = {(1,1),(1,2)} lives entirely inside relay 1; changing its key
    # must leave Y_1 unchanged.
    k = keygen(ex1, 3)
    bumped = list(k.keys)
    bumped[0] = mat_add(bumped[0], from_rows(ex1.cfg.field, [[1], [1]]))
    k2 = KeyMaterial(tuple(bumped), seed=3, prng_id=k.prng_id)
    inputs = {
        user: linalg.random_mat(5, 1, ex1.cfg.field, (77, user[0], user[1]))
        for user in [(1, 1), (1, 2), (2, 1), (2, 2)]
    }
    t1 = run_round_with_inputs(ex1, inputs, k)
    t2 = run_round_with_inputs(ex1, inputs, k2)
    assert t1.relay_messages[1] == t2.relay_messages[1]
    assert t1.user_messages[(1, 1)] != t2.user_messages[(1, 1)]
