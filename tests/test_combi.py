import math

import pytest

from hsagg.combi import (
    BadGroupSize,
    CountOverflow,
    all_users,
    binom_sat,
    cross_relay_groups,
    enumerate_groups,
    groups_touching_relay,
)


def test_binom_sat_examples():
    assert binom_sat(4, 2) == 6
    assert binom_sat(6, 7) == 0
    assert binom_sat(8, 7) == 8
    assert binom_sat(-1, 3) == 0
    assert binom_sat(0, 0) == 1
    with pytest.raises(ValueError):
        binom_sat(5, -1)
    with pytest.raises(CountOverflow):
        binom_sat(70, 35)  # ~1.1e20, over 64 bits


def test_binom_sat_matches_math_comb():
    for n in range(0, 20):
        for k in range(0, 22):
            assert binom_sat(n, k) == (math.comb(n, k) if n >= k else 0)


def test_user_listing():
    assert all_users(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_groups_examples():
    g427 = enumerate_groups(4, 2, 7)
    assert len(g427) == 8
    assert g427[0] == ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
    assert len(enumerate_groups(2, 2, 2)) == 6
    assert enumerate_groups(2, 1, 2) == [((1, 1), (2, 1))]
    with pytest.raises(BadGroupSize):
        enumerate_groups(2, 2, 0)
    with pytest.raises(BadGroupSize):
        enumerate_groups(2, 2, 5)


def test_enumeration_count_order_and_distinctness():
    for U in range(2, 5):
        for V in range(1, 5):
            for G in range(1, U * V + 1):
                groups = enumerate_groups(U, V, G)
                assert len(groups) == binom_sat(U * V, G)
                assert len(set(groups)) == len(groups)
                assert groups == sorted(groups)
                assert all(len(g) == G and list(g) == sorted(g) for g in groups)


def test_groups_touching_relay_examples():
    assert groups_touching_relay(2, 2, 2, 1)[0] == 5
    assert groups_touching_relay(4, 2, 7, 1)[0] == 8
    assert groups_touching_relay(2, 1, 2, 2)[0] == 1
    with pytest.raises(ValueError):
        groups_touching_relay(2, 2, 2, 3)
    with pytest.raises(ValueError):
        groups_touching_relay(2, 2, 2, 0)


def test_cross_relay_groups_examples():
    assert cross_relay_groups(2, 2, 2)[0] == 4
    assert cross_relay_groups(4, 2, 7)[0] == 8
    assert cross_relay_groups(2, 1, 2)[0] == 1


def test_counts_match_filtered_enumeration():
    for U in range(2, 5):
        for V in range(1, 5):
            for G in range(1, U * V + 1):
                groups = enumerate_groups(U, V, G)
                for u in range(1, U + 1):
                    count, indices = groups_touching_relay(U, V, G, u)
                    expected = [
                        i for i, g in enumerate(groups) if any(m[0] == u for m in g)
                    ]
                    assert indices == expected
                    assert count == len(indices)
                count, indices = cross_relay_groups(U, V, G)
                expected = [
                    i for i, g in enumerate(groups) if len({m[0] for m in g}) >= 2
                ]
                assert indices == expected
                assert count == len(indices)


def test_cross_and_intra_partition_enumeration():
    for U in range(2, 5):
        for V in range(1, 5):
            for G in range(1, U * V + 1):
                total = binom_sat(U * V, G)
                _, cross = cross_relay_groups(U, V, G)
                groups = enumerate_groups(U, V, G)
                intra = [
                    i for i, g in enumerate(groups) if len({m[0] for m in g}) == 1
                ]
                assert sorted(cross + intra) == list(range(total))
                assert len(intra) == U * binom_sat(V, G)
