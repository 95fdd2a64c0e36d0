import math
import time

import pytest

from hsagg import scheme
from hsagg.combi import BadGroupSize, CountOverflow, all_users, count_groups
from reference import enumerate_groups


def test_user_listing():
    assert all_users(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_groups_examples():
    g427 = enumerate_groups(4, 2, 7)
    assert len(g427) == 8
    assert g427[0] == ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
    assert len(enumerate_groups(2, 2, 2)) == 6
    assert enumerate_groups(2, 1, 2) == [((1, 1), (2, 1))]
    assert scheme._members(2, 1, 2).tolist() == [[0, 1]]
    for enumerate_ in (enumerate_groups, scheme._members):
        with pytest.raises(BadGroupSize):
            enumerate_(2, 2, 0)
        with pytest.raises(BadGroupSize):
            enumerate_(2, 2, 5)


def test_enumerate_groups_refuses_counts_past_64_bits():
    # Both the reference and the library's one enumeration, scheme._members.
    for enumerate_ in (enumerate_groups, scheme._members):
        with pytest.raises(CountOverflow, match=r"^C\(1600,30\) = \d+ exceeds 2\^63 - 1$"):
            enumerate_(40, 40, 30)
        with pytest.raises(CountOverflow, match=r"^C\(70,35\) = 112186277816662845432 exceeds"):
            enumerate_(35, 2, 35)  # ~1.1e20 groups, refused before any is made
        # C(67,33) is below 2^64 but above 2^63 - 1, the largest int64 member index.
        with pytest.raises(CountOverflow, match=r"^C\(67,33\) = 14226520737620288370 exceeds 2\^63 - 1$"):
            enumerate_(67, 1, 33)
    # C(66,33), the largest count for 66 users, is below 2^63 - 1.
    assert count_groups(66, 1, 33) == 7_219_428_434_016_265_740


def test_count_groups_refuses_huge_counts_without_computing_them():
    # C(9000,4500) has 8994 bits, under the 14,000-bit bound: computed and printed.
    with pytest.raises(CountOverflow, match=r"^C\(9000,4500\) = \d{2708} exceeds 2\^63 - 1$"):
        count_groups(9000, 1, 4500)
    # C(9,000,000, 200,000) would take math.comb seconds and has too many digits to print.
    start = time.process_time()
    with pytest.raises(CountOverflow, match=r"^C\(9000000,200000\) exceeds 2\^63 - 1$"):
        count_groups(3000, 3000, 200_000)
    assert time.process_time() - start < 0.1
    assert count_groups(4, 2, 4) == 70 and count_groups(2, 2, 4) == 1


def test_enumeration_count_order_and_distinctness():
    for U in range(2, 5):
        for V in range(1, 5):
            for G in range(1, U * V + 1):
                groups = enumerate_groups(U, V, G)
                assert len(groups) == math.comb(U * V, G)
                assert len(set(groups)) == len(groups)
                assert groups == sorted(groups)
                assert all(len(g) == G and list(g) == sorted(g) for g in groups)
