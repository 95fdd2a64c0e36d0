"""User indexing and group enumeration.

Users are pairs (u, v) with relay index u in [1..U] and within-relay index
v in [1..V]. A group is a sorted tuple of G distinct users. The canonical
group order is lexicographic over the sorted member tuples, so groups can be
referred to stably by their index in enumerate_groups.
"""

from __future__ import annotations

import math
from itertools import combinations

UserId = tuple[int, int]
Group = tuple[UserId, ...]

_COUNT_MAX = (1 << 63) - 1


class BadGroupSize(ValueError):
    """Raised when a group size G is outside [1, U*V]."""


class CountOverflow(OverflowError):
    """Raised when a binomial count does not fit in 64 bits."""


def all_users(U: int, V: int) -> list[UserId]:
    return [(u, v) for u in range(1, U + 1) for v in range(1, V + 1)]


def enumerate_groups(U: int, V: int, G: int) -> list[Group]:
    """All C(UV, G) size-G groups in lexicographic order of sorted members."""
    if G < 1 or G > U * V:
        raise BadGroupSize(f"G must be in [1, {U * V}], got {G}")
    count = math.comb(U * V, G)
    if count > _COUNT_MAX:  # refused before anything is materialized
        raise CountOverflow(f"C({U * V},{G}) = {count} exceeds 64 bits")
    return [tuple(c) for c in combinations(all_users(U, V), G)]
