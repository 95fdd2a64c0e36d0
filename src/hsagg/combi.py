"""User indexing, group enumeration, and saturating binomial counts.

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


def binom_sat(n: int, k: int) -> int:
    """C(n, k), saturating to 0 whenever n < k or n < 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if n < 0 or n < k:
        return 0
    c = math.comb(n, k)
    if c > _COUNT_MAX:
        raise CountOverflow(f"C({n},{k}) = {c} exceeds 64 bits")
    return c


def all_users(U: int, V: int) -> list[UserId]:
    return [(u, v) for u in range(1, U + 1) for v in range(1, V + 1)]


def enumerate_groups(U: int, V: int, G: int) -> list[Group]:
    """All C(UV, G) size-G groups in lexicographic order of sorted members."""
    if G < 1 or G > U * V:
        raise BadGroupSize(f"G must be in [1, {U * V}], got {G}")
    binom_sat(U * V, G)  # overflow guard before materializing
    return [tuple(c) for c in combinations(all_users(U, V), G)]


def groups_touching_relay(U: int, V: int, G: int, u: int) -> tuple[int, list[int]]:
    """Count and canonical indices of groups with at least one member at relay u.

    The count is C(UV, G) - C((U-1)V, G): only groups formed entirely by
    users outside the relay are excluded.
    """
    if u < 1 or u > U:
        raise ValueError(f"relay index {u} outside [1, {U}]")
    count = binom_sat(U * V, G) - binom_sat((U - 1) * V, G)
    indices = [
        i
        for i, grp in enumerate(enumerate_groups(U, V, G))
        if any(member[0] == u for member in grp)
    ]
    return count, indices


def cross_relay_groups(U: int, V: int, G: int) -> tuple[int, list[int]]:
    """Count and canonical indices of groups whose members span >= 2 relays.

    The count is C(UV, G) - U*C(V, G): groups confined to a single relay are
    excluded.
    """
    count = binom_sat(U * V, G) - U * binom_sat(V, G)
    indices = [
        i
        for i, grp in enumerate(enumerate_groups(U, V, G))
        if len({member[0] for member in grp}) >= 2
    ]
    return count, indices
