"""User indexing and group counts.

Users are pairs (u, v) with relay index u in [1..U] and within-relay index
v in [1..V], in canonical order. A group is a set of G distinct users, and
groups are numbered in lexicographic order of their sorted members; the one
group enumeration is scheme._members, which this module's count_groups
accepts first.
"""

from __future__ import annotations

import math

_COUNT_MAX = (1 << 63) - 1


class BadGroupSize(ValueError):
    """Raised when a group size G is outside [1, U*V]."""


class CountOverflow(OverflowError):
    """Raised when a binomial count exceeds 2^63 - 1, the largest int64 member index."""


def all_users(U: int, V: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, U + 1) for v in range(1, V + 1)]


def power_exceeds(x: int, n: int, bound: int) -> bool:
    """Exactly whether x^n > bound, without building x^n when it is far larger."""
    if n * (x.bit_length() - 1) > bound.bit_length():
        return True  # x^n >= 2^(n * (bitlen(x) - 1)) > bound
    return x**n > bound


def huge_count(U: int, V: int, G: int) -> bool:
    """Whether C(UV, G) may pass 14,000 bits, decided on integers without computing it.

    With k = min(G, UV - G), C(UV, G) <= (e UV / k)^k <= ceil(27183 UV / (10000 k))^k,
    since 27183 / 10000 > e; the count is flagged when that bound passes
    2^14000. Under it, math.comb takes milliseconds and the count has at most
    the 4300 decimal digits Python prints; over it, math.comb can take
    seconds. Such a count has over 5000 bits anyway: it is at least (UV / k)^k,
    and UV / k >= 2.
    """
    k = min(G, U * V - G)
    return k > 0 and power_exceeds(-(-27183 * U * V // (10000 * k)), k, 1 << 14_000)


def count_groups(U: int, V: int, G: int) -> int:
    """C(UV, G), the number of groups; CountOverflow above 2^63 - 1, or at once for a huge_count."""
    if G < 1 or G > U * V:
        raise BadGroupSize(f"G must be in [1, {U * V}], got {G}")
    if huge_count(U, V, G):
        raise CountOverflow(f"C({U * V},{G}) exceeds 2^63 - 1")
    count = math.comb(U * V, G)
    if count > _COUNT_MAX:
        raise CountOverflow(f"C({U * V},{G}) = {count} exceeds 2^63 - 1")
    return count

