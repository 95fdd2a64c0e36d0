"""The prime modulus q of GF(q): its one primality check, and the field a Mat carries."""

from __future__ import annotations

from dataclasses import dataclass

import sympy

MAX_MODULUS = (1 << 61) - 1


class NotPrime(ValueError):
    """Raised when a requested modulus is composite or below 2."""


def check_prime(q: int):
    """Raise NotPrime unless q is a prime in [2, 2^61 - 1] (sympy.isprime is exact at this size)."""
    if q < 2 or q > MAX_MODULUS or not sympy.isprime(q):
        raise NotPrime(f"modulus must be a prime in [2, 2^61-1], got {q}")


@dataclass(frozen=True)
class FieldSpec:
    """GF(q) as a Mat carries it; linalg.from_array makes it from a ProblemConfig's checked q."""

    modulus: int
