"""Arithmetic in the prime field GF(q) with canonical least-nonnegative residues."""

from __future__ import annotations

from dataclasses import dataclass

import sympy

MAX_MODULUS = (1 << 61) - 1


class NotPrime(ValueError):
    """Raised when a requested modulus is composite or below 2."""


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(q). Construct through make_field so primality is checked."""

    modulus: int


def make_field(q: int) -> FieldSpec:
    """Return FieldSpec(q) for a prime q in [2, 2^61 - 1].

    Primality is checked deterministically (sympy.isprime is exact for all
    inputs this size).
    """
    if q < 2 or q > MAX_MODULUS or not sympy.isprime(q):
        raise NotPrime(f"modulus must be a prime in [2, 2^61-1], got {q}")
    return FieldSpec(q)
