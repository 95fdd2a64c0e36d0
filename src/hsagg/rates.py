"""Optimal rate region, feasibility, regime classification, blocklength selection.

All rate arithmetic is exact (fractions.Fraction); the regime split is a
strict comparison of two rationals and must never go through floats. Counts
use unbounded math.comb: nothing here is materialized, so a count past 64 bits
is still an exact rate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .gf import check_prime


class Infeasible(ValueError):
    """Raised for G = 1, where no secure aggregation scheme exists."""


class Regime(enum.Enum):
    RELAY_DOMINANT = "RelayDominant"
    SERVER_DOMINANT = "ServerDominant"


@dataclass(frozen=True)
class ProblemConfig:
    """An instance: U relays, V users per relay, group size G, field GF(q) for a prime q."""

    U: int
    V: int
    G: int
    q: int

    def __post_init__(self):
        check_prime(self.q)  # first: a config wrong in several ways reports its modulus
        if self.U < 2:
            raise ValueError(f"need U >= 2 relays, got {self.U}")
        if self.V < 1:
            raise ValueError(f"need V >= 1 users per relay, got {self.V}")
        if not 1 <= self.G <= self.U * self.V:
            raise ValueError(f"need 1 <= G <= UV = {self.U * self.V}, got {self.G}")


@dataclass(frozen=True)
class RateTuple:
    r_x: Fraction
    r_y: Fraction
    r_s: Fraction


@dataclass(frozen=True)
class SchemeDims:
    regime: Regime
    L: int
    L_S: int


def security_fractions(cfg: ProblemConfig) -> tuple[Fraction, Fraction]:
    """(relay-side, server-side) lower-bound fractions on the key rate; Infeasible at G = 1.

    At G = 1 the server-side denominator C(UV,1) - U*C(V,1) is 0.
    """
    require_feasible(cfg)
    total = comb(cfg.U * cfg.V, cfg.G)
    relay_denom = total - comb((cfg.U - 1) * cfg.V, cfg.G)
    server_denom = total - cfg.U * comb(cfg.V, cfg.G)
    return Fraction(cfg.V, relay_denom), Fraction(cfg.U - 1, server_denom)


def require_feasible(cfg: ProblemConfig):
    """Raise Infeasible iff G = 1: no key is shared, so secure aggregation is impossible."""
    if cfg.G == 1:
        raise Infeasible("G = 1: groupwise keys are private, no scheme exists")


def optimal_rates(cfg: ProblemConfig, fractions: tuple[Fraction, Fraction] | None = None) -> RateTuple:
    """The corner point of the optimal region: R_X = R_Y = 1, minimal R_S; Infeasible at G = 1.

    fractions, if given, are security_fractions(cfg), which is then not computed again.
    """
    relay_frac, server_frac = fractions or security_fractions(cfg)
    return RateTuple(Fraction(1), Fraction(1), max(relay_frac, server_frac))


def classify_regime(cfg: ProblemConfig, fractions: tuple[Fraction, Fraction] | None = None) -> SchemeDims:
    """Pick the dominant security constraint and the matching blocklengths.

    Relay-dominant (ties included): L = C(UV,G) - C((U-1)V,G), L_S = V.
    Server-dominant: L = C(UV,G) - U*C(V,G), L_S = U - 1.
    In both cases L_S / L equals the optimal key rate exactly. Infeasible at G = 1.
    fractions, if given, are security_fractions(cfg), which is then not computed again.
    """
    relay_frac, server_frac = fractions or security_fractions(cfg)
    if relay_frac >= server_frac:  # L = L_S / key rate, an integer, so the binomials are not computed again
        return SchemeDims(Regime.RELAY_DOMINANT, int(cfg.V / relay_frac), cfg.V)
    return SchemeDims(Regime.SERVER_DOMINANT, int((cfg.U - 1) / server_frac), cfg.U - 1)
