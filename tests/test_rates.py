import math
from fractions import Fraction

import pytest

from hsagg.gf import make_field
from hsagg.rates import (
    Infeasible,
    ProblemConfig,
    RateTuple,
    Regime,
    classify_regime,
    optimal_rates,
    require_feasible,
    security_fractions,
)

GF2 = make_field(2)


def cfg(U, V, G):
    return ProblemConfig(U, V, G, GF2)


def test_problem_config_validation():
    with pytest.raises(ValueError):
        cfg(1, 2, 2)
    with pytest.raises(ValueError):
        cfg(2, 0, 2)
    with pytest.raises(ValueError):
        cfg(2, 2, 0)
    with pytest.raises(ValueError):
        cfg(2, 2, 5)


def test_check_feasible():
    with pytest.raises(Infeasible):
        require_feasible(cfg(2, 2, 1))
    assert require_feasible(cfg(2, 2, 2)) is None
    assert require_feasible(cfg(2, 1, 2)) is None


def test_optimal_rates_examples():
    assert optimal_rates(cfg(2, 2, 2)) == RateTuple(
        Fraction(1), Fraction(1), Fraction(2, 5)
    )
    assert optimal_rates(cfg(4, 2, 7)) == RateTuple(
        Fraction(1), Fraction(1), Fraction(3, 8)
    )
    assert optimal_rates(cfg(2, 1, 2)) == RateTuple(Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(Infeasible):
        optimal_rates(cfg(3, 2, 1))


def test_classify_regime_examples():
    d = classify_regime(cfg(2, 2, 2))
    assert (d.regime, d.L, d.L_S) == (Regime.RELAY_DOMINANT, 5, 2)
    d = classify_regime(cfg(4, 2, 7))
    assert (d.regime, d.L, d.L_S) == (Regime.SERVER_DOMINANT, 8, 3)
    d = classify_regime(cfg(2, 1, 2))  # both fractions equal 1; tie breaks to relay
    assert (d.regime, d.L, d.L_S) == (Regime.RELAY_DOMINANT, 1, 1)
    with pytest.raises(Infeasible):
        classify_regime(cfg(2, 2, 1))


@pytest.mark.parametrize("U, V", [(2, 1), (2, 2), (3, 2), (5, 4)])
def test_security_fractions_refuse_g1_as_infeasible(U, V):
    # At G = 1 the server-side denominator C(UV,1) - U*C(V,1) is 0: refused
    # before it is divided by, as optimal_rates and classify_regime refuse it.
    with pytest.raises(Infeasible):
        security_fractions(cfg(U, V, 1))


def _sat(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def test_grid_invariants():
    for U in range(2, 6):
        for V in range(1, 5):
            for G in range(2, U * V + 1):
                c = cfg(U, V, G)
                relay_frac, server_frac = security_fractions(c)
                # Independent brute-force recomputation of both security
                # fractions straight from big-integer binomials.
                total = _sat(U * V, G)
                relay_denom = total - _sat((U - 1) * V, G)
                server_denom = total - U * _sat(V, G)
                assert relay_denom > 0 and server_denom > 0
                assert relay_frac == Fraction(V, relay_denom)
                assert server_frac == Fraction(U - 1, server_denom)
                rates = optimal_rates(c)
                assert rates.r_x == 1 and rates.r_y == 1
                assert rates.r_s == max(relay_frac, server_frac)
                dims = classify_regime(c)
                assert Fraction(dims.L_S, dims.L) == rates.r_s
                if dims.regime is Regime.RELAY_DOMINANT:
                    assert (dims.L, dims.L_S) == (relay_denom, V)
                    assert relay_frac >= server_frac
                else:
                    assert (dims.L, dims.L_S) == (server_denom, U - 1)
                    assert server_frac > relay_frac
