import pytest

from hsagg.gf import MAX_MODULUS, NotPrime
from hsagg.rates import ProblemConfig


def test_config_accepts_prime_moduli():
    for q in (2, 5, 11, MAX_MODULUS):  # 2^61 - 1 is prime
        assert ProblemConfig(2, 2, 2, q).q == q


@pytest.mark.parametrize("q", [4, 1, 0, -7, 9, 2147483649, MAX_MODULUS + 2])
def test_config_rejects_nonprimes_and_out_of_range(q):
    with pytest.raises(NotPrime, match=rf"^modulus must be a prime in \[2, 2\^61-1\], got {q}$"):
        ProblemConfig(2, 2, 2, q)


def test_config_reports_its_modulus_before_its_sizes():
    # U = 1 is refused too, but the modulus is checked first.
    with pytest.raises(NotPrime, match="got 4$"):
        ProblemConfig(1, 2, 2, 4)
