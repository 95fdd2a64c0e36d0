import pytest
from hypothesis import given, settings, strategies as st

from hsagg.gf import (
    MAX_MODULUS,
    FieldSpec,
    NotPrime,
    f_pow,
    make_field,
)

PRIMES = [2, 3, 5, 11, 101, 2147483647, (1 << 61) - 1]


def test_make_field_accepts_primes():
    assert make_field(5) == FieldSpec(5)
    assert make_field(11) == FieldSpec(11)
    assert make_field(MAX_MODULUS).modulus == MAX_MODULUS  # 2^61 - 1 is prime


@pytest.mark.parametrize("q", [4, 1, 0, -7, 9, 2147483649, MAX_MODULUS + 2])
def test_make_field_rejects_nonprimes_and_out_of_range(q):
    with pytest.raises(NotPrime):
        make_field(q)


def test_f_pow_examples():
    f11 = make_field(11)
    assert f_pow(f11, 2, 10) == 1
    assert f_pow(f11, 2, 6) == 9
    assert f_pow(f11, 7, 0) == 1
    assert f_pow(f11, 0, 0) == 1  # empty-product convention
    with pytest.raises(ValueError):
        f_pow(f11, 2, -1)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(PRIMES),
    b=st.integers(min_value=0, max_value=1 << 62),
    e1=st.integers(min_value=0, max_value=200),
    e2=st.integers(min_value=0, max_value=200),
)
def test_pow_exponent_addition(q, b, e1, e2):
    f = make_field(q)
    assert f_pow(f, b, e1 + e2) == f_pow(f, b, e1) * f_pow(f, b, e2) % q
