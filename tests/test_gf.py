import pytest

from hsagg.gf import (
    MAX_MODULUS,
    FieldSpec,
    NotPrime,
    make_field,
)

def test_make_field_accepts_primes():
    assert make_field(5) == FieldSpec(5)
    assert make_field(11) == FieldSpec(11)
    assert make_field(MAX_MODULUS).modulus == MAX_MODULUS  # 2^61 - 1 is prime


@pytest.mark.parametrize("q", [4, 1, 0, -7, 9, 2147483649, MAX_MODULUS + 2])
def test_make_field_rejects_nonprimes_and_out_of_range(q):
    with pytest.raises(NotPrime):
        make_field(q)
