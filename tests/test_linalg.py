import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsagg.gf import make_field
from hsagg.linalg import (
    PRNG_ID,
    DimensionMismatch,
    Mat,
    from_flat,
    from_rows,
    hstack,
    identity,
    mat_add,
    mat_neg,
    mat_sum,
    mat_vec,
    matmul_mod,
    random_mat,
    rank,
    sum_mod,
    vandermonde_block,
    vstack,
    zeros,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF5 = make_field(5)
GF11 = make_field(11)
BIG = make_field(2147483647)
HUGE = make_field((1 << 61) - 1)  # exercises the object-dtype path


def brute_rank(m: Mat) -> int:
    """log_q of the row-span size, by exhaustive span enumeration."""
    q = m.field.modulus
    rows = [tuple(int(x) for x in m.array[i]) for i in range(m.rows)]
    span = set()
    for coeffs in itertools.product(range(q), repeat=m.rows):
        vec = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(m.cols)
        )
        span.add(vec)
    size = len(span)
    r = 0
    while q**r < size:
        r += 1
    assert q**r == size
    return r


def test_rank_examples():
    assert rank(identity(GF5, 3)) == 3
    assert rank(zeros(GF5, 4, 7)) == 0
    assert rank(from_rows(GF5, [[1, 2], [2, 4]])) == 1  # second row = 2x first


def test_rank_empty_matrix():
    assert rank(zeros(GF5, 0, 3)) == 0
    assert rank(zeros(GF5, 3, 0)) == 0


def test_rank_matches_brute_force():
    for q, f in ((2, GF2), (3, GF3)):
        for i in range(25):
            gen_shape = random_mat(1, 2, make_field(7), (q, i, 99))
            r = 1 + gen_shape.entry(0, 0) % 6
            c = 1 + gen_shape.entry(0, 1) % 6
            m = random_mat(r, c, f, (q, i))
            assert rank(m) == brute_rank(m)
            assert rank(m) <= min(r, c)


def test_rank_block_diagonal_sums():
    a = random_mat(3, 4, GF3, 10)
    b = random_mat(2, 3, GF3, 11)
    top = hstack([a, zeros(GF3, 3, 3)])
    bot = hstack([zeros(GF3, 2, 4), b])
    assert rank(vstack([top, bot])) == rank(a) + rank(b)


def test_rank_invariant_under_row_permutation_and_scaling():
    m = random_mat(4, 5, GF5, 42)
    perm = from_rows(GF5, [list(m.array[i]) for i in (2, 0, 3, 1)])
    assert rank(perm) == rank(m)
    scaled_rows = [[(3 * int(x)) % 5 for x in m.array[i]] for i in range(4)]
    assert rank(from_rows(GF5, scaled_rows)) == rank(m)


def test_mat_vec_examples():
    v = from_rows(GF5, [[1], [2], [3]])
    assert mat_vec(identity(GF5, 3), v) == v
    assert mat_vec(zeros(GF5, 3, 3), v) == zeros(GF5, 3, 1)
    assert mat_vec(from_rows(GF5, [[2]]), from_rows(GF5, [[3]])) == from_rows(GF5, [[1]])


def test_mat_vec_dimension_errors():
    with pytest.raises(DimensionMismatch):
        mat_vec(identity(GF5, 3), from_rows(GF5, [[1], [2]]))
    with pytest.raises(DimensionMismatch):
        mat_vec(identity(GF5, 2), identity(GF5, 2))  # not a column vector
    with pytest.raises(DimensionMismatch):
        mat_add(identity(GF5, 2), identity(GF3, 2))  # different fields


def test_mat_vec_large_modulus_overflow_path():
    # q*q*cols exceeds int64 headroom here, so the product splits one operand.
    m = random_mat(4, 3, BIG, 5)
    v = random_mat(3, 1, BIG, 6)
    expected = [
        sum(m.entry(i, k) * v.entry(k, 0) for k in range(3)) % BIG.modulus
        for i in range(4)
    ]
    assert mat_vec(m, v).entries() == expected


def test_object_dtype_field_is_exact():
    m = random_mat(3, 3, HUGE, 1)
    v = random_mat(3, 1, HUGE, 2)
    assert m.array.dtype == object
    expected = [
        sum(m.entry(i, k) * v.entry(k, 0) for k in range(3)) % HUGE.modulus
        for i in range(3)
    ]
    assert mat_vec(m, v).entries() == expected
    assert rank(identity(HUGE, 4)) == 4
    assert mat_add(m, mat_neg(m)) == zeros(HUGE, 3, 3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mat_vec_distributes_over_addition(seed):
    m = random_mat(4, 3, GF11, (seed, 0))
    v1 = random_mat(3, 1, GF11, (seed, 1))
    v2 = random_mat(3, 1, GF11, (seed, 2))
    assert mat_vec(m, mat_add(v1, v2)) == mat_add(mat_vec(m, v1), mat_vec(m, v2))


def test_vandermonde_examples():
    assert vandermonde_block(GF11, (1, 8, 9), 0, 2) == from_rows(GF11, [[1, 1, 1], [1, 8, 9]])
    assert vandermonde_block(GF11, (1, 1, 1), 7, 2) == from_rows(GF11, [[1, 1, 1], [1, 1, 1]])
    assert vandermonde_block(GF11, (2, 2, 2), 1, 1) == from_rows(GF11, [[2, 2, 2]])
    with pytest.raises(DimensionMismatch):
        vandermonde_block(GF11, (1, 2, 3), 0, 0)


def test_vandermonde_distinct_bases_full_rank():
    # All base triples of the form (g^(i-1), g^(i+2), g^(i+5)) mod 11, g = 2.
    for i in range(1, 9):
        bases = [pow(2, e % 10, 11) for e in (i - 1, i + 2, i + 5)]
        assert len(set(bases)) == 3 and 0 not in bases
        for rows in (3, 5, 8):
            assert rank(vandermonde_block(GF11, bases, 0, rows)) == 3


def test_random_mat_determinism_and_sensitivity():
    assert PRNG_ID == "numpy-pcg64"
    assert random_mat(4, 4, GF5, 123) == random_mat(4, 4, GF5, 123)
    assert random_mat(4, 4, GF5, (1, 2)) == random_mat(4, 4, GF5, (1, 2))
    for s in range(100):
        a = random_mat(8, 8, BIG, s)
        b = random_mat(8, 8, BIG, s + 1)
        assert a != b


def test_random_mat_empty():
    m = random_mat(0, 3, GF5, 0)
    assert m.rows == 0 and m.cols == 3
    assert rank(m) == 0


def test_random_mat_entries_in_range():
    m = random_mat(20, 20, GF3, 7)
    assert all(0 <= x < 3 for x in m.entries())


def test_from_flat_and_stacking():
    m = from_flat(GF5, 2, 3, [1, 2, 3, 4, 5, 6])
    assert m == from_rows(GF5, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(DimensionMismatch):
        from_flat(GF5, 2, 3, [1, 2, 3])
    h = hstack([m, m])
    assert (h.rows, h.cols) == (2, 6)
    v = vstack([m, m])
    assert (v.rows, v.cols) == (4, 3)
    with pytest.raises(DimensionMismatch):
        hstack([m, identity(GF5, 3)])
    with pytest.raises(DimensionMismatch):
        vstack([m, identity(GF5, 2)])


def test_mat_sum_and_immutability():
    m = random_mat(3, 3, GF5, 9)
    assert mat_sum([m, mat_neg(m)]) == zeros(GF5, 3, 3)
    with pytest.raises(ValueError):
        m.array[0, 0] = 1


# Moduli for the exact product: tiny, the 31-bit Mersenne prime, the largest
# prime with (q-1)^2 < 2^63 (int64-safe), the largest prime below 2^61 - 1,
# and the 61-bit Mersenne prime.
KERNEL_MODULI = (2, 5, 2**31 - 1, 3_037_000_493, 2305843009213693921, 2**61 - 1)


def reference_product(a: list, b: list, inner: int, cols: int, q: int) -> list:
    """(a @ b) mod q in Python ints, for row-major nested lists."""
    return [[sum(row[t] * b[t][j] for t in range(inner)) % q for j in range(cols)] for row in a]


@st.composite
def product_operands(draw):
    q = draw(st.sampled_from(KERNEL_MODULI))
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.integers(0, q - 1)
    a = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    return q, rows, inner, cols, a, b


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_matmul_mod_matches_python_ints(operands):
    q, rows, inner, cols, a, b = operands
    got = matmul_mod(
        np.array(a, dtype=np.int64).reshape(rows, inner),
        np.array(b, dtype=np.int64).reshape(inner, cols),
        q,
    )
    assert got.dtype == np.int64 and got.shape == (rows, cols)
    assert got.tolist() == reference_product(a, b, inner, cols, q)


@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_matmul_mod_all_entries_q_minus_1(q):
    a = np.full((3, 17), q - 1, dtype=np.int64)
    b = np.full((17, 4), q - 1, dtype=np.int64)
    # (q-1)^2 = 1 mod q, so every entry is the inner dimension mod q.
    assert matmul_mod(a, b, q).tolist() == [[17 % q] * 4] * 3


@pytest.mark.parametrize(
    "q, inner",
    [
        # 16-bit split: a product is below (q-1) * 2^16, so about 46,000 terms
        # fill an int64 chunk at this q.
        (3_037_000_493, 50_000),
        # 21-bit limbs: the middle weight sums 3 * inner products below 2^42,
        # so 700,001 columns give 2,100,003 terms, past the 2^21 chunk.
        (2**61 - 1, 700_001),
    ],
)
def test_matmul_mod_inner_dimension_past_chunk_bound(q, inner):
    a = np.full((1, inner), q - 1, dtype=np.int64)
    b = np.full((inner, 1), q - 1, dtype=np.int64)
    assert matmul_mod(a, b, q).tolist() == [[inner % q]]
    rng = np.random.default_rng(inner)
    a = rng.integers(0, q, size=(1, inner), dtype=np.int64)
    b = rng.integers(0, q, size=(inner, 1), dtype=np.int64)
    expected = sum(x * y for x, y in zip(a[0].tolist(), b[:, 0].tolist())) % q
    assert matmul_mod(a, b, q).tolist() == [[expected]]


@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_sum_mod_never_overflows(q):
    # 10 entries of q - 1 along axis 1: past 2^63 unreduced when q is near 2^61.
    a = np.full((2, 10, 3), q - 1, dtype=np.int64)
    assert sum_mod(a, 1, q).tolist() == [[(10 * (q - 1)) % q] * 3] * 2
