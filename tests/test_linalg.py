import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hsagg import linalg
from hsagg.rates import ProblemConfig
from hsagg.linalg import (
    PRNG_ID,
    DimensionMismatch,
    Mat,
    from_array,
    matmul_mod,
    rank,
    sum_mod,
)
from reference import sample_zero_sum_scheme

GF2 = 2
GF3 = 3
GF5 = 5
GF11 = 11
BIG = 2147483647
HUGE = (1 << 61) - 1  # rank's leaves estimate quotients in float64 at this q


def one_draw(rows, cols, q, seed) -> np.ndarray:
    """The rows x cols draw of one seed (an int or a nested tuple of ints)."""
    return linalg.random_mats(rows, cols, q, linalg.seed_rows(seed, [[]]))[0]


def mat(q, rows) -> Mat:
    """A Mat from nested lists of integers, reduced mod q."""
    return from_array(q, np.array(rows, dtype=np.int64).reshape(len(rows), -1) % q)


def zeros(q, rows, cols) -> Mat:
    return from_array(q, np.zeros((rows, cols), dtype=np.int64))


def identity(q, n) -> Mat:
    return from_array(q, np.eye(n, dtype=np.int64))


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
    assert rank(mat(GF5, [[1, 2], [2, 4]])) == 1  # second row = 2x first


def test_rank_empty_matrix():
    assert rank(zeros(GF5, 0, 3)) == 0
    assert rank(zeros(GF5, 3, 0)) == 0


def test_rank_matches_brute_force():
    for q, f in ((2, GF2), (3, GF3)):
        for i in range(25):
            gen_shape = one_draw(1, 2, 7, (q, i, 99))
            r = 1 + int(gen_shape[0, 0]) % 6
            c = 1 + int(gen_shape[0, 1]) % 6
            m = from_array(f, one_draw(r, c, f, (q, i)))
            assert rank(m) == brute_rank(m)
            assert rank(m) <= min(r, c)


def test_rank_block_diagonal_sums():
    a = one_draw(3, 4, GF3, 10)
    b = one_draw(2, 3, GF3, 11)
    zero = np.zeros((5, 7), dtype=np.int64)
    diagonal = np.block([[a, zero[:3, :3]], [zero[:2, :4], b]])
    assert rank(from_array(GF3, diagonal)) == rank(from_array(GF3, a)) + rank(from_array(GF3, b))


def test_rank_invariant_under_row_permutation_and_scaling():
    m = one_draw(4, 5, GF5, 42)
    assert rank(from_array(GF5, m[[2, 0, 3, 1]])) == rank(from_array(GF5, m))
    assert rank(from_array(GF5, 3 * m % 5)) == rank(from_array(GF5, m))


def test_mat_vec_examples():
    # matmul_mod with a column vector: the matrix-vector case.
    v = np.array([[1], [2], [3]])
    assert matmul_mod(np.eye(3, dtype=np.int64), v, 5).tolist() == v.tolist()
    assert not matmul_mod(np.zeros((3, 3), dtype=np.int64), v, 5).any()
    assert matmul_mod(np.array([[2]]), np.array([[3]]), 5).tolist() == [[1]]


def test_mat_vec_dimension_errors():
    with pytest.raises(ValueError):
        matmul_mod(np.eye(3, dtype=np.int64), np.array([[1], [2]]), 5)  # inner 3 vs 2
    with pytest.raises(DimensionMismatch):
        from_array(GF5, np.zeros(3, dtype=np.int64))  # not 2-dimensional
    with pytest.raises(DimensionMismatch):
        from_array(GF5, np.zeros((2, 2)))  # not int64


def test_mat_vec_large_modulus_overflow_path():
    # q*q*cols exceeds int64 headroom here, so the product splits one operand.
    m = one_draw(4, 3, BIG, 5)
    v = one_draw(3, 1, BIG, 6)
    expected = reference_product(m.tolist(), v.tolist(), 3, 1, BIG)
    assert matmul_mod(m, v, BIG).tolist() == expected


def test_huge_field_is_int64_and_exact():
    q = HUGE
    m = one_draw(3, 3, HUGE, 1)
    v = one_draw(3, 1, HUGE, 2)
    assert from_array(HUGE, m).array.dtype == np.int64
    assert matmul_mod(m, v, q).tolist() == reference_product(m.tolist(), v.tolist(), 3, 1, q)
    assert rank(identity(HUGE, 4)) == 4
    # Rows 2 and 3 are q-1 and 2^60 times row 1, whose entries are near q.
    row = [q - 1, q - 2, 1 << 60, 3]
    a = np.array([row, [(q - 1) * x % q for x in row], [(1 << 60) * x % q for x in row]], dtype=np.int64)
    assert rank(from_array(HUGE, a)) == reference_rank(a.tolist(), q) == 1
    assert rank(from_array(HUGE, one_draw(20, 20, HUGE, 3))) == 20
    assert not sum_mod(np.stack([m, -m % q]), 0, q).any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mat_vec_distributes_over_addition(seed):
    m = one_draw(4, 3, GF11, (seed, 0))
    v1 = one_draw(3, 1, GF11, (seed, 1))
    v2 = one_draw(3, 1, GF11, (seed, 2))
    lhs = matmul_mod(m, (v1 + v2) % 11, 11)
    assert np.array_equal(lhs, (matmul_mod(m, v1, 11) + matmul_mod(m, v2, 11)) % 11)


def test_vandermonde_distinct_bases_full_rank():
    # All base triples of the form (g^(i-1), g^(i+2), g^(i+5)) mod 11, g = 2,
    # as example 2 uses them: row r holds the bases to the power r.
    for i in range(1, 9):
        bases = [pow(2, e % 10, 11) for e in (i - 1, i + 2, i + 5)]
        assert len(set(bases)) == 3 and 0 not in bases
        for rows in (3, 5, 8):
            powers = np.array([[pow(b, r, 11) for b in bases] for r in range(rows)], dtype=np.int64)
            assert rank(from_array(GF11, powers)) == 3


def test_random_mat_determinism_and_sensitivity():
    assert PRNG_ID == "numpy-pcg64"
    assert one_draw(4, 4, GF5, 123).dtype == one_draw(4, 4, HUGE, 123).dtype == np.int64
    assert np.array_equal(one_draw(4, 4, GF5, 123), one_draw(4, 4, GF5, 123))
    assert np.array_equal(one_draw(4, 4, GF5, (1, 2)), one_draw(4, 4, GF5, (1, 2)))
    for s in range(100):
        assert not np.array_equal(one_draw(8, 8, BIG, s), one_draw(8, 8, BIG, s + 1))


def test_random_mat_empty():
    m = one_draw(0, 3, GF5, 0)
    assert m.shape == (0, 3)
    assert rank(from_array(GF5, m)) == 0


def test_random_mat_entries_in_range():
    m = one_draw(20, 20, GF3, 7)
    assert m.min() >= 0 and m.max() < 3


def test_mat_sum_and_immutability():
    # A residue array plus its negation sums to zero; a Mat's array is read-only.
    a = one_draw(3, 3, GF5, 9)
    assert not sum_mod(np.stack([a, -a % 5]), 0, 5).any()
    m = from_array(GF5, a)
    with pytest.raises(ValueError):
        m.array[0, 0] = 1


# Moduli for the exact product: tiny, one 21-bit limb (65,537 and 2,097,143,
# whose q - 1 has 17 and 21 bits), the 31-bit Mersenne prime, the largest
# prime with (q-1)^2 < 2^63 (int64-safe), three limbs from the least prime
# above 2^42 and the least above 2^53, the greatest prime below and the least
# above 3 (2^53 - 1) (under it each Horner step reduces with %, over it by one
# subtraction), the largest prime below 2^61 - 1, and the 61-bit Mersenne prime.
KERNEL_MODULI = (
    2, 5, 65_537, 2_097_143, 2**31 - 1, 3_037_000_493, 4_398_046_511_119, 9_007_199_254_740_997,
    27_021_597_764_222_939, 27_021_597_764_223_071, 2305843009213693921, 2**61 - 1,
)


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


# Longest inner chunk of the float64 product: a 21-bit limb is at most
# 2^21 - 1, so that many limb products sum to an integer below 2^53.
CHUNK = (2**53 - 1) // (2**21 - 1) ** 2  # 2,048

# Moduli of the chunk tests: one limb (q = 2 and 3, and 65,537 and 2,097,143,
# whose q - 1 has 17 and 21 bits), two limbs either side of 3,037,000,499 and
# either side of 2^32, and three at the least primes above 2^42 and 2^53,
# either side of 3 (2^53 - 1), where the Horner step turns from % q to one
# subtraction, and at 2^61 - 1.
BOUNDARY_MODULI = (
    2, 3, 65_537, 2_097_143, 3_037_000_493, 3_037_000_507, 4_294_967_291, 4_294_967_311,
    4_398_046_511_119, 9_007_199_254_740_997, 27_021_597_764_222_939, 27_021_597_764_223_071, 2**61 - 1,
)


@pytest.mark.parametrize(
    "q, inner",
    [
        # 700,001 terms are 342 chunks of at most 2,048.
        (2**61 - 1, 700_001),
        # Two full 21-bit limbs (q - 1 = 2^42 - 12): 1,100,000 terms are 538
        # chunks, and the weight-2^21 sum of a0 b1 + a1 b0 over them passes
        # 2^63 unless it is reduced between chunks.
        (4_398_046_511_093, 1_100_000),
        # One term past a chunk, at every modulus of the chunk tests.
        *((q, CHUNK + 1) for q in BOUNDARY_MODULI),
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


def boundary_operands(q, rows, inner, cols, fill, seed):
    """a (rows x inner) and b (inner x cols): every entry q - 1, the largest limb, two largest limbs, or uniform.

    The largest limb is min(q - 1, 2^21 - 1): products of it are the largest
    a chunk may sum. Two largest limbs, min(q - 1, 2^42 - 1), give the largest
    weight sums that a q of three limbs can have: a0 b1 + a1 b0 is close to
    2^54 over a chunk.
    """
    if fill == "random":
        rng = np.random.default_rng(seed)
        return tuple(rng.integers(0, q, size=shape, dtype=np.int64) for shape in ((rows, inner), (inner, cols)))
    entry = q - 1 if fill == "q-1" else min(q - 1, 2 ** (21 if fill == "largest limb" else 42) - 1)
    return np.full((rows, inner), entry, dtype=np.int64), np.full((inner, cols), entry, dtype=np.int64)


@st.composite
def chunk_boundaries(draw):
    """Arguments of boundary_operands, with the inner dimension one below, at or one above a chunk.

    Below q = 2^21 a limb is smaller and a chunk is longer (at 2,097,143 it is
    still 2,048 terms), so there the inner dimension is checked, not crossed.
    """
    q = draw(st.sampled_from(BOUNDARY_MODULI))
    inner = CHUNK + draw(st.sampled_from([-1, 0, 1]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fill = draw(st.sampled_from(["q-1", "largest limb", "two largest limbs", "random"]))
    return q, rows, inner, cols, fill, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(chunk_boundaries())
# One term past a chunk of the largest limb products: their exact sum passes 2^53.
@example((2**61 - 1, 2, CHUNK + 1, 3, "largest limb", 0))
@example((4_294_967_291, 1, CHUNK + 1, 1, "largest limb", 0))
@example((2_097_143, 3, CHUNK + 1, 2, "largest limb", 0))
# The Horner step reduces by one subtraction only where 3 (2^53 - 1) < q, where every weight sum is
# below q: not at the first prime above 2^42, where a chunk's weight sums pass 2q, nor at the first
# prime above 2^53, where a full chunk's weight sums pass q, nor at the last prime below 3 2^53, but
# at the first prime above it.
@example((4_398_046_511_119, 2, CHUNK, 3, "largest limb", 0))
@example((4_398_046_511_119, 2, CHUNK - 1, 3, "random", 0))
@example((9_007_199_254_740_997, 2, CHUNK, 3, "two largest limbs", 0))
@example((9_007_199_254_740_997, 2, CHUNK + 1, 3, "random", 0))
@example((27_021_597_764_222_939, 2, CHUNK, 3, "two largest limbs", 0))
@example((27_021_597_764_222_939, 2, CHUNK + 1, 3, "q-1", 0))
@example((27_021_597_764_223_071, 2, CHUNK, 3, "two largest limbs", 0))
@example((27_021_597_764_223_071, 2, CHUNK + 1, 3, "random", 0))
def test_matmul_mod_is_exact_at_the_chunk_boundaries(args):
    q, a, b = args[0], *boundary_operands(*args)
    expected = (a.astype(object) @ b.astype(object)) % q  # Python ints
    got = matmul_mod(a, b, q)
    assert got.dtype == np.int64
    assert got.tolist() == expected.tolist()


def test_matmul_mod_makes_one_limb_of_a_at_a_time():
    # A tall a at 2^61 - 1 has three 21-bit limbs. a is taken in row blocks
    # and one limb of a block is made at a time, so the product peaks at its
    # result plus one block's temporaries, about a tenth of a here; all three
    # float64 limbs of a at once would be three copies.
    q = 2**61 - 1
    rng = np.random.default_rng(0)
    a = rng.integers(0, q, size=(20_000, 64), dtype=np.int64)
    b = rng.integers(0, q, size=(64, 4), dtype=np.int64)
    matmul_mod(a[:10], b, q)  # warm up: first-call allocations
    tracemalloc.start()
    try:
        matmul_mod(a, b, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * a.nbytes


@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_sum_mod_never_overflows(q):
    # 10 entries of q - 1 along axis 1: past 2^63 unreduced when q is near 2^61.
    a = np.full((2, 10, 3), q - 1, dtype=np.int64)
    assert sum_mod(a, 1, q).tolist() == [[(10 * (q - 1)) % q] * 3] * 2


# Moduli for the Horner step x * 2^bits mod q of matmul_mod: the largest prime
# at which x * 2^21 still fits int64, the smallest above it, and larger ones
# up to the 61-bit Mersenne prime, where the quotient is estimated (Barrett).
HORNER_MODULI = (4398046511093, 4398046511119, 1152921504606847009, 2305843009213693921, 2**61 - 1)


@pytest.mark.parametrize("q", HORNER_MODULI)
@pytest.mark.parametrize("bits", [1, 16, 21, 31])
def test_mul_pow2_is_exact_at_the_edges(q, bits):
    rng = np.random.default_rng(bits)
    edges = [0, 1, 2, q // 2, q // 2 + 1, q - 2, q - 1, (1 << (q.bit_length() - 1)) - 1]
    x = np.array(edges + rng.integers(0, q, size=200).tolist(), dtype=np.int64)
    assert linalg._mul_pow2(x, bits, q).tolist() == [v * (1 << bits) % q for v in x.tolist()]


def reference_rank(rows: list, q: int) -> int:
    """GF(q) rank of nested lists of residues by Gaussian elimination in Python ints."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# Moduli of the rank-1 update in rank's leaves: tiny fields, the 31-bit
# Mersenne prime, the primes either side of the int64 bound 3,037,000,499
# (plain int64 arithmetic below it; above it a float64 quotient estimate and
# two unsigned-minimum corrections, with no division), 2^32 - 5 and the two
# largest primes below 2^61, 2^61 - 31 and 2^61 - 1.
MUL_MODULI = (2, 3, 2**31 - 1, 3_037_000_493, 3_037_000_507, 4_294_967_291, 2**61 - 31, 2**61 - 1)
# Widest pivot row of a leaf: _LEAF_COLS columns and as many T columns.
WIDEST_ROW = 2 * linalg._LEAF_COLS


@st.composite
def outer_operands(draw, q=None):
    """(q, a, x, row, inv) for _sub_outer, with the edge entries 0, 1, q - 1, 2^31 - 1 and 2^31.

    a is a w x k block as a leaf holds it, transposed: x is a pivot column of
    k entries, row a pivot row of w entries, of one entry or of a leaf's
    widest pivot row. A block a of zeros makes subtracting the largest
    products wrap. q is one of MUL_MODULI unless given.
    """
    if q is None:
        q = draw(st.sampled_from(MUL_MODULI))
    edges = [v for v in (0, 1, q - 1, 2**31 - 1, 2**31) if v < q]
    entry = st.one_of(st.sampled_from(edges), st.integers(0, q - 1))
    k = draw(st.integers(1, 6))
    w = draw(st.one_of(st.sampled_from([1, WIDEST_ROW]), st.integers(1, WIDEST_ROW)))
    entries = lambda n: np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=np.int64)  # noqa: E731
    a = np.zeros((w, k), dtype=np.int64) if draw(st.booleans()) else entries(w * k).reshape(w, k)
    return q, a, entries(k), entries(w), draw(entry)


def largest_products(q):
    """a = 0 against x y = (q - 1)^2 and the other edge products, for every entry."""
    x = np.array([q - 1, 2**31 - 1, 2**31, q - 2, 1, 0], dtype=np.int64)
    return q, np.zeros((WIDEST_ROW, len(x)), dtype=np.int64), x, np.full(WIDEST_ROW, q - 1, dtype=np.int64), 1


def estimate_off_by_one(q, x, y):
    """a = q - 1 against x y, where x y mod q is 1 or q - 1 and the float quotient estimate is one off.

    Found by a search over random x, with y = x^-1 or -x^-1 mod q: x y is then
    just above a multiple of q, where the estimate fell one below the true
    quotient, or just below one, where it rose one above. The estimate was one
    off both with and without a fused multiply-add in its sum. One below, a - P
    + k' q is negative and both corrections run; one above, it is q and the
    second one runs.
    """
    return q, np.full((1, 1), q - 1, dtype=np.int64), np.array([x], dtype=np.int64), np.array([y], dtype=np.int64), 1


@settings(max_examples=300, deadline=None)
@given(outer_operands())
@example(largest_products(2**61 - 1))
@example(largest_products(2**61 - 31))
@example(largest_products(3_037_000_507))
@example(estimate_off_by_one(2**61 - 1, 1_713_579_533_001_729_264, 252_158_239_168_193_325))  # one below
@example(estimate_off_by_one(2**61 - 1, 1_312_494_768_036_884_981, 76_801_796_536_228_096))  # one above
@example(estimate_off_by_one(2**61 - 31, 2_035_441_467_719_029_583, 1_973_731_933_697_246_064))  # one below
@example(estimate_off_by_one(2**61 - 31, 2_065_056_262_729_204_470, 1_444_087_498_065_254_828))  # one above
@example(estimate_off_by_one(3_037_000_507, 2_860_188_161, 1_696_479_279))  # one below
@example(estimate_off_by_one(3_037_000_507, 2_980_532_982, 2_187_996_453))  # one above
def test_sub_outer_matches_python_ints(operands):
    q, a, x, row, inv = operands
    y = [v * inv % q for v in row.tolist()]
    expected = [[(aji - yj * xi) % q for aji, xi in zip(aj, x.tolist())] for aj, yj in zip(a.tolist(), y)]
    got = linalg._sub_outer(a, x, row, inv, q)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert got.tolist() == expected


@pytest.mark.parametrize("q", MUL_MODULI)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sub_outer_updates_its_block_in_place_from_views_of_it(q, data):
    # A leaf passes its pivot column and pivot row as views of the block that
    # _sub_outer writes: a row and a column of the transposed block.
    _, a, _, _, inv = data.draw(outer_operands(q))
    i = data.draw(st.integers(0, a.shape[1] - 1))
    before = a.tolist()
    y = [aj[i] * inv % q for aj in before]
    expected = [[(aji - yj * x0i) % q for aji, x0i in zip(aj, before[0])] for aj, yj in zip(before, y)]
    assert linalg._sub_outer(a, a[0], a[:, i], inv, q) is a
    assert a.tolist() == expected


def test_tall_leaf_works_in_n_plus_min_m_n_columns():
    # With T, a leaf's working array is the block transposed plus min(m, n)
    # rows of T, (n + min(m, n)) x m: 2 a.nbytes for this 600 x 24 block at
    # 2^61 - 1. Its peak was 599,380 bytes, 5.2 a.nbytes (the working array
    # and about three n x m temporaries of one update); an (n + m) x m working
    # array alone would be 26 a.nbytes.
    q = 2**61 - 1
    a = np.random.default_rng(0).integers(0, q, size=(600, 24), dtype=np.int64)
    linalg._eliminate(a[:30], q, True)  # warm up: first-call allocations
    tracemalloc.start()
    try:
        pivot_rows, _, t = linalg._eliminate(a, q, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pivot_rows) == 24 and t.shape == (576, 24)
    assert peak < 8 * a.nbytes


# Moduli on both sides of the int64 bound 3,037,000,499, where the leaves'
# update changes from plain int64 arithmetic to a float64 quotient estimate
# corrected by unsigned minima (3,037,000,507 is the first prime above it,
# where x1 <= 1); rank recurses on column halves, and its leaves hold their
# blocks transposed, at every q.
RANK_MODULI = (2, 3, 5, 2**31 - 1, 3_037_000_507, 4_294_967_291, 2**61 - 1)
LEAF = linalg._LEAF_COLS
# Column counts at the leaf width and at twice it, one either side, plus the
# small and degenerate ones.
RANK_COLS = (0, 1, 2, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF - 1, 2 * LEAF, 2 * LEAF + 1, 3 * LEAF + 2)


@st.composite
def rank_inputs(draw):
    """(q, matrix, leaf width): random, tall, zero, rank-deficient (a product of thin factors), 1 x n, n x 1.

    Leaf widths 1 and 2 make the recursion deep and its leaves one or two columns wide.
    """
    q = draw(st.sampled_from(RANK_MODULI))
    leaf = draw(st.sampled_from([1, 2, LEAF]))
    kind = draw(st.sampled_from(["random", "tall", "zero", "deficient", "row", "column"]))
    cols = draw(st.sampled_from(RANK_COLS))
    rows = draw(st.integers(0, 3 * LEAF + 2))  # tall, square and wide
    if kind == "tall":  # rows outside the pivots, so T has rows
        rows = cols + draw(st.integers(1, LEAF))
    elif kind == "row":
        rows = 1
    elif kind == "column":
        rows, cols = cols, 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = lambda r, c: rng.integers(0, q, size=(r, c), dtype=np.int64)  # noqa: E731
    if kind == "zero":
        return q, np.zeros((rows, cols), dtype=np.int64), leaf
    if kind == "deficient":
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        return q, matmul_mod(entries(rows, inner), entries(inner, cols), q), leaf
    return q, entries(rows, cols), leaf


@settings(max_examples=500, deadline=None)
@given(rank_inputs())
def test_rank_matches_python_int_elimination(inputs):
    q, a, leaf = inputs
    expected = reference_rank(a.tolist(), q)
    with mock.patch.object(linalg, "_LEAF_COLS", leaf):
        assert rank(from_array(q, a)) == expected
        if a.shape[0]:
            # The pivots and T: A[R, C] is invertible and A[N] = T A[R].
            pivot_rows, pivot_cols, t = linalg._echelon(a, q, True)
    if a.shape[0]:
        assert len(pivot_rows) == len(pivot_cols) == expected
        assert reference_rank(a[np.ix_(pivot_rows, pivot_cols)].tolist(), q) == expected
        others = np.delete(np.arange(a.shape[0]), pivot_rows)
        assert np.array_equal(matmul_mod(t, a[pivot_rows], q), a[others])


# Moduli for the draw kernel: tiny fields, the 31-bit Mersenne prime, the two
# primes next to 2^31 and 2^32 at which Lemire's rule rejects about half of
# all 32-bit words (2,147,483,659) or crosses to 64-bit words (4,294,967,311),
# and the 61-bit Mersenne prime.
DRAW_MODULI = (2, 3, 5, 7, 11, 2**31 - 1, 2_147_483_659, 4_294_967_291, 4_294_967_311, 2**61 - 1)
# rows x cols of 0, 1, odd, even and 249 entries.
DRAW_SHAPES = ((0, 3), (1, 1), (3, 5), (2, 4), (83, 3))
# A seed part as _flatten_seed sees it: 0, negative (masked to 64 bits, two
# words), one word, two words.
SEED_PARTS = st.one_of(
    st.just(0), st.integers(-(2**63), -1), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1)
)


def numpy_draw(rows, cols, q, seed) -> np.ndarray:
    """What numpy's own generator draws for the seed: the stream PRNG_ID names."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(linalg._flatten_seed(seed))))
    return gen.integers(0, q, size=(rows, cols), dtype=np.uint64).astype(np.int64)


@st.composite
def draw_calls(draw):
    """(q, rows, cols, parts per seed, seeds): up to 5 seeds of the same number of parts, nested or flat."""
    q = draw(st.sampled_from(DRAW_MODULI))
    rows, cols = draw(st.sampled_from(DRAW_SHAPES))
    n_parts = draw(st.integers(1, 7))
    seeds = []
    for parts in draw(st.lists(st.lists(SEED_PARTS, min_size=n_parts, max_size=n_parts), max_size=5)):
        split = draw(st.integers(0, n_parts))  # nest the parts from here on
        seeds.append(parts[0] if n_parts == 1 and split else (*parts[:split], tuple(parts[split:])))
    return q, rows, cols, n_parts, seeds


@settings(max_examples=300, deadline=None)
@given(draw_calls())
def test_random_mats_is_numpy_pcg64_bit_for_bit(call):
    q, rows, cols, n_parts, seeds = call
    flat = np.array([linalg._flatten_seed(s) for s in seeds], dtype=np.uint64).reshape(len(seeds), n_parts)
    got = linalg.random_mats(rows, cols, q, flat)
    assert got.shape == (len(seeds), rows, cols) and got.dtype == np.int64
    for seed, mat in zip(seeds, got):
        assert np.array_equal(mat, numpy_draw(rows, cols, q, seed))


@pytest.mark.parametrize("q", [3, 2_147_483_659, 4_294_967_311])
def test_random_mats_streams_continue_past_a_pass(q, monkeypatch):
    # Passes of one or three outputs over one or five streams: every stream
    # runs short and continues from its own state, as numpy's would.
    seeds = [(7, -1, i) for i in range(9)]
    flat = np.array([linalg._flatten_seed(s) for s in seeds], dtype=np.uint64)
    for max_steps, chunk in ((1, 1), (3, 5)):
        monkeypatch.setattr(linalg, "_MAX_STEPS", max_steps)
        monkeypatch.setattr(linalg, "_CHUNK", chunk)
        got = linalg.random_mats(10, 25, q, flat)
        assert all(np.array_equal(m, numpy_draw(10, 25, q, s)) for s, m in zip(seeds, got))


def test_random_mats_of_no_streams_and_seed_rows():
    assert one_draw(2, 3, GF5, (1, (2, 3))).shape == (2, 3)
    assert linalg.random_mats(3, 2, GF5, np.empty((0, 4), np.uint64)).shape == (0, 3, 2)
    with pytest.raises(DimensionMismatch):
        linalg.random_mats(3, 2, GF5, [1, 2])
    # seed_rows stacks (head, *tail): heads outside, tails inside.
    rows = linalg.seed_rows((-1, (2,)), [[0, 1], [5, 6]])
    assert rows.tolist() == [[2**64 - 1, 2, 0, 1], [2**64 - 1, 2, 5, 6]]
    assert linalg.seed_rows(rows, [[9]]).tolist() == [r + [9] for r in rows.tolist()]
    assert linalg.seed_rows(3, np.empty((0, 1), np.int64)).shape == (0, 2)


def test_sample_zero_sum_scheme_memory_peak():
    # The draws are chunked, so an attempt's peak stays under two encoding
    # matrices (one for E, about half of one for the drawn blocks).
    cfg = ProblemConfig(3, 3, 6, BIG)
    sample_zero_sum_scheme(cfg, 0)  # warm up: import-time and first-call allocations
    tracemalloc.start()
    try:
        s = sample_zero_sum_scheme(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * s.encoding.nbytes
