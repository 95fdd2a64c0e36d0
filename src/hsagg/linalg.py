"""GF(q) linear algebra on int64 arrays: exact products and sums, rank, seeded random draws.

Residues are int64 arrays at every modulus up to 2^61 - 1, and every result
here is exact. The matrix product matmul_mod and the residue sums sum_mod work
at every such q. matmul_mod runs on float64 BLAS: it splits its operands into
limbs of 16 bits (q <= 2^32) or 21 bits (above), and sums limb products over
inner chunks of at most (2^53 - 1) // m^2 terms, m the largest limb, so that
every partial sum is an integer below 2^53 and the product is exact in any
summation order. rank is, at every q, the recursive elimination of Jeannerod,
Pernet and Storjohann (J. Symbolic Comput. 2013): split the columns in half,
eliminate the left half, update the right half by one matmul_mod product (its
Schur complement) and recurse on it. Blocks at most _LEAF_COLS columns wide
are eliminated row by row; their rank-1 updates are exact elementwise
products, plain int64 ones up to q = 3,037,000,499 and of 31-bit halves above.

Seeded draws come from one kernel, random_mats, that reproduces numpy's
Generator(PCG64(SeedSequence(seed))).integers(0, q, ...) bit for bit for many
seeds at once, in four stages of uint32/uint64 array operations: the seeds'
entropy words, SeedSequence's hash into PCG64's state and increment, a jump
of every stream to all the states it needs (PCG64 is an LCG, O'Neill 2014),
and Lemire's bounded rejection (ACM TOMACS 2019). PRNG_ID = "numpy-pcg64"
names exactly this stream; a property test pins it against numpy, which is
not used for draws here. Seeded keys are for simulation only: a deployment
needs keys from the operating system's entropy source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .gf import FieldSpec

# Largest modulus for which (q-1)^2 fits comfortably in int64.
_INT64_SAFE_MODULUS = 3_037_000_499
_INT64_MAX = (1 << 63) - 1
# Every integer up to this is a float64.
_FLOAT64_EXACT = (1 << 53) - 1
# Most entries of a row block of matmul_mod's left operand plus its weight
# sums (2^15 int64 or float64 entries are 256 KB): a block's temporaries, and
# the panels that BLAS packs from them, stay small whatever the operands' size.
_BLOCK_ENTRIES = 1 << 15

# Widest block that rank eliminates row by row; wider ones recurse on column halves.
_LEAF_COLS = 24

# Identifier of the pseudo-random stream recorded in serialized schemes:
# numpy's PCG64 seeded by SeedSequence, bounded by Generator.integers.
PRNG_ID = "numpy-pcg64"


class DimensionMismatch(ValueError):
    """Raised when operand shapes or fields are incompatible."""


@dataclass(frozen=True, eq=False)
class Mat:
    """An immutable rows x cols int64 matrix of residues over GF(q)."""

    field: FieldSpec
    array: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        a = self.array
        if a.ndim != 2 or a.dtype != np.int64:
            raise DimensionMismatch("a Mat is a 2-dimensional int64 array")
        a.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def from_array(field: FieldSpec, a: np.ndarray) -> Mat:
    """A Mat over the field from an int64 array of residues.

    The array is made row-major: rank eliminates row by row, which is slower
    on the column-major arrays that numpy's column gathers return.
    """
    return Mat(field, np.ascontiguousarray(a))


def sum_mod(a: np.ndarray, axis: int, q: int) -> np.ndarray:
    """Sum of an int64 array of residues along one axis, mod q.

    Partial sums are reduced often enough that int64 never overflows, even
    for q close to 2^61.
    """
    step = max(1, _INT64_MAX // (q - 1) - 1)
    index = [slice(None)] * a.ndim

    def part(i: int) -> np.ndarray:
        index[axis] = slice(i, i + step)
        return a[tuple(index)].sum(axis=axis)

    acc = part(0) % q
    for i in range(step, a.shape[axis], step):
        acc += part(i)
        acc %= q
    return acc


def _mul_pow2(x: np.ndarray, bits: int, q: int) -> np.ndarray:
    """x * 2^bits mod q for an int64 array of residues, exactly, for bits <= 31.

    If x * 2^bits fits int64 this is one shift and one reduction. Otherwise
    Barrett's method estimates the quotient from the top bits of x: with
    B = bitlen(q), a = B + bits - 63 and mu = 2^(B+bits) // q, the estimate
    ((x >> a) * mu) >> (63 - bits) is below 2^63 and at most 2 below the true
    quotient (the two truncations each lose less than 1, since bits <= 31).
    x * 2^bits minus the estimate times q, in wrapping uint64 arithmetic, is
    then the remainder plus at most 2q, and 3q < 2^63 for q < 2^61.
    """
    if bits + (q - 1).bit_length() <= 63:
        return (x << bits) % q
    top = q.bit_length() + bits
    mu = np.uint64((1 << top) // q)
    u = x.view(np.uint64)
    quot = ((u >> np.uint64(top - 63)) * mu) >> np.uint64(63 - bits)
    r = (u << np.uint64(bits)) - quot * np.uint64(q)
    for _ in range(2):
        r = np.minimum(r, r - np.uint64(q))  # r - q wraps past r when r < q
    return r.view(np.int64)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for int64 arrays of residues, for every prime q <= 2^61 - 1.

    The technique of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 2008) on
    float64 BLAS. Both operands are split into n non-negative base-2^w digits
    (limbs), w = 16 up to q = 2^32 and 21 above, one limb when q - 1 has at
    most w bits. A limb is at most m = min(q - 1, 2^w - 1), so a float64
    product of limbs over an inner chunk of at most (2^53 - 1) // m^2 terms
    sums integers to an integer below 2^53: every partial sum is exact, and
    so is the result, in any summation order, with FMA and at any BLAS thread
    count. Each chunk's product is converted to int64, the products of one
    weight 2^(w s) are summed, and the weights are folded in by Horner's rule
    from the top.

    `a` is taken in blocks of rows, so that a block's temporaries stay a few
    hundred KB whatever the operands' size. Limb i of a block is made just
    before weight i + n - 1 is folded, and its product with limb j of `b` is
    added to weight i + j; so one limb of `a` exists at a time, and n weight
    sums are pending. The result is an int64 array of residues.
    """
    width = 16 if q <= 1 << 32 else 21
    mask = (1 << width) - 1
    n = -(-(q - 1).bit_length() // width)
    chunk = _FLOAT64_EXACT // min(q - 1, mask) ** 2
    inner, cols = b.shape
    b_limbs = np.empty((n, inner, cols))
    for j in range(n):
        b_limbs[j] = (b >> (width * j)) & mask
    out = np.empty((a.shape[0], cols), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // (min(inner, chunk) + n * cols + 1))
    for r in range(0, a.shape[0], step):
        block = a[r : r + step]
        weights = np.zeros((n, len(block), cols), dtype=np.int64)  # the sum of weight s in weights[s % n]
        acc = np.zeros((len(block), cols), dtype=np.int64)
        for s in reversed(range(2 * n - 1)):
            if s >= n - 1:  # limb i of the block, whose highest weight is s
                i = s - n + 1
                for t in range(0, inner, chunk):
                    limb = block[:, t : t + chunk] >> (width * i)
                    limb &= mask
                    limb = limb.astype(np.float64)
                    for j in range(n):
                        weights[(i + j) % n] += (limb @ b_limbs[j, t : t + chunk]).astype(np.int64)
                    if inner > chunk:
                        weights %= q
            if s < 2 * n - 2:
                acc = _mul_pow2(acc, width, q)
            acc += weights[s % n]
            acc %= q
            weights[s % n] = 0
        out[r : r + step] = acc
    return out


def _mul_mod(x: np.ndarray, y: np.ndarray | int, q: int) -> np.ndarray:
    """Elementwise x * y up to a multiple of q, in [0, 2^63 - q], for int64 residues that broadcast.

    So a caller can subtract it from a residue and reduce once. Up to
    q = 3,037,000,499 it is the plain int64 product. Above, x = x1 2^31 + x0
    and y likewise, the four half products are below 2^62, and Horner's rule
    ((x1 y1 mod q) 2^31 + x1 y0 + x0 y1 mod q) 2^31 + x0 y0 folds them in.
    """
    if q <= _INT64_SAFE_MODULUS:
        return x * y
    x1, x0, y1, y0 = x >> 31, x & 0x7FFFFFFF, y >> 31, y & 0x7FFFFFFF
    acc = _mul_pow2(x1 * y1 % q, 31, q)
    acc += x1 * y0 + x0 * y1
    acc %= q
    return _mul_pow2(acc, 31, q) + x0 * y0


def _eliminate(a: np.ndarray, q: int, need_t: bool):
    """Pivot rows R, pivot columns C and (if need_t) T of a block, by row elimination.

    As in plain Gaussian elimination, a column's pivot is the first row below
    the earlier pivots that is nonzero there once they are eliminated, and it
    is swapped up to just below them. A[R, C] is invertible, and
    A[N] = T A[R] for the other rows N in increasing order:
    T = A[N, C] A[R, C]^-1. T is tracked in extra columns of the working
    array: a new pivot row gets -1 in its own T column, so that eliminating
    with it leaves each row's multiplier there. The scaled pivot row and the
    rank-1 update are _mul_mod products, reduced once each.
    """
    m, n = a.shape
    work = np.zeros((m, 2 * n if need_t else n), dtype=np.int64)
    work[:, :n] = a
    order = np.arange(m)  # order[i]: the row of a now in row i of work
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        nonzero = np.nonzero(work[r:, c])[0]
        if nonzero.size == 0:
            continue
        if nonzero[0]:
            i = r + nonzero[0]
            work[[r, i]] = work[[i, r]]
            order[[r, i]] = order[[i, r]]
        rows = r + nonzero[1:]
        end = n + r + 1 if need_t else n
        if need_t:
            work[r, end - 1] = q - 1
        if rows.size:
            pivot = _mul_mod(work[r, c:end], pow(int(work[r, c]), -1, q), q) % q
            work[rows, c:end] = (work[rows, c:end] - _mul_mod(work[rows, c : c + 1], pivot, q)) % q
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    t = work[r:, n : n + r][np.argsort(order[r:])] if need_t else None
    return order[:r], np.array(pivot_cols, dtype=np.int64), t


def _echelon(a: np.ndarray, q: int, need_t: bool):
    """(R, C, T) of a as _eliminate defines them; recursive on column halves wider than _LEAF_COLS.

    The left half gives R1, C1, T1. Its rows N1 outside R1, minus T1 times
    R1's rows, are the Schur complement of the right half, which gives R2,
    C2, T2 over N1. A row of N1 outside R2 is then T2 on R2's rows plus
    T1_N - T2 T1_R2 on R1's: one more matmul_mod, made only when T is needed.
    """
    m, n = a.shape
    if n <= _LEAF_COLS or m == 0:
        return _eliminate(a, q, need_t)
    h = n // 2
    r1, c1, t1 = _echelon(a[:, :h], q, True)
    n1 = np.delete(np.arange(m), r1)
    schur = (a[n1, h:] - matmul_mod(t1, a[r1, h:], q)) % q
    r2, c2, t2 = _echelon(schur, q, need_t)
    pivot_rows, pivot_cols = np.concatenate([r1, n1[r2]]), np.concatenate([c1, h + c2])
    if not need_t:
        return pivot_rows, pivot_cols, None
    t1_n = t1[np.delete(np.arange(n1.size), r2)]
    return pivot_rows, pivot_cols, np.hstack([(t1_n - matmul_mod(t2, t1[r2], q)) % q, t2])


def rank(m: Mat) -> int:
    """GF(q) rank: the number of pivots that _echelon finds; it does not depend on the pivot order."""
    return len(_echelon(m.array, m.field.modulus, False)[0])


def vandermonde_block(field: FieldSpec, bases: Sequence[int], start_exp: int, rows: int) -> np.ndarray:
    """int64 rows x len(bases) residues with entry (r, c) = bases[c]^(start_exp + r)."""
    if rows < 1:
        raise DimensionMismatch("rows must be >= 1")
    powers = [[pow(b, start_exp + r, field.modulus) for b in bases] for r in range(rows)]
    return np.array(powers, dtype=np.int64)


def _flatten_seed(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        out: tuple[int, ...] = ()
        for part in seed:
            out += _flatten_seed(part)
        return out
    return (int(seed) & 0xFFFFFFFFFFFFFFFF,)  # SeedSequence wants non-negative words


def seed_rows(heads, tails) -> np.ndarray:
    """The flattened seeds (head, *tail) for every head and, inside it, every tail, one per row.

    heads is a seed (an int or a nested tuple of ints) or a 2-D array of
    flattened seeds, one per row; tails is a 2-D array of non-negative ints.
    The result is the uint64 array that random_mats takes.
    """
    if not isinstance(heads, np.ndarray):
        heads = np.array([_flatten_seed(heads)], dtype=np.uint64)
    tails = np.asarray(tails, dtype=np.uint64)
    k = heads.shape[1]
    out = np.empty((len(heads), len(tails), k + tails.shape[1]), dtype=np.uint64)
    out[:, :, :k] = heads[:, None]
    out[:, :, k:] = tails
    return out.reshape(-1, out.shape[2])


# Shift counts, masks and multipliers as 0-d arrays: numpy applies an
# operation to an array and a 0-d array of its dtype faster than to a Python
# int or a numpy scalar, and a small draw is mostly such operations.
_ONE, _S32, _S58, _S63, _S64, _M32 = (np.array(c, np.uint64) for c in (1, 32, 58, 63, 64, 0xFFFFFFFF))
_S16 = np.array(16, np.uint32)

# SeedSequence, as numpy implements O'Neill's seed_seq_fe: a pool of 4 uint32
# words and the constants of its hash and mix functions.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)


def _hash_consts(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, mul) constants of the given hash calls: init * mult^k and init * mult^(k+1) mod 2^32."""
    k = np.asarray(calls)
    xor = np.array([init * pow(mult, int(e), 1 << 32) % (1 << 32) for e in k.flat], np.uint32).reshape(k.shape)
    return xor, xor * np.uint32(mult)


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    h = np.bitwise_xor(x, xor, order="C")  # C order, also for a transposed x
    h *= mul
    h ^= h >> _S16
    return h


# Hash calls 0-3 fill the pool. Calls 4-15 mix it: in round i, source word i
# hashes once for each other word j, in increasing j (row i of the round's
# constants is a dummy, since word i keeps its value). Calls 16 on hash the
# words past the pool, 4 each. generate_state hashes the pool twice round
# into 8 words.
_FILL = _hash_consts(_INIT_A, _MULT_A, np.arange(_POOL)[:, None])
_MIX = [
    (i, *_hash_consts(_INIT_A, _MULT_A, [[_POOL + 3 * i + j - (j > i)] for j in range(_POOL)]))
    for i in range(_POOL)
]
_STATE = _hash_consts(_INIT_B, _MULT_B, np.arange(2 * _POOL).reshape(2, _POOL))


def _seed_states(words: np.ndarray):
    """The PCG64 streams of SeedSequences, from their entropy words (a W x n uint32 array, W >= 4).

    SeedSequence hashes the words into its pool and the pool into 4 uint64
    words w0..w3; PCG64 seeds itself with initstate = w0 2^64 + w1 and
    inc = 2 (w2 2^64 + w3) + 1: one step from state 0, initstate added, one
    more step. So its state is one step after t = initstate + inc. Returns
    a 2 x 2 x n x 1 uint64 array: the lo words of (t, inc), then their hi
    words.
    """
    pool = _hashmix(words[:_POOL], *_FILL)
    mixed, h = np.empty_like(pool), np.empty_like(pool)
    for i, xor, mul in _MIX:
        source = pool[i]
        np.multiply(pool, _MIX_L, out=mixed)
        np.bitwise_xor(source, xor, out=h)
        h *= mul
        h ^= h >> _S16
        h *= _MIX_R
        mixed -= h
        mixed ^= mixed >> _S16
        mixed[i] = source
        pool, mixed = mixed, pool
    for j in range(_POOL, len(words)):
        h = _hashmix(words[j], *_hash_consts(_INIT_A, _MULT_A, _POOL * j + np.arange(_POOL)[:, None]))
        h *= _MIX_R
        pool *= _MIX_L
        pool -= h
        pool ^= pool >> _S16
    # The 8 state words of a stream, pool words 0-3 twice, are consecutive,
    # so pairs of them read as little-endian uint64 are w0..w3.
    w = _hashmix(pool.T[:, None], *_STATE).astype("<u4", copy=False).view("<u8").reshape(-1, _POOL)
    y = np.empty((2, 2, len(w), 1), dtype=np.uint64)  # [lo, hi] words of [t, inc]
    lo, hi = y[:, :, :, 0]
    np.left_shift(w[:, 3], _ONE, out=lo[1])
    lo[1] |= _ONE
    np.right_shift(w[:, 3], _S63, out=hi[1])
    hi[1] |= w[:, 2] << _ONE
    np.add(w[:, 1], lo[1], out=lo[0])
    np.add(w[:, 0], hi[1], out=hi[0])
    hi[0] += lo[0] < lo[1]
    return y


# PCG64 is the LCG s -> M s + inc mod 2^128. j steps take s to A_j s + B_j inc
# with A_j = M^j and B_j = 1 + M + ... + M^(j-1). The tables hold, for
# j = 0 .. _MAX_STEPS + 1, the lo words of A_j and B_j (rows 0 and 1), their
# 32-bit halves, and their hi words.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MAX_STEPS = 256  # most outputs one pass draws per stream
_CHUNK = 1 << 13  # most outputs one pass draws in all


def _jump_table(steps: int) -> tuple[np.ndarray, ...]:
    rows, a, b = [], 1, 0
    for _ in range(steps + 1):
        rows.append((a, b))
        a, b = a * _PCG_MULT % (1 << 128), (b * _PCG_MULT + 1) % (1 << 128)
    lo = np.array([[x & 0xFFFFFFFFFFFFFFFF for x in ab] for ab in rows], dtype=np.uint64).T[:, None]
    hi = np.array([[x >> 64 for x in ab] for ab in rows], dtype=np.uint64).T[:, None]
    return lo, lo & _M32, lo >> _S32, hi


_LO, _LO0, _LO1, _HI = _jump_table(_MAX_STEPS + 1)


def _mulhi(x0, x1, y0, y1) -> np.ndarray:
    """The high 64 bits of (x1 2^32 + x0)(y1 2^32 + y0), from uint64 arrays of 32-bit halves."""
    t = x0 * y0
    t >>= _S32
    t += x1 * y0
    w = t & _M32
    w += x0 * y1
    t >>= _S32
    w >>= _S32
    hi = x1 * y1
    hi += t
    hi += w
    return hi


def _jump(y: np.ndarray, steps: slice):
    """The states A_j t + B_j inc mod 2^128, j in steps, as (hi, lo): one row per stream, one column per j.

    y holds the words of (t, inc) as _seed_states returns them.
    """
    lo, hi = y
    a = _LO[..., steps]
    p = a * lo
    out_lo = p[0] + p[1]
    h = _mulhi(_LO0[..., steps], _LO1[..., steps], lo & _M32, lo >> _S32)
    h += _HI[..., steps] * lo
    h += a * hi
    out_hi = h[0] + h[1]
    out_hi += out_lo < p[1]
    return out_hi, out_lo


def _draw(flat: np.ndarray, start: np.ndarray, words: np.ndarray, q: int, size: int, steps: int) -> None:
    """Write size values in [0, q) of each stream to flat[start .. start + size - 1].

    The streams are those of the SeedSequences with the given entropy words
    (one column each). A pass jumps every stream to `steps` consecutive
    states, turns each into its XSL-RR output and bounds the outputs by
    Lemire's rule; rejected and surplus values go to the last entry of flat.
    A stream still short of values moves on to its last state and continues
    there.
    """
    wide, threshold, q_word = q > 1 << 32, _threshold(q), np.array(q, np.uint64)
    y = _seed_states(words)
    need = np.full(len(start), size)
    while True:
        s_hi, s_lo = _jump(y, slice(2, steps + 2))
        rot = s_hi >> _S58
        s_lo ^= s_hi
        x = s_lo >> rot
        np.subtract(_S64, rot, out=rot)
        x |= s_lo << rot  # numpy shifts by 64 to 0, so a rotation by 0 holds
        if wide:
            accept = x * q_word >= threshold
            value = _mulhi(x & _M32, x >> _S32, q_word & _M32, q_word >> _S32)
        else:  # two 32-bit words per output, the low one first
            value = np.multiply(x.astype("<u8", copy=False).view("<u4"), q_word, dtype=np.uint64)
            accept = value.astype("<u8", copy=False).view("<u4")[:, 0::2] >= threshold
            value >>= _S32
        rank = np.cumsum(accept, axis=1)
        keep = rank <= need[:, None]
        keep &= accept
        got = rank[:, -1]
        short = got < need
        flat[np.where(keep, rank + (start - 1)[:, None], -1)] = value
        if not short.any():
            return
        start, need, y = start[short] + got[short], need[short] - got[short], y[:, :, short]
        y[1, 0], y[0, 0] = _jump(y, slice(steps, steps + 1))
        steps = _steps(int(need.max()), q)


def _threshold(q: int) -> int:
    """Lemire's rejection threshold (2^b - q) mod q, for the b = 32 or 64 bit words that numpy bounds by q."""
    return ((1 << 64 if q > 1 << 32 else 1 << 32) - q) % q


def _steps(size: int, q: int) -> int:
    """Outputs per stream that one pass draws for `size` values.

    It leaves room for the expected number of rejected words and 4 of their
    standard deviations, so a second pass is rare even where half the words
    are rejected.
    """
    space, threshold = 1 << 64 if q > 1 << 32 else 1 << 32, _threshold(q)
    expected = size * threshold // (space - threshold)
    words = size + expected + 4 * math.isqrt(expected)
    return min(_MAX_STEPS, words if q > 1 << 32 else -(-words // 2))


def _word_groups(pairs: np.ndarray):
    """(rows, word index) for each word-count pattern of the seeds whose parts' lo and hi words are pairs.

    A part is its lo word if its hi word is 0, both words otherwise; the
    word index lists a group's words in pairs' columns.
    """
    two = pairs[:, 1::2] != 0
    rows = np.arange(len(pairs))
    while len(rows):
        mine = (two == two[0]).all(axis=1)
        index = [w for p, t in enumerate(two[0].tolist()) for w in (2 * p, 2 * p + 1)[: 1 + t]]
        if mine.all():
            yield rows, index
            return
        yield rows[mine], index
        rows, two = rows[~mine], two[~mine]


def random_mats(rows: int, cols: int, field: FieldSpec, seeds) -> np.ndarray:
    """Uniform random rows x cols int64 residues for each seed: an (n, rows, cols) array.

    seeds is an (n, k) array of flattened seeds (see seed_rows), each part
    a non-negative int below 2^64. Matrix i is bit for bit what numpy's
    Generator(PCG64(SeedSequence(seeds[i]))).integers(0, q, (rows, cols),
    dtype=np.uint64) returns, the stream that PRNG_ID names, but all streams
    are drawn at once by a fixed number of uint32/uint64 array operations:

    - entropy words: each part of a seed is one little-endian uint32 word if
      it is below 2^32 (0 included), two otherwise. Seeds are grouped by
      this word-count pattern, so that a group's words line up;
    - SeedSequence (O'Neill's seed_seq_fe) hashes a seed's words into a pool
      of 4 words and the pool into the 4 uint64 words that seed PCG64;
    - PCG64 (O'Neill, "PCG", HMC-CS-2014-0905, 2014) is an LCG with an
      XSL-RR output, so its k-th state is one jump A_k s + B_k inc from the
      seeded state, with A_k and B_k precomputed: no loop over outputs;
    - Lemire's rule (ACM TOMACS 2019) bounds the outputs. For q <= 2^32 each
      output gives two 32-bit words w, low one first; w is accepted iff
      (w q mod 2^32) >= (2^32 - q) mod q, and gives (w q) >> 32. Above 2^32
      the same holds for 64-bit words. Rejected words are used up, so a
      stream short of values continues from its own state.

    Streams are drawn in chunks of at most _CHUNK outputs, so the memory
    beyond the result stays bounded. Entries are exactly uniform on [0, q-1].
    """
    q, size = field.modulus, rows * cols
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    if seeds.ndim != 2:
        raise DimensionMismatch("seeds must be a 2-dimensional array, one flattened seed per row")
    flat = np.empty(len(seeds) * size + 1, dtype=np.int64)  # the last entry takes what is thrown away
    if size:
        steps = _steps(size, q)
        per_pass = max(1, _CHUNK // steps)
        pairs = seeds.astype("<u8", copy=False).view("<u4")
        zero = pairs.shape[1]  # a column of 0 words: they fill up the pool of a seed of under 4 words
        pairs = np.hstack([pairs, np.zeros((len(pairs), 1), np.uint32)])
        for group, index in _word_groups(pairs[:, :zero]):
            index = np.array(index + [zero] * (_POOL - len(index)), dtype=np.intp)[:, None]
            for i in range(0, len(group), per_pass):
                chunk = group[i : i + per_pass]
                _draw(flat, chunk * size, pairs[chunk, index], q, size, steps)
    return flat[:-1].reshape(len(seeds), rows, cols)
