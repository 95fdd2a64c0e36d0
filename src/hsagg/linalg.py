"""GF(q) linear algebra on int64 arrays: exact products and sums, rank, seeded random draws.

Residues are int64 arrays at every modulus up to 2^61 - 1, and every result
here is exact. The matrix product matmul_mod and the residue sums sum_mod work
at every such q. rank is row elimination with plain int64 products while a
product of two residues fits int64, that is up to q = 3,037,000,499. Above
that it is the recursive elimination of Jeannerod, Pernet and Storjohann
(J. Symbolic Comput. 2013): split the columns in half, eliminate the left
half, update the right half by one matmul_mod product (its Schur complement)
and recurse on it. Blocks at most _LEAF_COLS columns wide are eliminated row
by row, with matmul_mod outer products as the updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from .gf import FieldSpec, f_pow

# Largest modulus for which (q-1)^2 fits comfortably in int64.
_INT64_SAFE_MODULUS = 3_037_000_499
_INT64_MAX = (1 << 63) - 1

# Widest block that rank eliminates row by row above _INT64_SAFE_MODULUS.
_LEAF_COLS = 8

# Identifier of the pseudo-random generator recorded in serialized schemes.
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
    a = np.moveaxis(a, axis, 0)
    step = max(1, _INT64_MAX // (q - 1) - 1)
    acc = np.zeros(a.shape[1:], dtype=np.int64)
    for i in range(0, a.shape[0], step):
        acc = (acc + a[i : i + step].sum(axis=0)) % q
    return acc


def _dot_mod(pairs: Iterable[tuple[np.ndarray, np.ndarray]], shape, bound: int, q: int) -> np.ndarray:
    """(sum of x @ y over the pairs) mod q, where every product of two entries is <= bound.

    Products are added unreduced for as long as the running sum provably fits
    int64, and reduced only then (delayed reduction); a long inner dimension
    is cut into chunks for the same reason.
    """
    budget = (_INT64_MAX - q) // bound  # product terms that fit on top of a reduced sum
    acc = np.zeros(shape, dtype=np.int64)
    used = 0
    for x, y in pairs:
        for t in range(0, x.shape[1], budget):
            terms = min(budget, x.shape[1] - t)
            if used + terms > budget:
                acc %= q
                used = 0
            acc += x[:, t : t + terms] @ y[t : t + terms]
            used += terms
    return acc % q


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

    The operands are split into base-2^w digits (limbs), so that a product of
    limbs fits int64 with room for a long sum: up to q = 3,037,000,499 only
    `b` is split, into 16-bit halves (a residue times a half is below 2^48);
    above that both are split into 21-bit limbs (a limb product is below
    2^42). The limb products of one weight 2^(w*s) are summed with delayed
    reduction, and the weights are folded in by Horner's rule, as in
    FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 2008). Limbs of `a` are
    made one at a time, so `a` may be the large operand. The result is an
    int64 array of residues.
    """
    split_a = q > _INT64_SAFE_MODULUS
    width = 21 if split_a else 16
    mask = (1 << width) - 1
    n_b = -(-(q - 1).bit_length() // width)
    n_a = n_b if split_a else 1
    b_limbs = [(b >> (width * j)) & mask for j in range(n_b)]
    bound = (mask if split_a else q - 1) * min(q - 1, mask)

    def a_limb(i: int) -> np.ndarray:
        if not split_a:
            return a
        limb = a >> (width * i)
        limb &= mask
        return limb

    def pairs(s: int):
        for i in range(max(0, s - n_b + 1), min(n_a, s + 1)):
            yield a_limb(i), b_limbs[s - i]

    acc = None
    for s in reversed(range(n_a + n_b - 1)):
        part = _dot_mod(pairs(s), (a.shape[0], b.shape[1]), bound, q)
        acc = part if acc is None else (_mul_pow2(acc, width, q) + part) % q
    return acc


def _eliminate(a: np.ndarray, q: int, need_t: bool):
    """Pivot rows R, pivot columns C and (if need_t) T of a block, by row elimination.

    As in plain Gaussian elimination, a column's pivot is the first row below
    the earlier pivots that is nonzero there once they are eliminated, and it
    is swapped up to just below them. A[R, C] is invertible, and
    A[N] = T A[R] for the other rows N in increasing order:
    T = A[N, C] A[R, C]^-1. T is tracked in extra columns of the working
    array: a new pivot row gets -1 in its own T column, so that eliminating
    with it leaves each row's multiplier there. Up to _INT64_SAFE_MODULUS the
    products are plain int64, above it matmul_mod outer products.
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
        inv = pow(int(work[r, c]), -1, q)
        if rows.size and q <= _INT64_SAFE_MODULUS:
            update = work[rows, c : c + 1] * (work[r, c:end] * inv % q)
            work[rows, c:end] = (work[rows, c:end] - update) % q
        elif rows.size:
            pivot = np.array([[x * inv % q for x in work[r, c:end].tolist()]], dtype=np.int64)
            work[rows, c:end] = (work[rows, c:end] - matmul_mod(work[rows, c : c + 1], pivot, q)) % q
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    t = None
    if need_t:
        rest = np.argsort(order[r:])
        t = work[r:, n : n + r][rest]
    return order[:r], np.array(pivot_cols, dtype=np.int64), t


def _echelon(a: np.ndarray, q: int, need_t: bool):
    """(R, C, T) of a as _eliminate defines them; recursive on column halves above the int64 bound.

    The left half gives R1, C1, T1. Its rows N1 outside R1, minus T1 times
    R1's rows, are the Schur complement of the right half, which gives R2,
    C2, T2 over N1. A row of N1 outside R2 is then T2 on R2's rows plus
    T1_N - T2 T1_R2 on R1's: one more matmul_mod, made only when T is needed.
    """
    m, n = a.shape
    if q <= _INT64_SAFE_MODULUS or n <= _LEAF_COLS or m == 0:
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
    """GF(q) rank: the number of pivots that _echelon finds.

    Up to q = 3,037,000,499 that is one row elimination of the whole matrix;
    the rank does not depend on the pivot order.
    """
    return len(_echelon(m.array, m.field.modulus, False)[0])


def vandermonde_block(field: FieldSpec, bases: Sequence[int], start_exp: int, rows: int) -> np.ndarray:
    """int64 rows x len(bases) residues with entry (r, c) = bases[c]^(start_exp + r)."""
    if rows < 1:
        raise DimensionMismatch("rows must be >= 1")
    powers = [[f_pow(field, b, start_exp + r) for b in bases] for r in range(rows)]
    return np.array(powers, dtype=np.int64)


def _flatten_seed(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        out: tuple[int, ...] = ()
        for part in seed:
            out += _flatten_seed(part)
        return out
    return (int(seed) & 0xFFFFFFFFFFFFFFFF,)  # SeedSequence wants non-negative words


def random_mat(rows: int, cols: int, field: FieldSpec, seed) -> np.ndarray:
    """Uniform random rows x cols int64 residues, deterministic in the seed.

    The seed may be an int or a (nested) tuple of ints; it seeds a PCG64
    generator through SeedSequence. numpy's Generator.integers draws bounded
    integers by rejection (Lemire), so entries are exactly uniform on [0, q-1].
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_flatten_seed(seed))))
    return gen.integers(0, field.modulus, size=(rows, cols), dtype=np.uint64).astype(np.int64)
