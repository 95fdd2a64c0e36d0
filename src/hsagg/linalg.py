"""Dense matrices over GF(q): construction, arithmetic, rank, seeded random generation.

Matrices are stored as numpy arrays. For moduli small enough that a product of
two residues fits in int64 the array dtype is int64 and all operations are
vectorized; for larger moduli (up to 2^61 - 1) entries are Python ints in an
object array, which is exact but slower. The matrix product matmul_mod and
the residue sums sum_mod work on int64 arrays at every modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from .gf import FieldSpec, f_inv, f_pow

# Largest modulus for which (q-1)^2 fits comfortably in int64.
_INT64_SAFE_MODULUS = 3_037_000_499
_INT64_MAX = (1 << 63) - 1

# Identifier of the pseudo-random generator recorded in serialized schemes.
PRNG_ID = "numpy-pcg64"


class DimensionMismatch(ValueError):
    """Raised when operand shapes or fields are incompatible."""


def _dtype_for(field: FieldSpec):
    return np.int64 if field.modulus <= _INT64_SAFE_MODULUS else object


@dataclass(frozen=True)
class Mat:
    """An immutable rows x cols matrix over GF(q)."""

    field: FieldSpec
    array: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        a = self.array
        if a.ndim != 2:
            raise DimensionMismatch("matrix array must be 2-dimensional")
        a.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def entry(self, r: int, c: int) -> int:
        return int(self.array[r, c])

    def entries(self) -> list[int]:
        """Row-major flat list of entries."""
        return [int(x) for x in self.array.reshape(-1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.all(self.array == other.array))
        )

    def __hash__(self):
        return hash((self.field, self.array.shape, tuple(self.entries())))


def from_rows(field: FieldSpec, rows: Sequence[Sequence[int]]) -> Mat:
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    a = np.empty((n_rows, n_cols), dtype=_dtype_for(field))
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DimensionMismatch("ragged row lengths")
        for j, x in enumerate(row):
            a[i, j] = x % field.modulus
    return Mat(field, a)


def from_flat(field: FieldSpec, rows: int, cols: int, entries: Iterable[int]) -> Mat:
    data = [x % field.modulus for x in entries]
    if len(data) != rows * cols:
        raise DimensionMismatch(f"expected {rows * cols} entries, got {len(data)}")
    a = np.array(data, dtype=_dtype_for(field)).reshape(rows, cols)
    return Mat(field, a)


def zeros(field: FieldSpec, rows: int, cols: int) -> Mat:
    return Mat(field, np.zeros((rows, cols), dtype=_dtype_for(field)))


def identity(field: FieldSpec, n: int) -> Mat:
    a = np.zeros((n, n), dtype=_dtype_for(field))
    for i in range(n):
        a[i, i] = 1
    return Mat(field, a)


def _check_same_field(a: Mat, b: Mat):
    if a.field != b.field:
        raise DimensionMismatch("operands live in different fields")


def mat_add(a: Mat, b: Mat) -> Mat:
    _check_same_field(a, b)
    if a.array.shape != b.array.shape:
        raise DimensionMismatch(f"shape {a.array.shape} vs {b.array.shape}")
    return Mat(a.field, (a.array + b.array) % a.field.modulus)


def mat_neg(a: Mat) -> Mat:
    return Mat(a.field, (-a.array) % a.field.modulus)


def mat_sum(mats: Sequence[Mat]) -> Mat:
    acc = mats[0]
    for m in mats[1:]:
        acc = mat_add(acc, m)
    return acc


def mat_vec(m: Mat, v: Mat) -> Mat:
    """Matrix-vector product over GF(q); v must be a column vector."""
    _check_same_field(m, v)
    if v.cols != 1 or m.cols != v.rows:
        raise DimensionMismatch(f"cannot multiply {m.rows}x{m.cols} by {v.rows}x{v.cols}")
    a = np.asarray(m.array, dtype=np.int64)
    b = np.asarray(v.array, dtype=np.int64)
    return from_array(m.field, matmul_mod(a, b, m.field.modulus))


def from_array(field: FieldSpec, a: np.ndarray) -> Mat:
    """A Mat over the field from an int64 array of residues, in the field's storage dtype.

    The array is made row-major: rank eliminates row by row, which is slower
    on the column-major arrays that numpy's column gathers return.
    """
    a = np.ascontiguousarray(a)
    return Mat(field, a if _dtype_for(field) is np.int64 else a.astype(object))


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
    """x * 2^bits mod q for an int64 array of residues, in shifts that fit int64."""
    step = 63 - (q - 1).bit_length()
    while bits > 0:
        shift = min(bits, step)
        x = (x << shift) % q
        bits -= shift
    return x


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


def hstack(mats: Sequence[Mat]) -> Mat:
    for m in mats[1:]:
        _check_same_field(mats[0], m)
        if m.rows != mats[0].rows:
            raise DimensionMismatch("row counts differ in hstack")
    return Mat(mats[0].field, np.hstack([m.array for m in mats]))


def vstack(mats: Sequence[Mat]) -> Mat:
    for m in mats[1:]:
        _check_same_field(mats[0], m)
        if m.cols != mats[0].cols:
            raise DimensionMismatch("column counts differ in vstack")
    return Mat(mats[0].field, np.vstack([m.array for m in mats]))


def rank(m: Mat) -> int:
    """GF(q) rank by Gaussian elimination with division by the pivot.

    Pivot rule: within the current column, the first row (top to bottom) with
    a nonzero entry is chosen, which keeps the elimination deterministic.
    """
    q = m.field.modulus
    a = np.array(m.array, copy=True)
    n_rows, n_cols = a.shape
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if a[i, c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot], :] = a[[pivot, r], :]
        inv = f_inv(m.field, int(a[r, c]))
        a[r, :] = (a[r, :] * inv) % q
        below = a[r + 1 :, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows = nz + r + 1
            a[rows, :] = (a[rows, :] - a[rows, c : c + 1] * a[r : r + 1, :]) % q
        r += 1
        if r == n_rows:
            break
    return r


def vandermonde_block(field: FieldSpec, bases: Sequence[int], start_exp: int, rows: int) -> Mat:
    """rows x len(bases) matrix with entry (r, c) = bases[c]^(start_exp + r)."""
    if rows < 1:
        raise DimensionMismatch("rows must be >= 1")
    out = [[f_pow(field, b, start_exp + r) for b in bases] for r in range(rows)]
    return from_rows(field, out)


def _flatten_seed(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        out: tuple[int, ...] = ()
        for part in seed:
            out += _flatten_seed(part)
        return out
    return (int(seed) & 0xFFFFFFFFFFFFFFFF,)  # SeedSequence wants non-negative words


def generator_from_seed(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; seed may be an int or a (nested) tuple of ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_flatten_seed(seed))))


def random_mat(rows: int, cols: int, field: FieldSpec, seed) -> Mat:
    """Uniform random matrix over GF(q), deterministic in the seed.

    numpy's Generator.integers draws bounded integers by rejection (Lemire),
    so entries are exactly uniform on [0, q-1].
    """
    gen = generator_from_seed(seed)
    a = gen.integers(0, field.modulus, size=(rows, cols), dtype=np.uint64).astype(np.int64)
    if _dtype_for(field) is object:
        a = a.astype(object)
    return Mat(field, a)
