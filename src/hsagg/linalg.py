"""GF(q) linear algebra on numpy arrays: exact products and sums, rank, seeded random draws.

Residues are int64 arrays at every modulus up to 2^61 - 1: the matrix product
matmul_mod and the residue sums sum_mod are exact on them. Only a Mat, the
input of rank and of the exhaustive oracles, switches to Python ints in an
object array for moduli too large for a product of two residues to fit in
int64, which is exact but slower.
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


@dataclass(frozen=True, eq=False)
class Mat:
    """An immutable rows x cols matrix over GF(q), in the field's storage dtype."""

    field: FieldSpec
    array: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        a = self.array
        if a.ndim != 2 or a.dtype != _dtype_for(self.field):
            raise DimensionMismatch("a Mat is 2-dimensional, in its field's storage dtype")
        a.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.all(self.array == other.array))
        )


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
