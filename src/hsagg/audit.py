"""Security and rate verification.

Two independent routes check the same security claims:
  * rank predicates on the gates' matrices (scheme.gates): relay u's matrix
    must have rank VL, and the server matrix, the relay sums of the first
    U-1 relays on the cross-relay groups' columns, rank (U-1)L; and
  * exact oracles: the distribution of the relay/server mask over all key
    assignments, tallied exactly by convolving the mask's column terms, and
    tested for uniformity. They do not use rank. The tally is one exact
    multiplicity times a product of 0/1 factor tallies over disjoint row
    sets, so a column is convolved only on the rows it reaches, and factors
    merge when a column couples them. The cells are the narrowest type that
    holds q (one byte for q <= 251), and an oracle's peak memory is under two
    q^rows tallies of them.

Pass/fail is always decided on exact integer tallies, never on floating-point
entropy values; the float entropy in the results is for reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from . import linalg, protocol, scheme as scheme_mod
from .combi import power_exceeds
from .linalg import Mat
from .rates import RateTuple, optimal_rates
from .scheme import PrecodingScheme

# Python's default limit on the digits of an int converted to str.
_MAX_DECIMAL_DIGITS = 4300
# Default of full_audit and `verify --cap`: most q^cols key states and q^rows tally cells an oracle may take.
DEFAULT_ORACLE_CAP = 1 << 26
DEFAULT_FUZZ_ROUNDS = 100  # of full_audit and `verify --fuzz-rounds`


class StateSpaceTooLarge(RuntimeError):
    """The q^n key states of an oracle exceed the cap.

    The count is carried as (q, n): q^n can have far more digits than Python
    will convert to a string.
    """

    def __init__(self, q: int, n: int, cap: int):
        self.q, self.n, self.cap = q, n, cap
        super().__init__(f"exhaustive oracle needs {self.required_text} states, cap is {cap}")

    @property
    def required(self) -> int:
        return self.q**self.n

    @property
    def printable(self) -> bool:
        """Whether q^n has few enough decimal digits to be written out."""
        return not power_exceeds(self.q, self.n, 10**_MAX_DECIMAL_DIGITS - 1)

    @property
    def required_text(self) -> str:
        return str(self.required) if self.printable else f"{self.q}^{self.n}"


def _check_caps(q: int, cap: int, *sizes: int):
    """Refuse an oracle with the first n of sizes for which q^n exceeds the cap: its key states (cols), then its outputs (rows)."""
    for n in sizes:
        if power_exceeds(q, n, cap):
            raise StateSpaceTooLarge(q, n, cap)


@dataclass(frozen=True)
class RankCheck:
    expected: int
    computed: int

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


@dataclass(frozen=True)
class OracleResult:
    states: int
    distinct: int
    uniform: bool
    entropy_qary: float  # the exact integer log_q(distinct): a tally is always uniform
    target: int

    @property
    def passed(self) -> bool:
        # When uniform, entropy_qary is an exact integer derived from the
        # tally counts, so this comparison is not a float tolerance check.
        return self.uniform and self.entropy_qary == self.target


@dataclass(frozen=True)
class AuditReport:
    zero_sum: bool
    relay_ranks: dict[int, RankCheck]
    server_rank: RankCheck
    fuzz_rounds: int
    fuzz_failures: int
    # None means the oracle was not requested; StateSpaceTooLarge means it was
    # requested but skipped as infeasible. Neither fails the audit.
    oracle_relay: dict[int, OracleResult | StateSpaceTooLarge | None]
    oracle_server: OracleResult | StateSpaceTooLarge | None
    achieved_rates: RateTuple
    optimal_rates: RateTuple

    @property
    def rates_match(self) -> bool:
        return self.achieved_rates == self.optimal_rates

    @property
    def passed(self) -> bool:
        oracles = [*self.oracle_relay.values(), self.oracle_server]
        return (
            self.zero_sum
            and all(c.passed for c in [*self.relay_ranks.values(), self.server_rank])
            and self.fuzz_failures == 0
            and all(r.passed for r in oracles if isinstance(r, OracleResult))
            and self.rates_match
        )


def _shift_index(q: int, shift: list[int]) -> np.ndarray:
    """index[z] = the base-q code of (z - shift) mod q, over the codes z of len(shift) digits."""
    index = np.zeros(1, np.intp)
    for x in shift:
        index = (index[:, None] * q + (np.arange(q) - x) % q).ravel()
    return index


def _roll(a: np.ndarray, shift: list[int]) -> np.ndarray:
    """a translated by shift, every axis of length q: the result at z is a[(z - shift) mod q].

    At q = 2 a shift by 1 reverses its axis, so the result is a view and no
    copy. Otherwise a is read as a (q^h, q^(n-h)) matrix, h = n // 2, and
    translated by at most two gathers: of its rows by the leading axes' shift,
    then of its columns by the trailing axes'. Each goes through an index of
    at most q^(n-h) entries, about the square root of a's size.
    """
    q, h = a.shape[0], a.ndim // 2
    if q == 2:
        return a[tuple(slice(None, None, -x or None) for x in shift)]
    flat = a.reshape(q**h, -1)
    for axis, part in ((0, shift[:h]), (1, shift[h:])):
        if any(part):
            flat = flat.take(_shift_index(q, part), axis)
    return flat.reshape(a.shape)


def _convolve_line(tally: np.ndarray, c: list[int], q: int):
    """Convolve tally in place with the uniform distribution on the line {s * c}; c is nonzero.

    The tally is cut into its q slices along the first nonzero axis i of c,
    and each slice is translated by a multiple of c's other entries with
    _roll, at most two gathers, so at most two slices' cells are alive
    beside the tally.
    """
    # c scaled to c[i] = 1 spans the same line; each line parallel to it meets
    # the hyperplane y_i = 0 once, and its point in slice y_i = t gets there by -t * c.
    i = next(a for a, x in enumerate(c) if x)
    inv = pow(c[i], -1, q)
    step = [x * inv % q for a, x in enumerate(c) if a != i]
    if not step:  # one axis: the line is the whole tally
        tally[...] = tally.sum()
        return
    by_i = np.moveaxis(tally, i, 0)  # a view: by_i[t] is the slice y_i = t
    line = by_i[0]  # summed in place: line[z] = sum of the tally on z + {s * c}
    for t in range(1, q):
        line += _roll(by_i[t], [-t * x % q for x in step])
    # The new tally at y is the sum over the line through y.
    for t in range(1, q):
        by_i[t] = _roll(line, [t * x % q for x in step])


def _product(factors: list, rows: tuple, q: int, dtype) -> np.ndarray:
    """The tally over the sorted rows that is the product of the factors' tallies
    (disjoint sorted row sets, each inside rows) and a point mass at 0 on the other rows.

    It is allocated once, and each factor is multiplied into it as a broadcast view.
    """
    out = np.zeros((q,) * len(rows), dtype)
    held = [r for r in rows if any(r in f for f, _ in factors)]
    target = out[tuple(slice(None) if r in held else 0 for r in rows) + (...,)]  # a view over the held rows
    views = [t.reshape([q if r in f else 1 for r in held]) for f, t in factors]
    views = [np.ones((), dtype)] * (2 - len(views)) + views  # at least two: the first product is one pass
    np.multiply(views[0], views[1], out=target)
    for v in views[2:]:
        target *= v
    return out


def _unit_cells(tally: np.ndarray) -> int:
    """Divide a convolved factor by v, the value of each of its nonzero cells, in place; return v.

    A factor is the 0/1 indicator of its image, a subspace, and convolving it
    with a line gives v times the indicator of the sum: v is q when the line
    lies in the subspace, else 1. Cells of more than one nonzero value are an
    arithmetic fault.
    """
    v = int(tally.max())
    if v == 1:
        return v
    # Slice by slice, so that the comparison's cells are 1/q of the factor's.
    if not v or any(np.count_nonzero(t) != np.count_nonzero(t == v) for t in tally):
        raise ArithmeticError(f"a convolved factor's nonzero cells are not one value (largest {v})")
    tally //= v
    return v


def mask_distribution(m: Mat, cap: int) -> tuple[int, np.ndarray]:
    """Exact distribution of m @ s over all q^cols inputs s.

    Returns (q^cols, the positive multiplicities of the attained outputs in
    base-q code order, row 0 the most significant digit). m @ s sums the
    independent terms s_j * c_j over the columns c_j, so the tally is the
    convolution of the uniform distributions on the lines {s * c_j}. It is
    kept as one exact Python-int multiplicity times a product of 0/1 factor
    tallies over disjoint row sets: the columns are taken in increasing
    order of nonzero count, a column inside one factor is convolved in place
    on that factor's q^k cells alone, and a column that reaches rows of
    several factors, or rows no factor holds, first merges them into one
    factor. After each convolution every nonzero cell of the factor must be
    one value v (else ArithmeticError); the cells are divided by v and v is
    multiplied into the multiplicity. The z zero columns multiply it by q^z.
    q^cols and then q^rows must be within the cap; the relay and server
    matrices have rows <= cols, since L_S / L is the optimal key rate.

    The cells are the narrowest unsigned type that holds q, since a 0/1
    factor convolved with a line of q points has no cell above q: one byte
    for q <= 251. A convolution sums and writes back the factor's q slices,
    each translated by at most two gathers (see _roll), so it holds at most
    two slices, 1/q of the factor each, beside it. The peak memory is under
    two (q,)*rows tallies of cells, whatever q^cols is. The outputs are
    uniform over the attained ones, which number the product of the
    factors' nonzero counts, so the multiplicities come back as a read-only
    broadcast of the one multiplicity, in the narrowest unsigned type that
    holds q^cols (object past 2^64 - 1, where the multiplicity stays exact).
    """
    q = m.field.modulus
    rows, cols = m.rows, m.cols
    _check_caps(q, cap, cols, rows)
    cell = np.min_scalar_type(q)
    factors = {}  # sorted rows -> 0/1 tally with one axis per row; the row sets are disjoint
    multiplicity = 1  # of every attained output: the tally is multiplicity times the product of the factors
    for c in sorted(m.array.T.tolist(), key=lambda c: len(c) - c.count(0)):
        support = [a for a, x in enumerate(c) if x]
        if not support:
            multiplicity *= q  # s * 0 = 0 for all q keys s
            continue
        reached = [f for f in factors if any(a in f for a in support)]
        if len(reached) == 1 and all(a in reached[0] for a in support):
            f_rows = reached[0]
        else:
            f_rows = tuple(sorted({*support, *(a for f in reached for a in f)}))
            factors[f_rows] = _product([(f, factors.pop(f)) for f in reached], f_rows, q, cell)
        _convolve_line(factors[f_rows], [c[a] for a in f_rows], q)
        multiplicity *= _unit_cells(factors[f_rows])
    states = q**cols
    distinct = prod(np.count_nonzero(t) for t in factors.values())
    return states, np.broadcast_to(np.array(multiplicity, np.min_scalar_type(states)), (distinct,))


def _oracle_from_matrix(m: Mat, target: int, cap: int) -> OracleResult:
    """The oracle's verdict from the exact tally of m's outputs.

    A linear image of uniform keys is uniform on its image: every attained
    output has q^(cols - rank) preimages. So the tally is uniform over a power
    of q many outputs, and anything else is an arithmetic fault, not a verdict.
    """
    states, tallies = mask_distribution(m, cap)
    q = m.field.modulus
    distinct = len(tallies)
    r = 0  # the least r with q^r >= distinct, found without float logs
    while q**r < distinct:
        r += 1
    if tallies.min() != tallies.max() or q**r != distinct or distinct * int(tallies[0]) != states:
        raise ArithmeticError(f"tally of {distinct} values over {states} states is not uniform on q^{r}")
    # The q-ary entropy of a uniform tally is the exact integer r.
    return OracleResult(states, distinct, True, float(r), target)


def entropy_oracle_relay(s: PrecodingScheme, u: int, cap: int) -> OracleResult:
    """Exact q-ary entropy of relay u's mask over all touching-group keys.

    Relay security holds iff the mask is uniform on GF(q)^{VL}, i.e. the
    entropy equals V*L.
    """
    return _oracle_from_matrix(*scheme_mod.gate(s, u), cap)


def entropy_oracle_server(s: PrecodingScheme, cap: int) -> OracleResult:
    """Exact q-ary entropy of the first U-1 relay masks over cross-relay keys.

    Intra-relay keys cancel inside their relay and the U-th mask is determined
    by the others, so server security holds iff this joint mask is uniform on
    GF(q)^{(U-1)L}, i.e. the entropy equals (U-1)*L. Its matrix is the server
    gate's (scheme.gate(s, None)), which is made only once its q^cols key
    states, one per column of scheme.gate_columns, are within the cap; its
    q^rows outputs are then too, as rows <= cols.
    """
    cfg = s.cfg
    _check_caps(cfg.q, cap, scheme_mod.gate_columns(cfg.U, cfg.V, cfg.G, s.dims.L_S, None).size)
    return _oracle_from_matrix(*scheme_mod.gate(s, None), cap)


def rate_audit(s: PrecodingScheme) -> tuple[bool, RateTuple, RateTuple]:
    achieved = RateTuple(Fraction(1), Fraction(1), Fraction(s.dims.L_S, s.dims.L))
    optimal = optimal_rates(s.cfg)
    return achieved == optimal, achieved, optimal


def correctness_fuzz(s: PrecodingScheme, rounds: int, seed: int) -> int:
    """Number of rounds whose decoded sum differs from the true input sum."""
    batch = protocol.run_rounds(s, seed, rounds)
    return int(np.count_nonzero(~batch.correct))


def _oracle_result(m: Mat, target: int, cap: int | None) -> OracleResult | StateSpaceTooLarge | None:
    """The oracle's result on m, its refusal of an output space over cap, or None (not run) if cap is None."""
    if cap is None:
        return None
    try:
        return _oracle_from_matrix(m, target, cap)
    except StateSpaceTooLarge as exc:
        return exc


def full_audit(
    s: PrecodingScheme,
    fuzz_rounds: int = DEFAULT_FUZZ_ROUNDS,
    oracle_cap: int | None = DEFAULT_ORACLE_CAP,
    seed: int = 0,
) -> AuditReport:
    """Run every check; oversized oracles are recorded as skipped, not failed.

    oracle_cap None runs no oracle: each is recorded as None, reported "not-run".
    Each gate's matrix (scheme.gates) is made once, for its rank and its
    oracle. On a scheme that is not zero-sum the server matrix can lose rank,
    so there the server rank is taken on the relay sums of all of E.
    """
    zero_sum = scheme_mod.check_zero_sum(s)
    ranks, oracles = {}, {}  # by u, the server's under None
    for u, m, target in scheme_mod.gates(s):
        ranked = m
        if u is None and not zero_sum:
            ranked = linalg.from_array(s.cfg.q, scheme_mod._relay_sums(s, s.encoding))
        ranks[u] = RankCheck(target, linalg.rank(ranked))
        oracles[u] = _oracle_result(m, target, oracle_cap)
        del m, ranked  # not alive next to the next gate's matrix
    server_rank, oracle_server = ranks.pop(None), oracles.pop(None)
    _, achieved, optimal = rate_audit(s)
    return AuditReport(
        zero_sum=zero_sum,
        relay_ranks=ranks,
        server_rank=server_rank,
        fuzz_rounds=fuzz_rounds,
        fuzz_failures=correctness_fuzz(s, fuzz_rounds, seed),
        oracle_relay=oracles,
        oracle_server=oracle_server,
        achieved_rates=achieved,
        optimal_rates=optimal,
    )
