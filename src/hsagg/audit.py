"""Security and rate verification.

Two independent routes check the same security claims:
  * rank predicates on the stacked precoding matrices (relay: rank VL,
    server: rank (U-1)L), and
  * exhaustive enumeration of all key assignments, tallying the exact
    distribution of the relay/server mask and testing it for uniformity.

Pass/fail is always decided on exact integer tallies, never on floating-point
entropy values; the float entropy in the results is for reporting only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, protocol, scheme as scheme_mod
from .linalg import Mat
from .rates import RateTuple, optimal_rates
from .scheme import PrecodingScheme

_SLAB = 1 << 20  # states tallied per numpy pass; keeps memory bounded


# Python's default limit on the digits of an int converted to str.
_MAX_DECIMAL_DIGITS = 4300


def _power_exceeds(q: int, n: int, bound: int) -> bool:
    """Exactly whether q^n > bound, without building q^n when it is far larger."""
    if n * (q.bit_length() - 1) > bound.bit_length():
        return True  # q^n >= 2^(n * (bitlen(q) - 1)) > bound
    return q**n > bound


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
        return not _power_exceeds(self.q, self.n, 10**_MAX_DECIMAL_DIGITS - 1)

    @property
    def required_text(self) -> str:
        return str(self.required) if self.printable else f"{self.q}^{self.n}"


def _check_states(q: int, n: int, cap: int):
    if _power_exceeds(q, n, cap):
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
    entropy_qary: float  # exact integer when the distribution is uniform
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
        oracle_ok = all(
            r.passed for r in self.oracle_relay.values() if isinstance(r, OracleResult)
        ) and (not isinstance(self.oracle_server, OracleResult) or self.oracle_server.passed)
        return (
            self.zero_sum
            and all(c.passed for c in self.relay_ranks.values())
            and self.server_rank.passed
            and self.fuzz_failures == 0
            and oracle_ok
            and self.rates_match
        )


def verify_relay_rank(s: PrecodingScheme, u: int) -> RankCheck:
    m = scheme_mod.assemble_relay_matrix(s, u)
    return RankCheck(s.cfg.V * s.dims.L, linalg.rank(m))


def verify_server_rank(s: PrecodingScheme) -> RankCheck:
    m = scheme_mod.assemble_server_matrix(s)
    return RankCheck((s.cfg.U - 1) * s.dims.L, linalg.rank(m))


def mask_distribution(m: Mat, cap: int) -> tuple[int, np.ndarray]:
    """Exact distribution of m @ s over all q^cols inputs s.

    Returns (state count, array of the positive multiplicities of every
    attained output vector). Enumeration is sliced into slabs whose tallies
    are merged order-independently. Output vectors are packed base-q into
    one or more int64 chunk codes; when a single chunk suffices and the
    output space is small the tally is a dense bincount, otherwise a Counter
    over code tuples.
    """
    q = m.field.modulus
    n, rows = m.cols, m.rows
    _check_states(q, n, cap)
    states = q**n
    coords_per_chunk = max(1, int(62 / math.log2(q)))
    chunks = [range(j, min(j + coords_per_chunk, rows)) for j in range(0, rows, coords_per_chunk)]
    col = np.asarray(m.array, dtype=np.int64)
    powers = [q**k for k in range(n)]
    out_space = q**rows
    dense = len(chunks) == 1 and out_space <= (1 << 27)
    dense_counts = np.zeros(out_space, dtype=np.int64) if dense else None
    sparse_counts: Counter = Counter()
    for start in range(0, states, _SLAB):
        idx = np.arange(start, min(start + _SLAB, states), dtype=np.int64)
        # Base-q digits of the state index are the key symbols; since
        # q^n <= cap, the dot products below stay far from int64 overflow.
        digits = np.stack([(idx // powers[k]) % q for k in range(n)], axis=1)
        out = (digits @ col.T) % q
        codes = []
        for chunk in chunks:
            pack = np.array([q ** (len(chunk) - 1 - i) for i in range(len(chunk))], dtype=np.int64)
            codes.append(out[:, list(chunk)] @ pack)
        if dense:
            dense_counts += np.bincount(codes[0], minlength=out_space)
        elif len(codes) == 1:
            uniq, cnt = np.unique(codes[0], return_counts=True)
            for key, c in zip(uniq, cnt):
                sparse_counts[int(key)] += int(c)
        else:
            stacked = np.stack(codes, axis=1)
            uniq, cnt = np.unique(stacked, axis=0, return_counts=True)
            for row, c in zip(uniq, cnt):
                sparse_counts[tuple(int(x) for x in row)] += int(c)
    if dense:
        tallies = dense_counts[dense_counts > 0]
    else:
        tallies = np.array(list(sparse_counts.values()), dtype=np.int64)
    return states, tallies


def _oracle_from_matrix(m: Mat, target: int, cap: int) -> OracleResult:
    states, tallies = mask_distribution(m, cap)
    q = m.field.modulus
    uniform = bool(np.all(tallies == tallies[0]))
    distinct = len(tallies)
    if uniform:
        # Uniform over `distinct` values with distinct * tally = q^n, so
        # distinct is an exact power of q and the q-ary entropy an integer.
        r = round(math.log(distinct, q))
        if q**r != distinct or distinct * int(tallies[0]) != states:
            raise ArithmeticError(f"uniform tally: {distinct} values of {states} states, not q^{r}")
        entropy = float(r)
    else:
        entropy = -sum(
            (int(c) / states) * math.log(int(c) / states, q) for c in tallies
        )
    return OracleResult(states, distinct, uniform, entropy, target)


def entropy_oracle_relay(s: PrecodingScheme, u: int, cap: int) -> OracleResult:
    """Exact q-ary entropy of relay u's mask over all touching-group keys.

    Relay security holds iff the mask is uniform on GF(q)^{VL}, i.e. the
    entropy equals V*L.
    """
    m = scheme_mod.assemble_relay_matrix(s, u)
    return _oracle_from_matrix(m, s.cfg.V * s.dims.L, cap)


def entropy_oracle_server(s: PrecodingScheme, cap: int) -> OracleResult:
    """Exact q-ary entropy of the first U-1 relay masks over cross-relay keys.

    Intra-relay keys cancel inside their relay and the U-th mask is determined
    by the others, so server security holds iff this joint mask is uniform on
    GF(q)^{(U-1)L}, i.e. the entropy equals (U-1)*L.
    """
    m = scheme_mod.cross_relay_server_matrix(s)
    return _oracle_from_matrix(m, (s.cfg.U - 1) * s.dims.L, cap)


def rate_audit(s: PrecodingScheme) -> tuple[bool, RateTuple, RateTuple]:
    achieved = RateTuple(
        Fraction(1), Fraction(1), Fraction(s.dims.L_S, s.dims.L)
    )
    optimal = optimal_rates(s.cfg)
    return achieved == optimal, achieved, optimal


def correctness_fuzz(s: PrecodingScheme, rounds: int, seed: int) -> int:
    """Number of rounds whose decoded sum differs from the true input sum."""
    batch = protocol.run_rounds(s, seed, rounds)
    return int(np.count_nonzero(~batch.correct))


def full_audit(
    s: PrecodingScheme,
    fuzz_rounds: int = 100,
    oracle_cap: int = 1 << 26,
    seed: int = 0,
    run_oracles: bool = True,
) -> AuditReport:
    """Run every check; oversized oracles are recorded as skipped, not failed."""
    relay_ranks = {u: verify_relay_rank(s, u) for u in range(1, s.cfg.U + 1)}
    server_rank = verify_server_rank(s)
    oracle_relay: dict[int, OracleResult | StateSpaceTooLarge | None] = {}
    oracle_server: OracleResult | StateSpaceTooLarge | None = None
    for u in range(1, s.cfg.U + 1):
        if not run_oracles:
            oracle_relay[u] = None
            continue
        try:
            oracle_relay[u] = entropy_oracle_relay(s, u, oracle_cap)
        except StateSpaceTooLarge as exc:
            oracle_relay[u] = exc
    if run_oracles:
        try:
            oracle_server = entropy_oracle_server(s, oracle_cap)
        except StateSpaceTooLarge as exc:
            oracle_server = exc
    _, achieved, optimal = rate_audit(s)
    return AuditReport(
        zero_sum=scheme_mod.check_zero_sum(s),
        relay_ranks=relay_ranks,
        server_rank=server_rank,
        fuzz_rounds=fuzz_rounds,
        fuzz_failures=correctness_fuzz(s, fuzz_rounds, seed),
        oracle_relay=oracle_relay,
        oracle_server=oracle_server,
        achieved_rates=achieved,
        optimal_rates=optimal,
    )
