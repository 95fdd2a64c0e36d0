"""Precoding schemes: golden constructions, seeded random builds, stacked matrices.

A scheme assigns each (group, member user) pair an L x L_S matrix over GF(q)
whose per-group sum is zero, so every key contribution cancels in the server's
total. Non-members hold the zero matrix. All of it is stored as one array, the
encoding matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Mapping

import numpy as np

from . import linalg
from .combi import all_users, count_groups
from .gf import make_field
from .linalg import Mat
from .rates import ProblemConfig, SchemeDims, classify_regime

# A Mersenne prime. How often one attempt of build_random may fail at it is
# the bound that `hsagg build` prints (attempt_failure_bound): at most
# 913/2147483647 at (U,V,G) = (3,3,6).
DEFAULT_RANDOM_MODULUS = 2_147_483_647
DEFAULT_MAX_RETRIES = 16  # of build_random and `build --max-retries`


class ConstructionFailed(RuntimeError):
    """All random construction attempts failed a rank gate (field too small)."""

    def __init__(self, attempts: int):
        super().__init__(f"no scheme passed the rank checks after {attempts} attempts")
        self.attempts = attempts


@dataclass(frozen=True, eq=False)
class PrecodingScheme:
    """A scheme, stored as its read-only UV*L x C(UV,G)*L_S int64 encoding matrix E, with no group tuples.

    Row block i belongs to the i-th user in canonical order ((1,1), (1,2),
    ..., (U,V)), column block g to group g, whose members _members gives;
    the block is the user's matrix for the group, zero for a non-member.
    Stacking every user's input and every group's key gives all user
    messages at once, X = W + E K, and the relay matrices, the server
    matrix and the zero-sum check are slices and row-block sums of E.
    """

    cfg: ProblemConfig
    dims: SchemeDims
    encoding: np.ndarray
    provenance: Mapping[str, object]

    def __post_init__(self):
        self.encoding.setflags(write=False)


@lru_cache(maxsize=64)
def _members(U: int, V: int, G: int) -> np.ndarray:
    """The read-only C(UV,G) x G user indices (u-1)*V + (v-1) of each group's members, made once per config.

    The index is monotone in canonical user order, so the rows are the combinations of range(UV), in order.
    """
    n_groups = count_groups(U, V, G)  # the config is accepted before anything is made
    members = np.fromiter(chain.from_iterable(combinations(range(U * V), G)), np.int64).reshape(n_groups, G)
    members.setflags(write=False)
    return members


def _encoding_matrix(cfg: ProblemConfig, dims: SchemeDims, blocks: np.ndarray) -> np.ndarray:
    """E in which blocks[g, j] is the block of group g's j-th member, for its first blocks.shape[1] members; zero elsewhere."""
    n_groups, k = blocks.shape[:2]
    e = np.zeros((cfg.U * cfg.V * dims.L, n_groups * dims.L_S), dtype=np.int64)
    members = _members(cfg.U, cfg.V, cfg.G)[:, :k]
    e.reshape(-1, dims.L, n_groups, dims.L_S)[members, :, np.arange(n_groups)[:, None], :] = blocks
    return e


def _zero_sum_scheme(
    cfg: ProblemConfig,
    dims: SchemeDims,
    blocks: np.ndarray,
    provenance: Mapping[str, object],
) -> PrecodingScheme:
    """The scheme whose group g gives its members but the last the blocks blocks[g], completed to zero sum.

    blocks is a C(UV,G) x (G-1) x L x L_S array of residues, members in
    group order. The last member of every group receives the negated sum of
    the others.
    """
    q, n_groups = cfg.field.modulus, len(blocks)
    e = _encoding_matrix(cfg, dims, blocks)
    completion = linalg.sum_mod(blocks, 1, q)
    np.negative(completion, out=completion)
    completion %= q
    last = _members(cfg.U, cfg.V, cfg.G)[:, -1]
    e.reshape(-1, dims.L, n_groups, dims.L_S)[last, :, np.arange(n_groups), :] = completion
    return PrecodingScheme(cfg, dims, e, provenance)


# The six 5x2 precoding matrices of the (U,V,G,q) = (2,2,2,5) construction,
# keyed by group in canonical order. The lexicographically earlier member of
# each pair carries the matrix as-is, the later member its negation.
_EXAMPLE1_MATRICES: dict[tuple[tuple[int, int], ...], list[list[int]]] = {
    ((1, 1), (1, 2)): [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]],
    ((1, 1), (2, 1)): [[1, 2], [2, 1], [0, 1], [1, 0], [1, 1]],
    ((1, 1), (2, 2)): [[1, 1], [0, 2], [2, 0], [1, 2], [2, 1]],
    ((1, 2), (2, 1)): [[2, 1], [1, 1], [1, 0], [0, 3], [2, 2]],
    ((1, 2), (2, 2)): [[0, 1], [1, 0], [2, 1], [1, 2], [1, 1]],
    ((2, 1), (2, 2)): [[1, 0], [1, 1], [2, 2], [2, 1], [0, 2]],
}


def build_example1() -> PrecodingScheme:
    """The deterministic (U,V,G) = (2,2,2) scheme over GF(5) with L=5, L_S=2."""
    cfg = ProblemConfig(2, 2, 2, make_field(5))
    users = all_users(2, 2)
    groups = [tuple(users[i] for i in grp) for grp in _members(2, 2, 2).tolist()]
    blocks = np.array([[_EXAMPLE1_MATRICES[grp]] for grp in groups], dtype=np.int64)
    return _zero_sum_scheme(cfg, classify_regime(cfg), blocks, {"construction": "example1"})


def build_example2() -> PrecodingScheme:
    """The deterministic (U,V,G) = (4,2,7) scheme over GF(11) with L=8, L_S=3.

    For group index i (1-based) the three Vandermonde bases are g^(i-1), g^(i+2), g^(i+5) with
    g = 2 and exponents reduced modulo 10 (the order of GF(11)*). Member (u, v)'s row r holds the
    bases to the power (u-1) + (v-1)*U + r. The last-indexed member of each group ((4,2) for
    i >= 2, (4,1) for i = 1) is completed to zero-sum.
    """
    cfg = ProblemConfig(4, 2, 7, make_field(11))
    dims = classify_regime(cfg)
    U, users, blocks = cfg.U, all_users(cfg.U, cfg.V), []
    for g_idx, members in enumerate(_members(U, cfg.V, cfg.G).tolist()):
        i = g_idx + 1
        bases = [pow(2, e % 10, 11) for e in (i - 1, i + 2, i + 5)]
        starts = [(u - 1) + (v - 1) * U for u, v in (users[m] for m in members[:-1])]
        blocks.append([[[pow(b, start + r, 11) for b in bases] for r in range(dims.L)] for start in starts])
    return _zero_sum_scheme(cfg, dims, np.array(blocks, dtype=np.int64), {"construction": "example2"})


# Most block entries one batch of build_random's attempts draws at once (2^15
# int64 entries are 256 KB), so its memory does not grow with max_retries. An
# attempt with more entries is drawn alone.
_BATCH_ENTRIES = 1 << 15


def _draws(cfg: ProblemConfig, seed: int, attempts: int):
    """The unchecked draws of attempts 0, 1, ..., attempts - 1, in order; attempt k uses seed + k.

    The attempts are drawn in batches of 1, 2, 4, ... attempts, each by one
    random_mats call, and no batch of more than one attempt passes
    _BATCH_ENTRIES block entries. An attempt's scheme is made only when the
    caller asks for it, and attempt k's seed, like any seed part, is reduced
    mod 2^64.
    """
    dims = classify_regime(cfg)
    n_groups = count_groups(cfg.U, cfg.V, cfg.G)
    index = np.indices((n_groups, cfg.G - 1)).reshape(2, -1).T  # (group, member) of every drawn block
    shape = (n_groups, cfg.G - 1, dims.L, dims.L_S)
    most = max(1, _BATCH_ENTRIES // (len(index) * dims.L * dims.L_S))
    first = np.array(seed % (1 << 64), np.uint64)
    k, size = 0, 1
    while k < attempts:
        n = min(size, most, attempts - k)
        heads = first + np.arange(k, k + n, dtype=np.uint64)[:, None]  # uint64 sums wrap mod 2^64
        blocks = linalg.random_mats(dims.L, dims.L_S, cfg.field, linalg.seed_rows(heads, index))
        for i, attempt in enumerate(blocks.reshape(n, *shape)):
            provenance = {"construction": "random", "seed": seed, "prng_id": linalg.PRNG_ID, "retries_used": k + i}
            yield _zero_sum_scheme(cfg, dims, attempt, provenance)
        del blocks, attempt  # the next batch is drawn without this one
        k, size = k + n, 2 * size


def gate(s: PrecodingScheme, u: int | None) -> tuple[Mat, int]:
    """The (matrix, target rank) of relay u's security gate, or of the server's if u is None.

    Each gate asks its matrix for full row rank: V*L for a relay (see
    assemble_relay_matrix), (U-1)*L for the server (see server_matrix, whose
    rank decides server security only on a zero-sum scheme).
    """
    if u is None:
        return server_matrix(s), (s.cfg.U - 1) * s.dims.L
    return assemble_relay_matrix(s, u), s.cfg.V * s.dims.L


def gates(s: PrecodingScheme):
    """(u, matrix, target rank) of every gate: relays u = 1..U, then the server (u None); each matrix is made when reached."""
    for u in [*range(1, s.cfg.U + 1), None]:
        yield u, *gate(s, u)


def scheme_rank_checks_pass(s: PrecodingScheme) -> bool:
    """True iff every gate's matrix has its target rank; s must be zero-sum (see server_matrix), as every build is."""
    return all(linalg.rank(m) == target for _, m, target in gates(s))


def attempt_failure_bound(cfg: ProblemConfig, dims: SchemeDims) -> Fraction:
    """Schwartz-Zippel bound on the chance that one random attempt fails a rank gate.

    Each of the U relay gates asks a minor of degree at most V*L in the
    random entries to be nonzero, the server gate one of degree at most
    (U-1)*L, and the paper's achievability makes each minor a nonzero
    polynomial. So one attempt fails with probability at most
    (U*V*L + (U-1)*L) / q (Schwartz 1980; Zippel 1979, and a union bound).
    At 1 or more the bound says nothing.
    """
    return Fraction(cfg.U * cfg.V * dims.L + (cfg.U - 1) * dims.L, cfg.field.modulus)


def build_random(cfg: ProblemConfig, seed: int, max_retries: int = DEFAULT_MAX_RETRIES) -> PrecodingScheme:
    """Seeded random construction with rank-check-and-retry.

    Attempt k uses seed + k; the first scheme passing both rank conditions is
    returned with the retry count recorded. Failure of every attempt signals
    that q is too small for the generic construction to succeed reliably.
    The attempts are drawn in batches that double in size, at most
    _BATCH_ENTRIES block entries each (see _draws), and gated one at a time
    in order, so the result is the one that drawing them one by one gives.
    """
    for s in _draws(cfg, seed, max_retries + 1):
        if scheme_rank_checks_pass(s):
            return s
    raise ConstructionFailed(max_retries + 1)


def assemble_relay_matrix(s: PrecodingScheme, u: int) -> Mat:
    """The VL x (T_u * L_S) matrix seen by relay u.

    Row block v, column block j holds the block of the j-th group touching
    relay u (canonical order) for user (u, v); zero where (u, v) is not a
    member. Full row rank VL is exactly the relay security condition.
    """
    if not 1 <= u <= s.cfg.U:
        raise ValueError(f"relay index {u} outside [1, {s.cfg.U}]")
    height = s.cfg.V * s.dims.L
    rows = s.encoding[(u - 1) * height : u * height]
    return linalg.from_array(s.cfg.field, rows[:, _relay_columns(s.cfg.U, s.cfg.V, s.cfg.G, u, s.dims.L_S)])


@lru_cache(maxsize=64)
def _relay_columns(U: int, V: int, G: int, u: int, L_S: int) -> np.ndarray:
    """The read-only column index of relay u's matrix in E, the blocks of the groups touching u; made once per config."""
    columns = np.flatnonzero(np.repeat((_members(U, V, G) // V == u - 1).any(axis=1), L_S))
    columns.setflags(write=False)
    return columns


def _relay_sums(s: PrecodingScheme, rows: np.ndarray) -> np.ndarray:
    """The mod-q sum of each relay's V user row blocks, for rows of E that cover whole relays."""
    V, L, cols = s.cfg.V, s.dims.L, rows.shape[1]
    per_user = rows.reshape(rows.shape[0] // (V * L), V, L, cols)
    return linalg.sum_mod(per_user, 1, s.cfg.field.modulus).reshape(-1, cols)


def check_zero_sum(s: PrecodingScheme) -> bool:
    """Exact check that every group's member blocks sum to the zero matrix."""
    per_user = s.encoding.reshape(-1, s.dims.L, s.encoding.shape[1])
    return not linalg.sum_mod(per_user, 0, s.cfg.field.modulus).any()


@lru_cache(maxsize=64)
def cross_relay_columns(U: int, V: int, G: int, L_S: int) -> np.ndarray:
    """The read-only column index in E of the groups spanning relays, the server matrix's columns; made once per config."""
    columns = np.flatnonzero(np.repeat(np.ptp(_members(U, V, G) // V, axis=1) > 0, L_S))
    columns.setflags(write=False)
    return columns


def server_matrix(s: PrecodingScheme) -> Mat:
    """The (U-1)L x (X * L_S) server matrix, X the number of groups spanning relays.

    Row block u, column block j is the relay-aggregated block
    sum_v block(g, (u, v)) of the j-th cross-relay group g: the relay sums
    of E's first U-1 relays at cross_relay_columns. Precondition: s is
    zero-sum. Then a group's U relay sums add up to zero, so relay U adds no
    rank, and an intra-relay group's blocks cancel inside their relay, so
    this matrix has the rank of the relay sums of all of E, and rank (U-1)L
    is exactly the server security condition.
    """
    U, V, L = s.cfg.U, s.cfg.V, s.dims.L
    columns = cross_relay_columns(U, V, s.cfg.G, s.dims.L_S)
    return linalg.from_array(s.cfg.field, _relay_sums(s, s.encoding[: (U - 1) * V * L, columns]))
