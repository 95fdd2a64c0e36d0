"""Precoding schemes: golden constructions, seeded random builds, stacked matrices.

A scheme assigns each (group, member user) pair an L x L_S matrix over GF(q)
whose per-group sum is zero, so every key contribution cancels in the server's
total. Non-members implicitly hold the zero matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .combi import (
    Group,
    UserId,
    cross_relay_groups,
    enumerate_groups,
    groups_touching_relay,
)
from .gf import make_field
from .linalg import Mat, mat_neg, mat_sum, vandermonde_block, zeros
from .rates import ProblemConfig, SchemeDims, check_feasible, classify_regime, Infeasible

DEFAULT_RANDOM_MODULUS = 2_147_483_647  # Mersenne prime; retries essentially never needed


class ConstructionFailed(RuntimeError):
    """All random construction attempts failed a rank gate (field too small)."""

    def __init__(self, attempts: int):
        super().__init__(f"no scheme passed the rank checks after {attempts} attempts")
        self.attempts = attempts


@dataclass(frozen=True)
class PrecodingScheme:
    cfg: ProblemConfig
    dims: SchemeDims
    groups: tuple[Group, ...]
    blocks: Mapping[tuple[int, UserId], Mat]
    provenance: Mapping[str, object]

    def block(self, group_index: int, user: UserId) -> Mat:
        """The user's matrix for the given group; zero if the user is not a member."""
        stored = self.blocks.get((group_index, user))
        if stored is not None:
            return stored
        return zeros(self.cfg.field, self.dims.L, self.dims.L_S)

    @cached_property
    def encoding(self) -> np.ndarray:
        """The UV*L x C(UV,G)*L_S encoding matrix, as int64 residues.

        Row block i belongs to the i-th user in canonical order ((1,1), (1,2),
        ..., (U,V)), column block g to group g; the block is block(g, user).
        Stacking every user's input and every group's key gives all user
        messages at once, X = W + E K, and the relay matrices, the server
        matrix and the zero-sum check are slices and row-block sums of E.
        """
        L, L_S = self.dims.L, self.dims.L_S
        e = np.zeros((self.cfg.U * self.cfg.V * L, len(self.groups) * L_S), dtype=np.int64)
        for (g_idx, (u, v)), m in self.blocks.items():
            row = ((u - 1) * self.cfg.V + v - 1) * L
            e[row : row + L, g_idx * L_S : (g_idx + 1) * L_S] = m.array
        e.setflags(write=False)
        return e


def complete_zero_sum(given: Mapping[UserId, Mat], dependent: UserId) -> dict[UserId, Mat]:
    """Extend the given member matrices so the full set sums to zero.

    The dependent member (which must not appear in `given`) receives the
    negated sum of the others.
    """
    if dependent in given:
        raise ValueError(f"dependent member {dependent} already has a matrix")
    mats = list(given.values())
    if not mats:
        raise ValueError("need at least one given matrix")
    out = dict(given)
    out[dependent] = mat_neg(mat_sum(mats))
    return out


# The six 5x2 precoding matrices of the (U,V,G,q) = (2,2,2,5) construction,
# keyed by group in canonical order. The lexicographically earlier member of
# each pair carries the matrix as-is, the later member its negation.
_EXAMPLE1_MATRICES: dict[Group, list[list[int]]] = {
    ((1, 1), (1, 2)): [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]],
    ((1, 1), (2, 1)): [[1, 2], [2, 1], [0, 1], [1, 0], [1, 1]],
    ((1, 1), (2, 2)): [[1, 1], [0, 2], [2, 0], [1, 2], [2, 1]],
    ((1, 2), (2, 1)): [[2, 1], [1, 1], [1, 0], [0, 3], [2, 2]],
    ((1, 2), (2, 2)): [[0, 1], [1, 0], [2, 1], [1, 2], [1, 1]],
    ((2, 1), (2, 2)): [[1, 0], [1, 1], [2, 2], [2, 1], [0, 2]],
}


def build_example1() -> PrecodingScheme:
    """The deterministic (U,V,G) = (2,2,2) scheme over GF(5) with L=5, L_S=2."""
    field = make_field(5)
    cfg = ProblemConfig(2, 2, 2, field)
    dims = classify_regime(cfg)
    groups = tuple(enumerate_groups(2, 2, 2))
    blocks: dict[tuple[int, UserId], Mat] = {}
    for g_idx, grp in enumerate(groups):
        base = linalg.from_rows(field, _EXAMPLE1_MATRICES[grp])
        first, second = grp
        blocks[(g_idx, first)] = base
        blocks[(g_idx, second)] = mat_neg(base)
    return PrecodingScheme(cfg, dims, groups, blocks, {"construction": "example1"})


# Per-user starting exponents of the GF(11) Vandermonde construction. User
# (4,2) has none: it is always the zero-sum-completed member when present.
_EXAMPLE2_EXPONENTS: dict[UserId, int] = {
    (1, 1): 0,
    (1, 2): 4,
    (2, 1): 1,
    (2, 2): 5,
    (3, 1): 2,
    (3, 2): 6,
    (4, 1): 3,
}


def build_example2() -> PrecodingScheme:
    """The deterministic (U,V,G) = (4,2,7) scheme over GF(11) with L=8, L_S=3.

    For group index i (1-based) the three Vandermonde bases are g^(i-1),
    g^(i+2), g^(i+5) with g = 2 and exponents reduced modulo 10 (the order of
    GF(11)*). The last-indexed member of each group is completed to zero-sum.
    """
    field = make_field(11)
    cfg = ProblemConfig(4, 2, 7, field)
    dims = classify_regime(cfg)
    groups = tuple(enumerate_groups(4, 2, 7))
    g = 2
    blocks: dict[tuple[int, UserId], Mat] = {}
    for g_idx, grp in enumerate(groups):
        i = g_idx + 1
        bases = [pow(g, e % 10, 11) for e in (i - 1, i + 2, i + 5)]
        dependent = grp[-1]  # (4,2) for i >= 2, (4,1) for i = 1
        given = {
            member: vandermonde_block(field, bases, _EXAMPLE2_EXPONENTS[member], dims.L)
            for member in grp
            if member != dependent
        }
        for member, mat in complete_zero_sum(given, dependent).items():
            blocks[(g_idx, member)] = mat
    return PrecodingScheme(cfg, dims, groups, blocks, {"construction": "example2"})


def sample_zero_sum_scheme(cfg: ProblemConfig, seed: int) -> PrecodingScheme:
    """One unchecked draw: i.i.d. uniform blocks with zero-sum completion.

    For each group, all members except the lexicographically last get
    independent uniform L x L_S blocks; the last is the negated sum. No rank
    gate is applied, so the result may be insecure (useful for audits).
    """
    dims = classify_regime(cfg)
    groups = tuple(enumerate_groups(cfg.U, cfg.V, cfg.G))
    blocks: dict[tuple[int, UserId], Mat] = {}
    for g_idx, grp in enumerate(groups):
        given = {
            member: linalg.random_mat(dims.L, dims.L_S, cfg.field, (seed, g_idx, m_idx))
            for m_idx, member in enumerate(grp[:-1])
        }
        for member, mat in complete_zero_sum(given, grp[-1]).items():
            blocks[(g_idx, member)] = mat
    provenance = {
        "construction": "random",
        "seed": seed,
        "prng_id": linalg.PRNG_ID,
        "retries_used": 0,
    }
    return PrecodingScheme(cfg, dims, groups, blocks, provenance)


def scheme_rank_checks_pass(s: PrecodingScheme) -> bool:
    """True iff every relay matrix has rank V*L and the server matrix (U-1)*L."""
    target_relay = s.cfg.V * s.dims.L
    for u in range(1, s.cfg.U + 1):
        if linalg.rank(assemble_relay_matrix(s, u)) != target_relay:
            return False
    return linalg.rank(assemble_server_matrix(s)) == (s.cfg.U - 1) * s.dims.L


def build_random(cfg: ProblemConfig, seed: int, max_retries: int = 16) -> PrecodingScheme:
    """Seeded random construction with rank-check-and-retry.

    Attempt k uses seed + k; the first scheme passing both rank conditions is
    returned with the retry count recorded. Failure of every attempt signals
    that q is too small for the generic construction to succeed reliably.
    """
    if not check_feasible(cfg):
        raise Infeasible("G = 1: groupwise keys are private, no scheme exists")
    for attempt in range(max_retries + 1):
        s = sample_zero_sum_scheme(cfg, seed + attempt)
        if scheme_rank_checks_pass(s):
            provenance = dict(s.provenance)
            provenance["seed"] = seed
            provenance["retries_used"] = attempt
            return PrecodingScheme(s.cfg, s.dims, s.groups, s.blocks, provenance)
    raise ConstructionFailed(max_retries + 1)


def _block_columns(group_indices: Sequence[int], L_S: int) -> np.ndarray:
    """Column indices of the given groups' column blocks, in the given order."""
    return (np.asarray(group_indices, dtype=np.int64)[:, None] * L_S + np.arange(L_S)).reshape(-1)


def assemble_relay_matrix(s: PrecodingScheme, u: int) -> Mat:
    """The VL x (T_u * L_S) matrix seen by relay u.

    Row block v, column block j holds the block of the j-th group touching
    relay u (canonical order) for user (u, v); zero where (u, v) is not a
    member. Full row rank VL is exactly the relay security condition.
    """
    _, touching = groups_touching_relay(s.cfg.U, s.cfg.V, s.cfg.G, u)
    height = s.cfg.V * s.dims.L
    rows = s.encoding[(u - 1) * height : u * height]
    return linalg.from_array(s.cfg.field, rows[:, _block_columns(touching, s.dims.L_S)])


def assemble_server_matrix(s: PrecodingScheme) -> Mat:
    """The UL x (C(UV,G) * L_S) matrix behind the relay messages.

    Row block u, column block g is the relay-aggregated block
    sum_v block(g, (u, v)). Intra-relay groups yield all-zero column blocks
    since their members cancel within the relay. Rank (U-1)L is exactly the
    server security condition.
    """
    U, V, L = s.cfg.U, s.cfg.V, s.dims.L
    per_user = s.encoding.reshape(U, V, L, -1)
    summed = linalg.sum_mod(per_user, 1, s.cfg.field.modulus)
    return linalg.from_array(s.cfg.field, summed.reshape(U * L, -1))


def check_zero_sum(s: PrecodingScheme) -> bool:
    """Exact check that every group's member blocks sum to the zero matrix."""
    per_user = s.encoding.reshape(-1, s.dims.L, s.encoding.shape[1])
    return not linalg.sum_mod(per_user, 0, s.cfg.field.modulus).any()


def cross_relay_server_matrix(s: PrecodingScheme) -> Mat:
    """Server matrix restricted to cross-relay column blocks and the first U-1 row blocks."""
    full = assemble_server_matrix(s)
    _, cross = cross_relay_groups(s.cfg.U, s.cfg.V, s.cfg.G)
    rows = full.array[: (s.cfg.U - 1) * s.dims.L]
    return Mat(s.cfg.field, np.ascontiguousarray(rows[:, _block_columns(cross, s.dims.L_S)]))
