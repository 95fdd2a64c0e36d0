"""The two-hop aggregation round: keygen, user encoding, relay and server sums.

R rounds run as one product over GF(q): with every user's input stacked into
W (UV*L x R) and every group's key into K (C(UV,G)*L_S x R), the user messages
are X = W + E K for the scheme's encoding matrix E. Relay messages and the
decoded sum are row-block sums of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .combi import UserId, all_users
from .linalg import Mat, from_array, matmul_mod, sum_mod
from .scheme import PrecodingScheme


@dataclass(frozen=True)
class KeyMaterial:
    """One L_S x 1 key vector per group, in canonical group order.

    Groups draw from disjoint PRNG substreams of the same seed, so the keys
    are mutually independent by construction.
    """

    keys: tuple[Mat, ...]
    seed: int
    prng_id: str


@dataclass(frozen=True)
class Transcript:
    inputs: dict[UserId, Mat]
    user_messages: dict[UserId, Mat]
    relay_messages: dict[int, Mat]
    decoded_sum: Mat


@dataclass(frozen=True, eq=False)
class Rounds:
    """R rounds of one scheme as int64 residue arrays, one column per round.

    Row blocks of `inputs` and `user_messages` are users in canonical order,
    row blocks of `relay_messages` are relays.
    """

    scheme: PrecodingScheme
    inputs: np.ndarray  # UV*L x R
    user_messages: np.ndarray  # UV*L x R
    relay_messages: np.ndarray  # U*L x R
    decoded_sum: np.ndarray  # L x R
    input_sum: np.ndarray  # L x R, the true sum the server should decode

    @property
    def correct(self) -> np.ndarray:
        """Per round: whether the decoded sum equals the input sum."""
        return np.all(self.decoded_sum == self.input_sum, axis=0)

    def transcript(self, r: int) -> Transcript:
        """Round r as per-user and per-relay column vectors."""
        s = self.scheme
        L, field = s.dims.L, s.cfg.field

        def block(a: np.ndarray, i: int) -> Mat:
            return from_array(field, a[i * L : (i + 1) * L, r : r + 1])

        users = all_users(s.cfg.U, s.cfg.V)
        return Transcript(
            inputs={user: block(self.inputs, i) for i, user in enumerate(users)},
            user_messages={user: block(self.user_messages, i) for i, user in enumerate(users)},
            relay_messages={u: block(self.relay_messages, u - 1) for u in range(1, s.cfg.U + 1)},
            decoded_sum=block(self.decoded_sum, 0),
        )


def keygen(s: PrecodingScheme, seed: int) -> KeyMaterial:
    """Sample all C(UV, G) groupwise keys, i.i.d. uniform over GF(q)^{L_S}."""
    keys = tuple(
        linalg.random_mat(s.dims.L_S, 1, s.cfg.field, (seed, g_idx))
        for g_idx in range(len(s.groups))
    )
    return KeyMaterial(keys, seed, linalg.PRNG_ID)


def user_key(s: PrecodingScheme, k: KeyMaterial, user: UserId) -> list[tuple[int, Mat]]:
    """The keys of all groups containing the user, in canonical group order."""
    return [(g_idx, k.keys[g_idx]) for g_idx, grp in enumerate(s.groups) if user in grp]


def _key_column(k: KeyMaterial) -> np.ndarray:
    return np.concatenate([key.array[:, 0] for key in k.keys]).astype(np.int64)


def _check_input(s: PrecodingScheme, w: Mat):
    if w.cols != 1 or w.rows != s.dims.L:
        raise linalg.DimensionMismatch(f"input must be {s.dims.L}x1, got {w.rows}x{w.cols}")


def user_encode(s: PrecodingScheme, k: KeyMaterial, user: UserId, w: Mat) -> Mat:
    """X = W + sum over the user's groups of block(g, user) * S_g."""
    _check_input(s, w)
    q, L = s.cfg.field.modulus, s.dims.L
    row = all_users(s.cfg.U, s.cfg.V).index(user) * L
    mask = matmul_mod(s.encoding[row : row + L], _key_column(k)[:, None], q)
    return from_array(s.cfg.field, (np.asarray(w.array, dtype=np.int64) + mask) % q)


def _run(s: PrecodingScheme, w: np.ndarray, k: np.ndarray) -> Rounds:
    """Encode, aggregate and decode the rounds whose inputs and keys are the columns of w, k."""
    q, U, V, L = s.cfg.field.modulus, s.cfg.U, s.cfg.V, s.dims.L
    rounds = w.shape[1]
    x = (w + matmul_mod(s.encoding, k, q)) % q
    y = sum_mod(x.reshape(U, V, L, rounds), 1, q)
    return Rounds(
        scheme=s,
        inputs=w,
        user_messages=x,
        relay_messages=y.reshape(U * L, rounds),
        decoded_sum=sum_mod(y, 0, q),
        input_sum=sum_mod(w.reshape(U * V, L, rounds), 0, q),
    )


def run_rounds(s: PrecodingScheme, seeds: Sequence[tuple]) -> Rounds:
    """One round per (input_seed, key_seed) pair, with uniform random inputs and keys.

    Round r draws user (u, v)'s input from the substream (input_seed, u, v)
    and group g's key from (key_seed, g), exactly as a single run_round does.
    """
    L, field = s.dims.L, s.cfg.field
    users = all_users(s.cfg.U, s.cfg.V)
    w = np.empty((len(users) * L, len(seeds)), dtype=np.int64)
    k = np.empty((len(s.groups) * s.dims.L_S, len(seeds)), dtype=np.int64)
    for r, (input_seed, key_seed) in enumerate(seeds):
        w[:, r] = np.concatenate(
            [linalg.random_mat(L, 1, field, (input_seed, u, v)).array[:, 0] for u, v in users]
        )
        k[:, r] = _key_column(keygen(s, key_seed))
    return _run(s, w, k)


def round_seeds(seed: int, rounds: int) -> list[tuple]:
    """The (input_seed, key_seed) pairs of `rounds` consecutive rounds under one seed."""
    return [((seed, 2 * i), (seed, 2 * i + 1)) for i in range(rounds)]


def run_round_with_inputs(
    s: PrecodingScheme, inputs: dict[UserId, Mat], keys: KeyMaterial
) -> Transcript:
    """Run encode / aggregate / decode on explicit inputs (one per user) and keys."""
    for w in inputs.values():
        _check_input(s, w)
    w = np.concatenate(
        [np.asarray(inputs[user].array, dtype=np.int64) for user in all_users(s.cfg.U, s.cfg.V)]
    )
    return _run(s, w, _key_column(keys)[:, None]).transcript(0)


def run_round(s: PrecodingScheme, input_seed: int, key_seed: int) -> Transcript:
    """One full round with uniform random inputs and keys, deterministic in the seeds."""
    return run_rounds(s, [(input_seed, key_seed)]).transcript(0)
