"""The two-hop aggregation round: seeded inputs and keys, user encoding, relay and server sums.

R rounds run as one product over GF(q): with every user's input stacked into
W (UV*L x R) and every group's key into K (C(UV,G)*L_S x R), the user messages
are X = W + E K for the scheme's encoding matrix E. Relay messages and the
decoded sum are row-block sums of X. Inputs and keys are int64 residue
columns throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .combi import all_users
from .linalg import matmul_mod, sum_mod
from .scheme import PrecodingScheme


@dataclass(frozen=True, eq=False)
class Rounds:
    """R rounds of one scheme as int64 residue arrays, one column per round.

    Row blocks of `inputs` and `user_messages` are users in canonical order,
    row blocks of `relay_messages` are relays.
    """

    inputs: np.ndarray  # UV*L x R
    user_messages: np.ndarray  # UV*L x R
    relay_messages: np.ndarray  # U*L x R
    decoded_sum: np.ndarray  # L x R
    input_sum: np.ndarray  # L x R, the true sum the server should decode

    @property
    def correct(self) -> np.ndarray:
        """Per round: whether the decoded sum equals the input sum."""
        return np.all(self.decoded_sum == self.input_sum, axis=0)


def run(s: PrecodingScheme, w: np.ndarray, k: np.ndarray) -> Rounds:
    """Encode, aggregate and decode the rounds whose inputs and keys are the columns of w, k.

    w is UV*L x R (users' inputs stacked in canonical order), k is
    C(UV,G)*L_S x R (group g's key in rows g*L_S .. (g+1)*L_S - 1); both
    hold int64 residues.
    """
    q, U, V, L = s.cfg.field.modulus, s.cfg.U, s.cfg.V, s.dims.L
    if w.ndim != 2 or w.shape[1:] != k.shape[1:] or (len(w), len(k)) != s.encoding.shape:
        raise linalg.DimensionMismatch(
            f"inputs {w.shape} and keys {k.shape} do not fit the encoding matrix {s.encoding.shape}"
        )
    rounds = w.shape[1]
    x = (w + matmul_mod(s.encoding, k, q)) % q
    y = sum_mod(x.reshape(U, V, L, rounds), 1, q)
    return Rounds(
        inputs=w,
        user_messages=x,
        relay_messages=y.reshape(U * L, rounds),
        decoded_sum=sum_mod(y, 0, q),
        input_sum=sum_mod(w.reshape(U * V, L, rounds), 0, q),
    )


def _columns(s: PrecodingScheme, rows: int, heads: np.ndarray, tails) -> np.ndarray:
    """Column r stacks the rows x 1 draws of the seeds (heads[r], *tail), in tail order."""
    draws = linalg.random_mats(rows, 1, s.cfg.field, linalg.seed_rows(heads, tails))
    return np.ascontiguousarray(draws.reshape(len(heads), len(tails) * rows).T)


def run_rounds(s: PrecodingScheme, seed: int, rounds: int) -> Rounds:
    """`rounds` rounds with uniform random inputs and keys, deterministic in the seed.

    Round i draws user (u, v)'s input from the substream ((seed, 2i), u, v)
    and group g's key, i.i.d. uniform over GF(q)^{L_S}, from the substream
    ((seed, 2i + 1), g): disjoint substreams make the keys independent. All
    inputs are one random_mats call and all keys another.
    """
    even = 2 * np.arange(rounds)[:, None]
    users = np.array(all_users(s.cfg.U, s.cfg.V)).reshape(-1, 2)
    w = _columns(s, s.dims.L, linalg.seed_rows(seed, even), users)
    groups = np.arange(s.encoding.shape[1] // s.dims.L_S)[:, None]
    k = _columns(s, s.dims.L_S, linalg.seed_rows(seed, even + 1), groups)
    return run(s, w, k)
