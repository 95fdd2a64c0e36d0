"""The two-hop aggregation round: keygen, user encoding, relay and server sums.

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


def keygen(s: PrecodingScheme, seed) -> np.ndarray:
    """All C(UV, G) groupwise keys, i.i.d. uniform over GF(q)^{L_S}, as one int64 column.

    Rows g*L_S .. (g+1)*L_S - 1 hold group g's key, drawn from the PRNG
    substream (seed, g), where seed is an int or a tuple of ints; disjoint
    substreams make the keys independent.
    """
    keys = [linalg.random_mat(s.dims.L_S, 1, s.cfg.field, (seed, g)) for g in range(len(s.groups))]
    return np.concatenate(keys)


def run(s: PrecodingScheme, w: np.ndarray, k: np.ndarray) -> Rounds:
    """Encode, aggregate and decode the rounds whose inputs and keys are the columns of w, k.

    w is UV*L x R (users' inputs stacked in canonical order), k is
    C(UV,G)*L_S x R (as keygen stacks the keys); both hold int64 residues.
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
        scheme=s,
        inputs=w,
        user_messages=x,
        relay_messages=y.reshape(U * L, rounds),
        decoded_sum=sum_mod(y, 0, q),
        input_sum=sum_mod(w.reshape(U * V, L, rounds), 0, q),
    )


def run_rounds(s: PrecodingScheme, seed: int, rounds: int) -> Rounds:
    """`rounds` rounds with uniform random inputs and keys, deterministic in the seed.

    Round i draws user (u, v)'s input from the substream ((seed, 2i), u, v)
    and its keys as keygen(s, (seed, 2i + 1)) does.
    """
    L, field = s.dims.L, s.cfg.field
    users = all_users(s.cfg.U, s.cfg.V)
    w = np.empty((len(users) * L, rounds), dtype=np.int64)
    k = np.empty((s.encoding.shape[1], rounds), dtype=np.int64)
    for i in range(rounds):
        draws = [linalg.random_mat(L, 1, field, ((seed, 2 * i), u, v)) for u, v in users]
        w[:, i : i + 1] = np.concatenate(draws)
        k[:, i : i + 1] = keygen(s, (seed, 2 * i + 1))
    return run(s, w, k)
