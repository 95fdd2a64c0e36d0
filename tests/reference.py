"""Reference versions of the scheme layout, which tests compare the library against.

They are written independently of scheme._members, the library's one group
enumeration: a group here is a tuple of users (u, v) from
itertools.combinations over combi.all_users, and a block is read from the
encoding matrix E through its own row and column slices, one at a time.
"""

from itertools import combinations

from hsagg import scheme
from hsagg.combi import all_users, count_groups


def enumerate_groups(U, V, G):
    """All C(UV, G) size-G groups as sorted tuples of users, in lexicographic (canonical) order."""
    count_groups(U, V, G)  # refused before anything is made
    return [tuple(c) for c in combinations(all_users(U, V), G)]


def block_slices(cfg, dims, group_index, user):
    """The (rows, columns) of the user's L x L_S block for the group in the encoding matrix."""
    row = ((user[0] - 1) * cfg.V + user[1] - 1) * dims.L
    col = group_index * dims.L_S
    return slice(row, row + dims.L), slice(col, col + dims.L_S)


def block(s, group_index, user):
    """The user's matrix for the group, a view of s's encoding matrix; zero for a non-member."""
    return s.encoding[block_slices(s.cfg, s.dims, group_index, user)]


def sample_zero_sum_scheme(cfg, seed):
    """One unchecked draw: attempt 0 of build_random with the same seed, with no rank gate applied.

    Each group's members but the last get i.i.d. uniform L x L_S blocks and
    the last the negated sum, so the result may be insecure.
    """
    return next(scheme._draws(cfg, seed, 1))
