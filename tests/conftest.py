import numpy as np
import pytest

from hsagg import linalg, scheme


@pytest.fixture(scope="session")
def ex1():
    return scheme.build_example1()


@pytest.fixture(scope="session")
def ex2():
    return scheme.build_example2()


def _keygen(s, seed):
    """All C(UV, G) groupwise keys of a scheme, i.i.d. uniform over GF(q)^{L_S}, as one int64 column.

    Rows g*L_S .. (g+1)*L_S - 1 hold group g's key, drawn from the PRNG
    substream (seed, g), where seed is an int or a tuple of ints: the keys of
    round i of protocol.run_rounds(s, seed, R) are keygen(s, (seed, 2i + 1)).
    """
    groups = np.arange(s.encoding.shape[1] // s.dims.L_S)[:, None]
    return linalg.random_mats(s.dims.L_S, 1, s.cfg.q, linalg.seed_rows(seed, groups)).reshape(-1, 1)


@pytest.fixture(scope="session")
def keygen():
    return _keygen
