"""Shared generators for randomized suites (all explicitly seeded)."""

import numpy as np
import pytest
from hypothesis import strategies as st

from blepi.datum import Datum, Partition, validate
from blepi.gauss import BlockCovariance, GaussianPair


def random_partition(rng, max_blocks=3, max_block_dim=2):
    k = int(rng.integers(1, max_blocks + 1))
    return Partition(tuple(int(rng.integers(1, max_block_dim + 1)) for _ in range(k)))


def _balanced(part, maps, c, d):
    """The datum with c rescaled so the total scaling balance holds."""
    image_total = sum(cj * A.shape[0] for cj, A in zip(c, maps))
    return Datum(partition=part, maps=maps, c=c * (float(np.dot(d, part.blocks)) / image_total), d=d)


def random_datum(rng, max_n=6, balanced=False):
    """Random valid datum with full-row-rank Gaussian maps.

    With balanced=True the c exponents are rescaled so the total scaling
    balance holds exactly.
    """
    while True:
        part = random_partition(rng)
        if part.n <= max_n:
            break
    n = part.n
    m = int(rng.integers(1, 4))
    maps = []
    for _ in range(m):
        nj = int(rng.integers(1, n + 1))
        while True:
            A = rng.standard_normal((nj, n))
            if np.linalg.matrix_rank(A) == nj:
                break
        maps.append(A)
    c = rng.uniform(0.2, 1.5, m)
    d = rng.uniform(0.2, 1.5, part.k)
    if balanced:
        return _balanced(part, tuple(maps), c, d)
    return Datum(partition=part, maps=tuple(maps), c=c, d=d)


MAP_KINDS = ("gaussian", "integer", "zeroed-columns", "row-scaled", "axis")


def _wider_map(rng, kind, nj, n):
    """One nj x n map of the given kind (it need not have full row rank)."""
    if kind == "integer":
        return rng.integers(-2, 3, (nj, n)).astype(float)
    if kind == "axis":
        return np.eye(n)[rng.choice(n, nj, replace=False)]
    A = rng.standard_normal((nj, n))
    if kind == "zeroed-columns":
        A[:, rng.random(n) < 0.4] = 0.0
    elif kind == "row-scaled":
        A *= 10.0 ** rng.uniform(-6, 6, (nj, 1))
    return A


def wider_datum(rng, kind):
    """Random valid balanced datum of the wider recipe: up to 4 blocks of
    size 1-3 with n <= 9, 1-4 maps of the given kind (one of MAP_KINDS)
    with n_j uniform in 1..n, and exponents uniform in [0.2, 1.5], c
    rescaled to balance.  Redrawn until the datum validates."""
    while True:
        part = random_partition(rng, max_blocks=4, max_block_dim=3)
        if part.n > 9:
            continue
        m = int(rng.integers(1, 5))
        maps = tuple(_wider_map(rng, kind, int(rng.integers(1, part.n + 1)), part.n) for _ in range(m))
        datum = _balanced(part, maps, rng.uniform(0.2, 1.5, m), rng.uniform(0.2, 1.5, part.k))
        if validate(datum).ok:
            return datum


def mixed_datum(rng):
    """Random valid balanced datum of the mixed recipe: a wider_datum of a
    uniformly drawn map kind whose exponents are each zeroed w.p. 0.25,
    then all rounded to multiples of 1/4 w.p. 0.5, with c rescaled to
    balance.  Redrawn until some c_j and some d_i are nonzero."""
    while True:
        datum = wider_datum(rng, MAP_KINDS[int(rng.integers(len(MAP_KINDS)))])
        c, d = datum.c.copy(), datum.d.copy()
        c[rng.random(len(c)) < 0.25] = 0.0
        d[rng.random(len(d)) < 0.25] = 0.0
        if rng.random() < 0.5:
            c, d = np.round(4 * c) / 4, np.round(4 * d) / 4
        if c.any() and d.any():
            return _balanced(datum.partition, datum.maps, c, d)


def truncated_datum(rng):
    """Random valid balanced datum past the profile cap of 4,096: n uniform
    in 13..16 on blocks that are all scalar, all of two axes (one scalar
    block when n is odd) or of 1-3 axes each, uniformly; 1-3 maps of 1-4
    rows each, either with orthonormal rows (the Zamir-Feder kind) or with
    entries in {-2, ..., 2}, uniformly; exponents uniform in [0.2, 1.5],
    c rescaled to balance.  Redrawn until the datum validates."""
    while True:
        n = int(rng.integers(13, 17))
        shape = int(rng.integers(3))
        if shape == 0:
            blocks = (1,) * n
        elif shape == 1:
            blocks = (2,) * (n // 2) + (1,) * (n % 2)
        else:
            blocks = ()
            while sum(blocks) < n:
                blocks += (int(rng.integers(1, min(3, n - sum(blocks)) + 1)),)
        part = Partition(blocks)
        m = int(rng.integers(1, 4))
        maps = []
        for _ in range(m):
            nj = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                maps.append(np.linalg.qr(rng.standard_normal((n, nj)))[0].T)
            else:
                maps.append(rng.integers(-2, 3, (nj, n)).astype(float))
        c, d = rng.uniform(0.2, 1.5, m), rng.uniform(0.2, 1.5, part.k)
        datum = _balanced(part, tuple(maps), c, d)
        if validate(datum).ok:
            return datum


def scalar_mixed_datum(rng):
    """A mixed_datum whose blocks are all scalar (redrawn until they are)."""
    while True:
        datum = mixed_datum(rng)
        if set(datum.partition.blocks) == {1}:
            return datum


def mixed_data():
    """Hypothesis strategy: mixed_datum of a seeded generator."""
    return st.integers(0, 2**32 - 1).map(lambda seed: mixed_datum(np.random.default_rng(seed)))


def random_block_covariance(rng, partition):
    blocks = []
    for r in partition.blocks:
        G = rng.standard_normal((r, r))
        blocks.append(G @ G.T + (0.5 + rng.uniform()) * np.eye(r))
    return BlockCovariance(tuple(blocks))


def random_pair(rng, partition):
    blocks = []
    for r in partition.blocks:
        G = rng.standard_normal((2 * r, 2 * r))
        blocks.append(G @ G.T + (0.5 + rng.uniform()) * np.eye(2 * r))
    return GaussianPair(tuple(blocks))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "scipy: the test needs scipy; skipped only where scipy cannot be imported"
    )


def pytest_collection_modifyitems(config, items):
    """Skip the scipy-marked tests where scipy cannot be imported.  An
    unmarked test that reaches scipy still runs, and fails, so a stray
    import on a numpy-only path is caught."""
    try:
        import scipy  # noqa: F401
    except ImportError:
        skip = pytest.mark.skip(reason="needs scipy, which cannot be imported here")
        for item in items:
            if item.get_closest_marker("scipy"):
                item.add_marker(skip)
