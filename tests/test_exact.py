"""Exact ranks over the rationals, and witnesses re-counted by them.

Claims:
    - exact.rank equals the rank by Gauss-Jordan elimination over
      Fraction on integer, dyadic and random float matrices, rank-deficient
      and empty ones included, and sympy's Matrix.rank where sympy is
      installed; it does not move under a power-of-two scaling of the
      whole matrix by 2^900 or 2^-900, and it counts a column the float
      rank cut drops; a non-finite or non-matrix input raises ValueError
    - a violating coordinate member whose exact slack is not positive is
      never a witness: on a datum whose float rank cut miscounts two
      column submatrices the check reads finite, where the float count
      alone reads infinite, a true witness beside them is kept, and every
      coordinate witness on wider integer and row-scaled draws has a
      positive exact slack
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blepi import exact
from blepi.datum import Datum, Partition
from blepi.finiteness import FINITE, INFINITE, ViolatingSubspace, check_finiteness
from blepi.subspace import SearchBudget, _exact_slack, candidate_subspaces, divergence_probe
from conftest import wider_datum


def _fraction_rank(M) -> int:
    """Rank by Gauss-Jordan elimination over Fraction."""
    rows = [[Fraction(float(x)) for x in row] for row in np.asarray(M, dtype=float)]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _draw_matrix(seed, kind):
    """A matrix of up to 6 x 6 whose rank is often below its shape: a
    product of two integer, dyadic or Gaussian factors of inner size t."""
    rng = np.random.default_rng(seed)
    p, q = (int(x) for x in rng.integers(0, 7, 2))
    t = int(rng.integers(0, 7))
    if kind == "integer":
        return rng.integers(-3, 4, (p, t)).astype(float) @ rng.integers(-3, 4, (t, q))
    if kind == "dyadic":
        left = rng.integers(-8, 9, (p, t)) * 2.0 ** rng.integers(-60, 61, (p, t))
        return left @ rng.integers(-3, 4, (t, q)).astype(float)
    return rng.standard_normal((p, t)) @ rng.standard_normal((t, q))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["integer", "dyadic", "gaussian"]))
def test_rank_is_the_rank_over_the_rationals(seed, kind):
    M = _draw_matrix(seed, kind)
    r = exact.rank(M)
    assert r == _fraction_rank(M)
    assert exact.rank(2.0**900 * M) == exact.rank(2.0**-900 * M) == r


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["integer", "dyadic"]))
def test_rank_is_sympys_rank(seed, kind):
    sympy = pytest.importorskip("sympy")
    M = _draw_matrix(seed, kind)
    expected = sympy.Matrix(M.shape[0], M.shape[1], [sympy.Rational(x) for x in M.ravel()]).rank()
    assert exact.rank(M) == expected


def test_rank_counts_what_the_float_cut_drops():
    M = np.array([[1.0, 0.0], [0.0, 1e-20]])
    assert np.linalg.matrix_rank(M) == 1
    assert exact.rank(M) == 2
    assert exact.rank(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])) == 2
    assert exact.rank(np.array([[3.0, 1.5], [1.0, 0.5]])) == 1


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrices_have_rank_zero(shape):
    assert exact.rank(np.zeros(shape)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        exact.rank(np.array([[1.0, bad]]))


def test_a_non_matrix_is_rejected():
    with pytest.raises(ValueError, match="expected a matrix"):
        exact.rank(np.ones(3))


# A = [[1, 0, 0], [0, 1e-20, 1]] on three scalar blocks: A has full
# numerical rank, but the cut rank_tol(A) counts the columns on axes {2}
# and {1, 2} one short, so with d = (1, 1/2, 1/2) those two members score
# slack 1/2 in floats and -1/2 exactly.  Every exact slack is at most 0:
# the datum is finite, and the float count alone reads infinite with the
# witness on axis 2.
_MISCOUNTED = Datum(
    partition=Partition((1, 1, 1)),
    maps=(np.array([[1.0, 0.0, 0.0], [0.0, 1e-20, 1.0]]),),
    c=np.array([1.0]),
    d=np.array([1.0, 0.5, 0.5]),
)


def test_a_member_the_rank_cut_miscounts_is_no_witness():
    axes = {(False, True, False): -0.5, (True, True, False): -0.5}
    for mask, expected in axes.items():
        mask = np.array(mask)
        assert _exact_slack(_MISCOUNTED, mask.astype(int), mask) == expected
    assert check_finiteness(_MISCOUNTED).status == FINITE
    assert divergence_probe(_MISCOUNTED) is None
    dims = [V.block_dims for V in candidate_subspaces(_MISCOUNTED, SearchBudget())]
    assert (0, 1, 0) not in dims and (1, 1, 0) not in dims


def test_a_true_witness_beside_miscounted_members_is_kept():
    """With d = (3/4, 3/4, 1/2) the member on axes {2, 3} has A's second
    row alone as its image, so its exact slack 1/4 is the float one."""
    d = Datum(
        partition=_MISCOUNTED.partition,
        maps=_MISCOUNTED.maps,
        c=_MISCOUNTED.c,
        d=np.array([0.75, 0.75, 0.5]),
    )
    v = check_finiteness(d)
    assert v.status == INFINITE and v.witness.subspace.block_dims == (0, 1, 1)
    assert v.witness.slack == 0.25


@pytest.mark.parametrize("kind", ["integer", "row-scaled"])
def test_every_coordinate_witness_has_positive_exact_slack(kind):
    rng = np.random.default_rng(5)
    seen = 0
    for _ in range(60):
        d = wider_datum(rng, kind)
        w = check_finiteness(d).witness
        if not isinstance(w, ViolatingSubspace):
            continue
        bases = w.subspace.bases
        if not all(np.all((B == 0) | (B == 1)) for B in bases):
            continue  # a kernel-tier witness
        mask = np.concatenate([B.any(axis=1) for B in bases])
        assert _exact_slack(d, w.subspace.block_dims, mask) > 0
        seen += 1
    assert seen > 0
