"""Product subspaces: embedding, image dimensions, slack, and the search.

Claims:
    - embed stacks per-block bases block-diagonally and orthonormally
    - dim_image is a numerical rank, bounded by min(dim V, n_j) and
      monotone under inclusion; its tolerance is relative to the map, so
      a kernel has image dimension zero and the full space image
      dimension n_j even when the rows are scaled over six decades
    - slack matches the hand-computed values on the named data, is zero
      on the zero subspace, equals the scaling residual on the full
      space, and is invariant under per-block re-bases
    - a Haar-random product subspace has, map by map, image dimensions
      at least those of the coordinate subspace with the same dimension
      profile, so its slack is never larger (why the search draws none)
    - the candidate iterator enumerates the documented families and the
      search returns only certified (slack-positive) witnesses
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition
from blepi.subspace import (
    ProductSubspace,
    SearchBudget,
    candidate_subspaces,
    dim_image,
    embed,
    find_violating_subspace,
    slack,
)
from conftest import random_datum

SQ2 = np.sqrt(2.0)


def coupled(alpha, beta, d1, d2):
    return blepi.make_coupled_sums_datum(alpha, beta, d1, d2)


class TestEmbed:
    def test_single_axis(self):
        V = ProductSubspace.coordinate(Partition((2, 1)), ((0,), ()))
        E = embed(V)
        np.testing.assert_allclose(E, [[1.0], [0.0], [0.0]])

    def test_full_space_is_identity(self):
        V = ProductSubspace.full(Partition((2, 1)))
        np.testing.assert_allclose(embed(V), np.eye(3))

    def test_zero_subspace(self):
        V = ProductSubspace.zero(Partition((2, 1)))
        assert embed(V).shape == (3, 0)

    def test_rejects_nonorthonormal_basis(self):
        with pytest.raises(ValueError):
            ProductSubspace((np.array([[1.0], [1.0]]),))


class TestDimImage:
    def setup_method(self):
        self.datum = coupled(1.0, 1.0, 0.5, 0.5)
        self.A1 = self.datum.maps[0]

    def test_single_coordinate(self):
        V = ProductSubspace.coordinate(Partition((2, 1)), ((0,), ()))
        assert dim_image(self.A1, V) == 1

    def test_full_space_hits_surjective_rank(self):
        V = ProductSubspace.full(Partition((2, 1)))
        assert dim_image(self.A1, V) == 2

    def test_diagonal_line_collapses(self):
        # both (1,1,0)/sqrt2 and (0,0,1) map to multiples of (1,1)
        V = ProductSubspace.from_spans(
            Partition((2, 1)), [np.array([[1.0], [1.0]]), np.array([[1.0]])]
        )
        assert dim_image(self.A1, V) == 1

    def test_bounds_and_monotonicity(self, rng):
        for _ in range(25):
            datum = random_datum(rng)
            part = datum.partition
            small_bases, big_bases = [], []
            for r in part.blocks:
                t_small = int(rng.integers(0, r + 1))
                t_big = int(rng.integers(t_small, r + 1))
                Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
                small_bases.append(Q[:, :t_small])
                big_bases.append(Q[:, :t_big])
            small = ProductSubspace(tuple(small_bases))
            big = ProductSubspace(tuple(big_bases))
            for A in datum.maps:
                ds, db = dim_image(A, small), dim_image(A, big)
                assert ds <= min(small.dim, A.shape[0])
                assert ds <= db  # inclusion is monotone


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_has_zero_image_and_full_space_full_rank(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    nj = int(rng.integers(1, n + 1))
    while True:
        A = 10.0 ** rng.uniform(-3, 3, (nj, 1)) * rng.standard_normal((nj, n))
        if np.linalg.matrix_rank(A) == nj:
            break
    part = Partition((n,))
    # A @ null_space(A) is rounding noise; a tolerance relative to that
    # noise used to count it as rank
    assert dim_image(A, ProductSubspace((scipy.linalg.null_space(A),))) == 0
    assert dim_image(A, ProductSubspace.full(part)) == nj


class TestSlack:
    def test_critical_diagonal_subspace(self):
        datum = coupled(1.0, 1.0, 0.5, 0.5)
        V = ProductSubspace.from_spans(
            datum.partition, [np.array([[1.0], [1.0]]), np.array([[1.0]])]
        )
        res = slack(datum, V)
        assert res.slack == pytest.approx(0.0, abs=1e-12)
        assert res.critical
        assert res.per_map_dims == (1, 1, 1)

    def test_epi_block_subspace(self):
        datum = blepi.make_epi_datum(0.5, 1)
        V = ProductSubspace.coordinate(datum.partition, ((0,), ()))
        assert slack(datum, V).slack == pytest.approx(-0.5)

    def test_zero_subspace_has_zero_slack(self, rng):
        datum = random_datum(rng)
        res = slack(datum, ProductSubspace.zero(datum.partition))
        assert res.slack == 0.0

    def test_full_space_matches_scaling_residual(self, rng):
        for _ in range(10):
            datum = random_datum(rng)
            full = slack(datum, ProductSubspace.full(datum.partition)).slack
            assert full == pytest.approx(blepi.scaling_residual(datum), abs=1e-9)

    def test_invariant_under_per_block_rebasing(self, rng):
        datum = coupled(1.1, 0.6, 0.4, 0.4)
        for _ in range(10):
            bases = []
            for r in datum.partition.blocks:
                t = int(rng.integers(0, r + 1))
                Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
                bases.append(Q[:, :t])
            V = ProductSubspace(tuple(bases))
            s1 = slack(datum, V)
            mixed = []
            for B in V.bases:
                t = B.shape[1]
                if t == 0:
                    mixed.append(B)
                    continue
                R, _ = np.linalg.qr(rng.standard_normal((t, t)))
                mixed.append(B @ R)
            s2 = slack(datum, ProductSubspace(tuple(mixed)))
            assert s2.slack == pytest.approx(s1.slack, abs=1e-9)
            assert s2.per_map_dims == s1.per_map_dims


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_haar_subspace_images_dominate_coordinate_images(seed, data):
    rng = np.random.default_rng(seed)
    datum = random_datum(rng)
    profile = data.draw(st.tuples(*(st.integers(0, r) for r in datum.partition.blocks)))
    haar = ProductSubspace(
        tuple(
            np.linalg.qr(rng.standard_normal((r, t)))[0]
            for r, t in zip(datum.partition.blocks, profile)
        )
    )
    coord = ProductSubspace.coordinate(datum.partition, tuple(tuple(range(t)) for t in profile))
    h, c = slack(datum, haar), slack(datum, coord)
    assert all(a >= b for a, b in zip(h.per_map_dims, c.per_map_dims))
    assert h.slack <= c.slack + 1e-12


class TestCandidates:
    def test_coordinate_family_count(self):
        datum = coupled(1.0, 1.0, 0.5, 0.5)
        cands = list(candidate_subspaces(datum, SearchBudget()))
        # 2^2 subsets in block one times 2^1 in block two, plus kernel shadows
        coord = cands[: 2**3]
        assert len({tuple(V.block_dims) for V in coord}) > 1
        assert len(coord) == 8

    def test_kernel_projection_appears(self):
        datum = coupled(1.0, 1.0, 0.5, 0.5)
        target = embed(
            ProductSubspace.from_spans(
                datum.partition, [np.array([[1.0], [1.0]]), np.array([[1.0]])]
            )
        )
        found = False
        for V in candidate_subspaces(datum, SearchBudget()):
            if V.block_dims != (1, 1):
                continue
            E = embed(V)
            # same span iff the projectors agree
            if np.allclose(E @ E.T, target @ target.T, atol=1e-9):
                found = True
        assert found

    def test_profile_cap_truncates(self):
        datum = blepi.make_epi_datum(0.5, 2)  # 2^4 = 16 coordinate members
        cands = list(candidate_subspaces(datum, SearchBudget(profile_cap=3)))
        assert len(cands) <= 3 + datum.m + 1


class TestFindViolating:
    def test_perturbed_coupled_sums_has_witness(self):
        datum = coupled(1.51, 0.0, 0.5, 0.5)
        # scaling balance still holds within listed tolerance? no: residual 0.02,
        # but the direct slack probe must certify a violating subspace anyway.
        V = find_violating_subspace(datum, SearchBudget(), np.random.default_rng(1))
        assert V is not None
        assert slack(datum, V).slack > 1e-7
        full = ProductSubspace.full(datum.partition)
        assert slack(datum, full).slack == pytest.approx(0.02, abs=1e-12)

    def test_epi_has_no_witness(self):
        datum = blepi.make_epi_datum(0.5, 1)
        assert find_violating_subspace(datum, SearchBudget(), np.random.default_rng(2)) is None

    def test_kernel_aligned_block_with_small_exponent(self):
        datum = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[0.0, 1.0]]),),  # kernel is block one
            c=np.array([0.1]),
            d=np.array([1.0, 0.1]),
        )
        V = find_violating_subspace(datum, SearchBudget(), np.random.default_rng(3))
        assert V is not None
        assert V.block_dims[0] == 1  # the kernel-aligned coordinate direction
        assert slack(datum, V).slack > 1e-7
