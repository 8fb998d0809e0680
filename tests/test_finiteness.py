"""Finiteness verdicts, witnesses, splitting, and certificates.

Claims:
    - the scaling residual matches hand values and drives Infinite
      verdicts with an exact, re-checkable witness
    - subspace witnesses re-verify by recomputing slack from scratch
    - verdicts do not depend on the rng, nor on the units of one block:
      scaling one block's columns of every map leaves the status alone
    - the escape-ray probe answers infinite with a slack witness (a single
      block beyond a truncated coordinate family), and a per-block kernel
      product is a witness the other candidates miss
    - splitting along a critical subspace yields children that satisfy
      both finiteness conditions, reconstruct the parent maps exactly,
      keep an image basis exactly as wide as the image dimension, and
      split the solved optimum exactly
    - certificates terminate at the documented base cases with the
      documented constants, and reject a datum whose candidates include a
      violating subspace
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition
from blepi.finiteness import (
    FINITE,
    INFINITE,
    UNKNOWN,
    ScalingResidual,
    SplitError,
    ViolatingSubspace,
    ViolationError,
    certify,
    check_and_certify,
    check_finiteness,
    scaling_residual,
    split_datum,
)
from blepi.gauss import solve_mg
from blepi.subspace import ProductSubspace, SearchBudget, find_violating_subspace, slack
from conftest import random_datum


def diag_subspace():
    """The critical subspace (span{(1,1)}, R) of the coupled-sums datum."""
    return ProductSubspace.from_spans(
        Partition((2, 1)), [np.array([[1.0], [1.0]]), np.array([[1.0]])]
    )


def half_exponent_datum():
    return Datum(
        partition=Partition((1,)),
        maps=(np.array([[1.0]]),),
        c=np.array([0.5]),
        d=np.array([1.0]),
    )


class TestScalingResidual:
    def test_epi(self):
        assert scaling_residual(blepi.make_epi_datum(0.5, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_coupled_sums(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        assert scaling_residual(d) == pytest.approx(0.0, abs=1e-12)

    def test_half_exponent(self):
        assert scaling_residual(half_exponent_datum()) == pytest.approx(0.5)


class TestCheckFiniteness:
    def test_epi_is_finite(self):
        v = check_finiteness(blepi.make_epi_datum(0.4, 1), rng=np.random.default_rng(0))
        assert v.status == FINITE

    def test_scaling_violation_with_exact_residual(self):
        v = check_finiteness(half_exponent_datum(), rng=np.random.default_rng(0))
        assert v.status == INFINITE
        assert isinstance(v.witness, ScalingResidual)
        assert v.witness.value == pytest.approx(0.5, abs=1e-15)
        # re-check from scratch
        assert scaling_residual(half_exponent_datum()) == pytest.approx(v.witness.value)

    def test_shared_exponent_above_one(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.2, 0.6, 0.6)
        v = check_finiteness(d, rng=np.random.default_rng(0))
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        recomputed = slack(d, v.witness.subspace)
        assert recomputed.slack == pytest.approx(v.witness.slack)
        assert recomputed.slack > 1e-7
        # the documented witness ( {0} x R ) has slack 0.2
        axis = ProductSubspace.coordinate(d.partition, ((), (0,)))
        assert slack(d, axis).slack == pytest.approx(0.2)

    def test_kernel_witness_of_random_suite_draw_134(self):
        # its ker A_2 witness was scored with dim(A_2 V) = 1 from rounding
        # noise; the verdict then hung on the probe's random rays
        rng = np.random.default_rng(7)
        d = [random_datum(rng, balanced=True) for _ in range(135)][134]
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.slack == pytest.approx(0.50438, abs=1e-5)
        assert slack(d, v.witness.subspace).slack == v.witness.slack
        assert solve_mg(d).unbounded

    def test_verdict_ignores_the_rng(self):
        # random-suite draws 127-134; the verdict of draw 134 used to
        # depend on the probe's random rays (unknown with the last generator,
        # the one `blepi check --seed 0` passed)
        rng = np.random.default_rng(7)
        for d in [random_datum(rng, balanced=True) for _ in range(135)][127:]:
            docs = [
                check_finiteness(d, rng=g).to_dict()
                for g in (
                    None,
                    np.random.default_rng(0),
                    np.random.default_rng(1),
                    np.random.Generator(np.random.Philox(np.random.SeedSequence(0, spawn_key=(0,)))),
                )
            ]
            assert all(doc == docs[0] for doc in docs)

    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    def test_epi_with_one_block_in_other_units_is_finite(self, scale):
        # EPI with X2 measured in other units: slack does not see the units
        d = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[1.0, scale]]),),
            c=np.array([1.0]),
            d=np.array([0.5, 0.5]),
        )
        assert check_finiteness(d).status == FINITE
        res = solve_mg(d)
        assert res.converged and not res.unbounded

    def test_probe_ray_beyond_the_coordinate_budget_is_a_witness(self):
        # 13 scalar blocks: the first 4096 coordinate candidates all leave
        # block 0 out, and block 0 alone has slack 1.5 - 1 = 0.5
        A = np.random.default_rng(0).standard_normal((12, 13))
        d = Datum(
            partition=Partition((1,) * 13),
            maps=(A,),
            c=np.array([1.0]),
            d=np.array([1.5] + [10.5 / 12] * 12),
        )
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.subspace.block_dims == (1,) + (0,) * 12
        assert slack(d, v.witness.subspace).slack == v.witness.slack == pytest.approx(0.5)

    def test_per_block_kernel_witness_of_draw_739(self):
        # the witness is ker maps[1][:, block 3], with slack 0.0235; no
        # coordinate or whole-kernel candidate has positive slack
        rng = np.random.default_rng(123)
        d = [random_datum(rng, balanced=True) for _ in range(740)][739]
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.subspace.block_dims == (0, 0, 1)
        sr = slack(d, v.witness.subspace)
        assert sr.violating and sr.slack == v.witness.slack == pytest.approx(0.0235, abs=1e-4)
        assert solve_mg(d).unbounded

    def test_budget_exhaustion_is_unknown(self):
        d = blepi.make_epi_datum(0.5, 2)  # 16 coordinate subspaces
        v = check_finiteness(d, SearchBudget(profile_cap=2))
        assert v.status == UNKNOWN

    def test_invalid_datum_rejected(self):
        bad = Datum(
            partition=Partition((2,)),
            maps=(np.zeros((1, 2)),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        with pytest.raises(ValueError):
            check_finiteness(bad)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1e-2, 1e2, 1e6]),
    data=st.data(),
)
def test_verdict_is_invariant_under_a_change_of_units_in_one_block(seed, scale, data):
    d = random_datum(np.random.default_rng(seed), balanced=True)
    i = data.draw(st.integers(0, d.partition.k - 1))
    start, stop = d.partition.offsets()[i]
    maps = []
    for A in d.maps:
        A = A.copy()
        A[:, start:stop] *= scale
        maps.append(A)
    scaled = Datum(partition=d.partition, maps=tuple(maps), c=d.c, d=d.d)
    assert check_finiteness(scaled).status == check_finiteness(d).status


class TestSplit:
    def test_coupled_sums_split_children(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        parts = split_datum(d, diag_subspace())
        cu = parts.child_u.datum
        cp = parts.child_perp.datum
        assert cu.n == 2 and cp.n == 1
        assert abs(scaling_residual(cu)) <= 1e-9
        assert abs(scaling_residual(cp)) <= 1e-9
        # children satisfy the subspace condition too
        assert find_violating_subspace(cu, SearchBudget(), np.random.default_rng(0)) is None
        assert find_violating_subspace(cp, SearchBudget(), np.random.default_rng(0)) is None
        # dropped zero-dimensional images are recorded
        assert parts.child_perp.map_index == (0,)
        assert parts.child_perp.block_index == (0,)

    def test_noncritical_subspace_rejected(self):
        d = blepi.make_epi_datum(0.5, 1)
        V = ProductSubspace.coordinate(d.partition, ((0,), ()))
        assert slack(d, V).slack == pytest.approx(-0.5)
        with pytest.raises(SplitError):
            split_datum(d, V)

    def test_trivial_subspace_rejected(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(SplitError):
            split_datum(d, ProductSubspace.zero(d.partition))
        with pytest.raises(SplitError):
            split_datum(d, ProductSubspace.full(d.partition))

    def test_reconstruction_identity(self, rng):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        parts = split_datum(d, diag_subspace())
        for _ in range(10):
            x = rng.standard_normal(3)
            xt = parts.u_basis.T @ x
            xtt = parts.perp_basis.T @ x
            for j, A in enumerate(d.maps):
                F = parts.image_bases[j]
                G = parts.coimage_bases[j]
                recon = F @ (parts.restricted_maps[j] @ xt + parts.cross_maps[j] @ xtt)
                recon = recon + G @ (parts.quotient_maps[j] @ xtt)
                np.testing.assert_allclose(A @ x, recon, atol=1e-9)

    def test_subadditivity_of_the_optimum(self):
        # the constant splits exactly along a critical subspace
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        parts = split_datum(d, diag_subspace())
        parent = solve_mg(d)
        left = solve_mg(parts.child_u.datum)
        right = solve_mg(parts.child_perp.datum)
        for res in (parent, left, right):
            assert res.converged and not res.unbounded
        assert parent.mg_value == pytest.approx(left.mg_value + right.mg_value, abs=1e-9)

    def test_image_basis_of_a_subspace_in_a_kernel_is_empty(self):
        # coupled sums (1, 1, 0.5, 0.5) split along its second block leaves
        # a (2,) child whose first map kills span(1, 1) up to rounding
        # (A E = 7.8e-17); its image basis used to keep that noise as one
        # column, which left the U_perp grandchild with no maps (SplitError)
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        U = ProductSubspace.coordinate(d.partition, ((), (0,)))
        child = split_datum(d, U).child_perp.datum
        diag = ProductSubspace.from_spans(child.partition, [np.array([[1.0], [1.0]])])
        parts = split_datum(child, diag)
        assert [F.shape[1] for F in parts.image_bases] == list(slack(child, diag).per_map_dims)
        assert [F.shape[1] for F in parts.image_bases] == [0, 1, 1]


class TestCertify:
    def test_dim_one_leaf_constant(self):
        d = Datum(
            partition=Partition((1,)),
            maps=(np.array([[2.0]]),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        tree = certify(d)
        assert tree.is_leaf and tree.leaf_kind == "dim-1"
        assert tree.constant == pytest.approx(-math.log(2.0))

    def test_single_square_map_leaf(self):
        d = Datum(
            partition=Partition((1, 1)),
            maps=(np.eye(2),),
            c=np.array([1.0]),
            d=np.array([1.0, 1.0]),
        )
        tree = certify(d)
        assert tree.is_leaf and tree.leaf_kind == "single-map"
        assert tree.constant == pytest.approx(0.0)

    def test_coupled_sums_tree_splits_at_the_diagonal(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        rng = np.random.default_rng(5)
        tree = certify(d, rng=rng)
        assert not tree.is_leaf
        dims = sorted(child.datum.n for child in tree.children)
        assert dims == [1, 2]
        for leaf in tree.leaves():
            assert leaf.leaf_kind in ("dim-1", "single-map", "irreducible")
            if leaf.leaf_kind != "irreducible":
                assert math.isfinite(leaf.constant)

    def test_beta_one_coupled_sums_splits_into_dim_one_leaves(self):
        tree = certify(blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5))
        assert [leaf.leaf_kind for leaf in tree.leaves()] == ["dim-1"] * 3
        assert sum(leaf.constant for leaf in tree.leaves()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "d",
        [
            blepi.make_coupled_sums_datum(1.0, 1.2, 0.6, 0.6),
            # one square map but d_1 != c: once a finite single-map leaf
            Datum(
                partition=Partition((1, 1)),
                maps=(np.eye(2),),
                c=np.array([1.0]),
                d=np.array([1.5, 0.5]),
            ),
        ],
    )
    def test_violating_subspace_raises_with_the_witness(self, d):
        with pytest.raises(ViolationError) as exc:
            certify(d)
        assert exc.value.subspace.dim > 0
        assert slack(d, exc.value.subspace).violating
        assert isinstance(exc.value, ValueError)

    def test_children_inherit_balance(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        tree = certify(d, rng=np.random.default_rng(5))

        def walk(node):
            assert abs(scaling_residual(node.datum)) <= 1e-9
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(tree)

    def test_requires_balance(self):
        with pytest.raises(ValueError):
            certify(half_exponent_datum())

    def test_check_and_certify_attaches_certificate(self):
        d = blepi.make_epi_datum(0.5, 1)
        v = check_and_certify(d, rng=np.random.default_rng(0))
        assert v.status == FINITE
        assert v.certificate is not None
        doc = v.to_dict()
        assert doc["certificate"]["n"] == 2
