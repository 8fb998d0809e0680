"""Finiteness verdicts, witnesses, splitting, and certificates.

Claims:
    - the scaling residual matches hand values and drives Infinite
      verdicts with an exact, re-checkable witness
    - subspace witnesses re-verify by recomputing slack from scratch
    - splitting along a critical subspace yields children that satisfy
      both finiteness conditions, reconstruct the parent maps exactly,
      and obey the solver-level subadditivity bound
    - certificates terminate at the documented base cases with the
      documented constants
"""

import math

import numpy as np
import pytest

import blepi
from blepi.datum import Datum, Partition
from blepi.finiteness import (
    FINITE,
    INFINITE,
    UNKNOWN,
    ScalingResidual,
    SplitError,
    ViolatingSubspace,
    certify,
    check_and_certify,
    check_finiteness,
    scaling_residual,
    split_datum,
)
from blepi.gauss import SolverOptions, solve_mg
from blepi.subspace import ProductSubspace, SearchBudget, find_violating_subspace, slack


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
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        parts = split_datum(d, diag_subspace())
        opts = SolverOptions(tol=1e-4)
        parent = solve_mg(d, opts)
        left = solve_mg(parts.child_u.datum, opts)
        right = solve_mg(parts.child_perp.datum, opts)
        assert not (parent.unbounded or left.unbounded or right.unbounded)
        assert parent.mg_value <= left.mg_value + right.mg_value + 1e-4


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
