"""Gaussian entropy algebra, the solver, and the doubling identities.

Claims:
    - gaussian_entropy matches the closed form, handles dimension zero,
      and rejects non-SPD and non-finite input, as BlockCovariance does
    - the objective reproduces hand values, is exactly homogeneous of
      degree (scaling residual)/2 in log-scale, and its analytic
      gradient matches central finite differences
    - the perturbed objective reduces to the plain one at zero noise, is
      nonincreasing in epsilon, and converges as the noise vanishes
    - solve_mg finds the known optima, detects scaling divergence on
      either side of the balance, answers unbounded on a datum with a
      violating subspace or an escaping probe ray, survives ascents that
      run to the edge of the cone and an ill-conditioned image at
      Sigma = I without a RuntimeWarning, reports values accurate to
      rounding on seeded random draws, and reports equal-block
      covariances for the entropy power datum
    - _check_spd's one-expression symmetry test factors and rejects
      exactly the matrices np.allclose and Cholesky do (tolerance edges,
      NaN, inf and non-PD matrices included); the ascent's moved blocks,
      checked by Cholesky alone, still raise DegenerateImageError when
      not finite or not PD; and solve_mg on the families and 50 random
      draws equals, bit for bit, the solve with both checks as written
      with np.allclose and _check_spd on every moved block
    - scaling a map's rows shifts the solve by the log-determinant of the
      scaling, with the same flags and never NaN; scaling two scalar
      blocks 1e9 apart shifts it by -sum_i d_i log s_i to 1e-12; the
      kernel is degenerate below a Cholesky diagonal ratio of sqrt(eps)
      and not above it; without image noise the objective and gradient
      are evaluated on unit rows, as the ascent is, so at a converged
      covariance whose raw rows the kernel calls degenerate the objective
      is the solved value and the gradient the solver's; a near-singular
      square map the ascent cannot start on (NaN) solves through the
      explicit leaf's constant; all-square data, row-scaled ones and
      determinants that underflow included, solve to
      -sum_j c_j log|det A_j| at 50 digits to 1e-14
    - the solver takes no start count: each irreducible leaf gets one
      ascent from Sigma = I, so starts_used counts those leaves, and on a
      converged one-leaf datum no random covariance beats the value
    - boundary data, whose supremum is attained only in a degenerate
      limit, are solved exactly along the split tree, and the tree value
      equals the whole-datum ascent wherever that converges; a split
      solve reports one covariance per leaf, at which the leaf
      objectives sum to the value
    - the log-det kernel's value and geodesic gradient match the Cholesky
      formulas, it is degenerate where their Cholesky diagonals say so,
      and its Hessian matches Richardson-extrapolated central differences
      of the gradient and is negative semidefinite; the public gradient
      matches the Cholesky formulas, and at every scale the formulas
      evaluated in 50-digit arithmetic; a random draw whose optimum is
      near the boundary of the cone solves to a valid covariance
    - the divergence probe, scoring its rays in bulk, returns the ray (or
      None) that scoring the full space and then each single block with
      slack returns, basis for basis, on random and mixed-recipe data
    - on the doubled datum, the objective at two independent copies is
      the sum of their objectives and is invariant under the orthogonal
      two-copy rotation, an involution that rejects an odd block; the
      doubled datum checks as the datum does and, where both solves
      converge, solves to twice its constant
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition, doubled_datum
from blepi.finiteness import INFINITE, ViolatingSubspace, ViolationError, certify
from blepi.gauss import (
    _check_spd,
    _logdet_kernel,
    _moved,
    _newton,
    _sym_basis,
    LOG_2PIE,
    BlockCovariance,
    DegenerateImageError,
    PerturbationParams,
    SolverOptions,
    divergence_probe,
    gaussian_entropy,
    gradient,
    objective,
    objective_perturbed,
    ray_covariance,
    rotate_pair,
    solve_mg,
)
from blepi.subspace import (
    ProductSubspace,
    SearchBudget,
    block_diag,
    find_violating_subspace,
    slack,
)
from conftest import mixed_datum, random_block_covariance, random_datum

H1 = 0.5 * LOG_2PIE  # entropy of a unit-variance scalar Gaussian


def _leaf_objective_sum(d, res):
    """The objective at sigma_star; on a split datum, the sum over the
    leaves of certify(d) of the objective at the leaf's covariance, or of
    an explicit leaf's constant."""
    if not isinstance(res.sigma_star, tuple):
        return objective(d, res.sigma_star)
    leaves = certify(d).leaves()
    assert len(res.sigma_star) == len(leaves)
    return sum(
        objective(leaf.datum, S) if leaf.leaf_kind == "irreducible" else leaf.constant
        for leaf, S in zip(leaves, res.sigma_star)
    )


def _zamir_feder(seed, n, k):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))
    return blepi.make_zamir_feder_datum(Q.T)


# the named families: entropy power, interior and boundary coupled sums
# (alpha = 1 + delta - beta / 2) and Zamir-Feder
_FAMILIES = [
    blepi.make_epi_datum(0.3, 1),
    blepi.make_epi_datum(0.5, 2),
    blepi.make_epi_datum(0.3, 3),
    blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5),
    blepi.make_coupled_sums_datum(1.3, 0.4, 0.5, 0.5),
    blepi.make_coupled_sums_datum(1.0, 0.8, 0.4, 0.4),
    _zamir_feder(1, 4, 2),
    _zamir_feder(2, 6, 3),
]


def fd_gradient(datum, sigma, h=1e-5):
    """Central finite differences of the objective in each symmetric
    block-coordinate direction."""
    grads = []
    for bi, S in enumerate(sigma.blocks):
        r = S.shape[0]
        G = np.zeros((r, r))
        for a in range(r):
            for b in range(a, r):
                E = np.zeros((r, r))
                E[a, b] = E[b, a] = 1.0
                up = [blk.copy() for blk in sigma.blocks]
                dn = [blk.copy() for blk in sigma.blocks]
                up[bi] = S + h * E
                dn[bi] = S - h * E
                diff = (
                    objective(datum, BlockCovariance(tuple(up)))
                    - objective(datum, BlockCovariance(tuple(dn)))
                ) / (2 * h)
                # <G, E> = 2 G_ab off-diagonal, G_aa on the diagonal
                if a == b:
                    G[a, a] = diff
                else:
                    G[a, b] = G[b, a] = diff / 2.0
        grads.append(G)
    return grads


class TestGaussianEntropy:
    def test_unit_scalar(self):
        assert gaussian_entropy([[1.0]]) == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_additivity(self):
        assert gaussian_entropy(np.eye(2)) == pytest.approx(2 * H1, abs=1e-12)

    def test_scaling(self):
        assert gaussian_entropy([[4.0]]) == pytest.approx(H1 + 0.5 * math.log(4), abs=1e-12)

    def test_zero_dimension(self):
        assert gaussian_entropy(np.zeros((0, 0))) == 0.0

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            gaussian_entropy([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize(
        "M",
        [
            [[math.inf]],
            [[1.0, math.inf], [math.inf, math.inf]],
            [[1.0, math.nan], [math.nan, 1.0]],
        ],
    )
    def test_rejects_non_finite(self, M):
        # np.linalg.cholesky factors these with at most a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                gaussian_entropy(M)
            with pytest.raises(ValueError, match="non-finite"):
                BlockCovariance((np.array(M),))


class TestObjective:
    def test_epi_at_identity(self):
        d = blepi.make_epi_datum(0.5, 1)
        sig = BlockCovariance.identity(d.partition)
        assert objective(d, sig) == pytest.approx(0.0, abs=1e-12)

    def test_epi_unequal_variances(self):
        d = blepi.make_epi_datum(0.5, 1)
        sig = BlockCovariance((np.array([[1.0]]), np.array([[4.0]])))
        expected = 0.5 * math.log(2.0) - 0.5 * math.log(2.5)
        assert objective(d, sig) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance_under_balance(self, rng):
        d = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        sig = random_block_covariance(rng, d.partition)
        assert objective(d, sig.scaled(7.0)) == pytest.approx(objective(d, sig), abs=1e-9)

    def test_homogeneity_identity(self, rng):
        for _ in range(10):
            datum = random_datum(rng)
            sig = random_block_covariance(rng, datum.partition)
            base = objective(datum, sig)
            res = blepi.scaling_residual(datum)
            for t in (0.1, 7.0, 100.0):
                expected = base + 0.5 * res * math.log(t)
                assert objective(datum, sig.scaled(t)) == pytest.approx(expected, abs=1e-9)


class TestPerturbedObjective:
    def test_zero_noise_is_exact(self, rng):
        datum = random_datum(rng)
        sig = random_block_covariance(rng, datum.partition)
        p0 = PerturbationParams(0.0, 0.0)
        assert objective_perturbed(datum, sig, p0) == objective(datum, sig)

    def test_epi_known_value(self):
        d = blepi.make_epi_datum(0.5, 1)
        sig = BlockCovariance.identity(d.partition)
        val = objective_perturbed(d, sig, PerturbationParams(epsilon=0.01, delta=0.0))
        assert val == pytest.approx(-0.5 * math.log(1.01), abs=1e-12)

    def test_nonincreasing_in_epsilon(self, rng):
        datum = random_datum(rng)
        sig = random_block_covariance(rng, datum.partition)
        vals = [
            objective_perturbed(datum, sig, PerturbationParams(eps, 0.05))
            for eps in (0.1, 0.05, 0.01, 0.001)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_converges_as_noise_vanishes(self, rng):
        # each term's noise gap is concave in the noise level, so its slope
        # at zero is a rigorous linear bound; summing absolute slopes gives
        # an instance constant C with |gap| <= C * delta
        for _ in range(5):
            datum = random_datum(rng)
            sig = random_block_covariance(rng, datum.partition)
            base = objective(datum, sig)
            full = sig.full()
            C = sum(
                di * 0.5 * np.trace(np.linalg.inv(S))
                for di, S in zip(datum.d, sig.blocks)
            )
            for cj, A in zip(datum.c, datum.maps):
                M = A @ full @ A.T
                C += cj * 0.5 * np.trace(np.linalg.solve(M, A @ A.T + np.eye(A.shape[0])))
            gaps = [
                abs(objective_perturbed(datum, sig, PerturbationParams(10.0**-t, 10.0**-t)) - base)
                for t in range(1, 9)
            ]
            assert gaps[-1] <= 1e-6
            for t, gap in enumerate(gaps, start=1):
                assert gap <= C * 10.0**-t + 1e-12


class TestGradient:
    def test_epi_stationary_at_identity(self):
        d = blepi.make_epi_datum(0.5, 1)
        grads = gradient(d, BlockCovariance.identity(d.partition))
        for G in grads:
            assert np.abs(G).max() < 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            datum = random_datum(rng)
            sig = random_block_covariance(rng, datum.partition)
            analytic = gradient(datum, sig)
            numeric = fd_gradient(datum, sig)
            scale = max(1.0, max(np.abs(G).max() for G in analytic))
            err = max(np.abs(A - N).max() for A, N in zip(analytic, numeric))
            assert err / scale < 1e-5

    def test_inverse_scaling_under_balance(self, rng):
        datum = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        sig = random_block_covariance(rng, datum.partition)
        g1 = gradient(datum, sig)
        g2 = gradient(datum, sig.scaled(2.0))
        for A, B in zip(g1, g2):
            np.testing.assert_allclose(B, 0.5 * A, atol=1e-10)


class TestSolver:
    def test_epi_optimum_and_equal_blocks(self):
        d = blepi.make_epi_datum(0.3, 1)
        res = solve_mg(d)
        assert res.converged and not res.unbounded
        assert abs(res.mg_value) <= 1e-6
        s1 = res.sigma_star.blocks[0][0, 0]
        s2 = res.sigma_star.blocks[1][0, 0]
        assert s1 == pytest.approx(s2, rel=1e-5)  # equal covariances up to scale

    def test_coordinate_projection_bound(self):
        # h(X) <= h(X_1) + h(X_2): optimum zero at diagonal covariance
        d = Datum(
            partition=Partition((2,)),
            maps=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
            c=np.array([1.0, 1.0]),
            d=np.array([1.0]),
        )
        res = solve_mg(d)
        assert res.converged and abs(res.mg_value) <= 1e-6
        # grid oracle over the correlation coefficient
        rhos = np.linspace(-0.99, 0.99, 199)
        grid_best = max(
            objective(d, BlockCovariance((np.array([[1.0, r], [r, 1.0]]),))) for r in rhos
        )
        assert res.mg_value >= grid_best - 1e-9

    def test_scaling_violation_is_unbounded(self):
        cases = [
            # residual +0.5: the objective grows as Sigma inflates
            (
                Datum(
                    partition=Partition((1,)),
                    maps=(np.array([[1.0]]),),
                    c=np.array([0.5]),
                    d=np.array([1.0]),
                ),
                2.0**10,
            ),
            # coupled sums (1.05, 0.9, 0.6), residual -0.2: it grows as Sigma shrinks
            (blepi.make_coupled_sums_datum(1.05, 0.9, 0.6, 0.6), 2.0**-10),
        ]
        for d, scale in cases:
            res = solve_mg(d)
            assert res.unbounded and not res.converged
            assert res.mg_value == math.inf
            assert res.starts_used == 0
            for S in res.sigma_star.blocks:
                np.testing.assert_array_equal(S, scale * np.eye(S.shape[0]))

    def test_nonfinite_factor_in_a_start_does_not_crash(self):
        # random-suite draw #3 is infinite through a per-block kernel
        # subspace that the search does not try, so the ascent runs towards
        # the edge of the cone; an earlier solver overflowed exp() there and
        # raised ValueError.  No convergence.
        rng = np.random.default_rng(7)
        d = [random_datum(rng, balanced=True) for _ in range(4)][3]
        res = solve_mg(d)
        assert not res.converged

    def test_no_runtime_warnings(self):
        # seeded random draw 2 of np.random.default_rng([2, 3]): an earlier
        # solver overflowed exp() on its steps and printed RuntimeWarnings
        # (log(0), overflow and NaN in matmul)
        rng = np.random.default_rng([2, 3])
        d = [random_datum(rng, balanced=(i + 1) % 5 != 0) for i in range(3)][2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_mg(d)

    @pytest.mark.parametrize(
        "seed, draw, value",
        [
            # draw 142 of the 150-draw random suite: the Cholesky-parameter
            # ascent reported -1.6688753685341096
            (7, 142, -1.6688753685446038),
            # it reported 7.173113462491073
            (123, 401, 7.1731134624251231),
        ],
    )
    def test_value_is_accurate_to_rounding(self, seed, draw, value):
        # the values are the objective at the returned sigma_star evaluated
        # with 60-digit arithmetic
        rng = np.random.default_rng(seed)
        d = [random_datum(rng, balanced=True) for _ in range(draw + 1)][draw]
        res = solve_mg(d)
        assert res.converged
        assert res.mg_value == pytest.approx(value, abs=1e-13)

    @pytest.mark.parametrize("seed, draw", [(123, 722), (594, 3)])
    def test_objective_at_sigma_star_does_not_exceed_the_value(self, seed, draw):
        # draw 722 of np.random.default_rng(123): the objective formed
        # A_j Sigma A_j^T and exceeded mg_value by 7.3e-9 at sigma_star.
        # Draw 3 of np.random.default_rng(594) is infinite through a
        # subspace the search misses, so its solve does not converge; the
        # objective refactored a sigma_star block of condition number 1e13
        # that the solver held as a factor, and exceeded mg_value by 4.6e-6.
        # Draw 722 splits, so its sigma_star is one covariance per leaf
        rng = np.random.default_rng(seed)
        d = [random_datum(rng, balanced=True) for _ in range(draw + 1)][draw]
        res = solve_mg(d)
        assert _leaf_objective_sum(d, res) <= res.mg_value + 1e-12

    def test_ill_conditioned_identity_image_does_not_raise(self):
        # A Sigma A^T at Sigma = I has condition number 1e14, above the
        # 1e12 an earlier solver cut at, and the objective is the constant
        # -log(1e-7); the reference value at Sigma = I used to raise out of
        # solve_mg, and every ascent used to fail; it is an explicit leaf
        # of its tree
        d = Datum(
            partition=Partition((2,)),
            maps=(np.array([[1.0, 0.0], [0.0, 1e-7]]),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        res = solve_mg(d)
        assert res.converged and not res.unbounded
        assert res.mg_value == pytest.approx(-math.log(1e-7), abs=1e-9)

    def test_near_singular_square_map_needs_the_single_map_leaf(self):
        # [[1, 1], [1, 1 + 1e-9]] has rows 5e-10 apart in angle, so the
        # image's Cholesky diagonal ratio at Sigma = I is below
        # sqrt(eps) and the ascent returns NaN; the explicit leaf's
        # -log|det A| is what makes the solve converge
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        d = Datum(partition=Partition((2,)), maps=(A,), c=np.array([1.0]), d=np.array([1.0]))
        assert certify(d).leaf_kind == "explicit"
        res = solve_mg(d)
        assert res.converged and not res.unbounded
        assert res.mg_value == -math.log(abs(np.linalg.det(A)))
        assert res.mg_value == pytest.approx(20.7233, abs=1e-4)
        assert math.isnan(_newton(d, SolverOptions())[0])

    def test_column_scales_apart_by_1e9_shift_the_value_exactly(self):
        # scaling block i by s_i moves M by -d_i log s_i.  The ascent divides
        # each row by its norm, which keeps the relative accuracy of the
        # small entry; a Householder QR of the row would not (it was off
        # by 2.6e-8 here)
        maps = (np.array([[0.8, 1.1]]), np.array([[1.3, -0.6]]))
        part, c, dexp = Partition((1, 1)), np.array([0.6, 0.8]), np.array([0.9, 0.5])
        s = np.array([3e-5, 4e4])
        base = solve_mg(Datum(partition=part, maps=maps, c=c, d=dexp))
        scaled = solve_mg(Datum(partition=part, maps=tuple(A * s for A in maps), c=c, d=dexp))
        assert base.converged and scaled.converged
        assert abs(scaled.mg_value - (base.mg_value - float(dexp @ np.log(s)))) <= 1e-12

    def test_objective_at_a_converged_solve_with_rows_far_apart(self):
        """Draw 137 of mixed_datum(default_rng(2026)): partition (1, 3, 2, 1),
        row norms from 1.4e-5 to 7.7e5.  The ascent converges on unit rows;
        on the rows as given the kernel calls an image degenerate at the
        maximizer, so objective and gradient evaluate on unit rows too."""
        rng = np.random.default_rng(2026)
        for _ in range(138):
            datum = mixed_datum(rng)
        assert datum.partition.blocks == (1, 3, 2, 1)
        res = solve_mg(datum)
        assert res.converged and not isinstance(res.sigma_star, tuple)
        factors = [np.linalg.cholesky(S) for S in res.sigma_star.blocks]
        with pytest.raises(DegenerateImageError):
            _logdet_kernel(datum, factors)
        assert objective(datum, res.sigma_star) == res.mg_value
        grads = gradient(datum, res.sigma_star)
        # the solver's scale-free norm ||Diag(L_i^T G_i L_i)||_F
        gnorm = math.hypot(*(np.linalg.norm(F.T @ G @ F) for F, G in zip(factors, grads)))
        assert gnorm == pytest.approx(res.gradient_norm, rel=1e-6)

    def test_objective_of_a_zero_row_is_degenerate(self):
        d = Datum(
            partition=Partition((2,)),
            maps=(np.array([[1.0, 0.0], [0.0, 0.0]]),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        sig = BlockCovariance.identity(d.partition)
        for f in (objective, gradient):
            with pytest.raises(DegenerateImageError):
                f(d, sig)
        # image noise is defined on the rows as given, which it keeps
        val = objective_perturbed(d, sig, PerturbationParams(epsilon=0.5))
        assert val == pytest.approx(2 * H1 - 0.5 * (2 * LOG_2PIE + math.log(1.5 * 0.5)), abs=1e-12)

    @pytest.mark.parametrize("t, degenerate", [(1e-8, True), (2e-8, False)])
    def test_kernel_is_degenerate_below_sqrt_eps(self, t, degenerate):
        # at Sigma = I the image Cholesky diagonal of diag(1, t) is (1, t);
        # sqrt(eps) = 1.49e-8 is the kernel's one conditioning rule
        d = Datum(
            partition=Partition((2,)),
            maps=(np.diag([1.0, t]),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        factors = [np.eye(2)]
        if degenerate:
            with pytest.raises(DegenerateImageError):
                _logdet_kernel(d, factors)
        else:
            assert _logdet_kernel(d, factors)[0] == pytest.approx(-math.log(t), abs=1e-12)

    def test_boundary_random_draw_solves_to_a_valid_covariance(self):
        # seeded random draw 18 of np.random.default_rng([1, 3]): the datum
        # is infinite through a per-block kernel subspace that the search
        # does not try, so the ascent runs to the edge of the cone, where
        # any other rounding of the objective can end in a sigma_star that
        # is not positive definite and a ValueError out of solve_mg
        rng = np.random.default_rng([1, 3])
        d = [random_datum(rng, balanced=(i + 1) % 5 != 0) for i in range(19)][18]
        res = solve_mg(d)
        revalidated = BlockCovariance(res.sigma_star.blocks)
        assert all(np.isfinite(S).all() for S in revalidated.blocks)

    def test_beta_one_coupled_sums_is_solved_exactly(self):
        # the supremum 0 is attained only in a degenerate limit; every
        # leaf of the split tree is explicit, so no ascent runs
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        res = solve_mg(d)
        assert res.converged and not res.unbounded
        assert abs(res.mg_value) <= 1e-12
        assert res.starts_used == 0 and res.gradient_norm == 0.0

    def test_boundary_coupled_sums_is_solved_exactly(self):
        # the families boundary point alpha = 1, rho = 1: the whole-datum
        # ascent used to stop at gradient norm 0.38
        d = blepi.make_coupled_sums_datum(1.0, 0.8, 0.4, 0.4)
        res = solve_mg(d)
        C, _ = blepi.coupled_sums_constant(1.0, 0.8, 0.4)
        assert res.converged and not res.unbounded
        assert res.mg_value == pytest.approx(C, abs=1e-12)
        assert abs(_leaf_objective_sum(d, res) - res.mg_value) <= 1e-12 * (1 + abs(res.mg_value))

    def test_violating_subspace_is_unbounded(self):
        # seeded random draw 16 of np.random.default_rng([1, 3]) (every
        # fifth draw unbalanced): its (2, 2) datum has a subspace witness
        # that no probe ray hits, and solve_mg used to return 2.29
        rng = np.random.default_rng([1, 3])
        d = [random_datum(rng, balanced=(i + 1) % 5 != 0) for i in range(17)][16]
        verdict = blepi.check_finiteness(d, rng=np.random.default_rng(0))
        assert verdict.status == INFINITE
        assert isinstance(verdict.witness, ViolatingSubspace)
        res = solve_mg(d)
        assert res.unbounded and not res.converged
        assert res.mg_value == math.inf and res.starts_used == 0
        V = find_violating_subspace(d, SearchBudget())
        expected = ray_covariance(d.partition, V, 2.0**10)
        for S, E in zip(res.sigma_star.blocks, expected.blocks):
            np.testing.assert_array_equal(S, E)

    def test_probe_ray_beyond_the_coordinate_budget_is_unbounded(self):
        # 13 scalar blocks: the first 4096 coordinate candidates all leave
        # block 0 out, and block 0 alone has slack 2 - 0.5 - 0.5 = 1;
        # solve_mg used to return 13.815, unconverged and not unbounded
        d = Datum(
            partition=Partition((1,) * 13),
            maps=(np.ones((1, 13)), np.eye(13)),
            c=np.array([0.5, 0.5]),
            d=np.array([2.0] + [5 / 12] * 12),
        )
        assert blepi.check_finiteness(d).status == INFINITE
        res = solve_mg(d)
        assert res.unbounded and not res.converged
        assert res.mg_value == math.inf and res.starts_used == 0
        V = ProductSubspace.coordinate(d.partition, ((0,),) + ((),) * 12)
        expected = ray_covariance(d.partition, V, 2.0**10)
        for S, E in zip(res.sigma_star.blocks, expected.blocks):
            np.testing.assert_array_equal(S, E)

    def test_start_count_is_not_an_option(self):
        with pytest.raises(TypeError):
            SolverOptions(starts=8)
        assert SolverOptions().starts == 1

    @pytest.mark.parametrize("d", _FAMILIES, ids=lambda d: d.metadata["family"])
    def test_one_ascent_per_irreducible_leaf(self, d):
        res = solve_mg(d)
        assert res.converged
        kinds = [leaf.leaf_kind for leaf in certify(d).leaves()]
        assert res.starts_used == kinds.count("irreducible")


def _probe_by_slack(datum):
    """The probe as a loop: the first of the full space and each single
    block, built as a subspace and scored with slack, that violates."""
    blocks = datum.partition.blocks
    rays = [ProductSubspace.full(datum.partition)] + [
        ProductSubspace(tuple(np.eye(r) if j == i else np.zeros((r, 0)) for j, r in enumerate(blocks)))
        for i in range(len(blocks))
    ]
    return next((V for V in rays if slack(datum, V).violating), None)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), recipe=st.sampled_from(["balanced", "unbalanced", "mixed"]))
def test_bulk_probe_returns_the_ray_slack_returns(seed, recipe):
    """The recipes reach both outcomes: on balanced data the full space is
    critical and a single block may escape; about a third of unbalanced
    draws escape along the full space."""
    rng = np.random.default_rng(seed)
    datum = mixed_datum(rng) if recipe == "mixed" else random_datum(rng, balanced=recipe == "balanced")
    got, expected = divergence_probe(datum), _probe_by_slack(datum)
    if expected is None:
        assert got is None
        return
    assert got.block_dims == expected.block_dims
    assert all(np.array_equal(B, C) for B, C in zip(got.bases, expected.bases))
    assert slack(datum, got).violating


def _row_scaled(seed):
    """random_datum(default_rng(seed), balanced=True), the datum with each
    map row scaled by 10^U(-6, 6) from the same generator, and the scales."""
    rng = np.random.default_rng(seed)
    d = random_datum(rng, balanced=True)
    s = [10.0 ** rng.uniform(-6, 6, A.shape[0]) for A in d.maps]
    scaled = Datum(
        partition=d.partition,
        maps=tuple(A * sj[:, None] for A, sj in zip(d.maps, s)),
        c=d.c,
        d=d.d,
    )
    return d, scaled, s


def _log_det_constant(d):
    """-sum_j c_j log|det A_j| of an all-square datum, at 50 digits."""
    with mpmath.workdps(50):
        terms = [
            mpmath.mpf(float(cj)) * mpmath.log(abs(mpmath.det(mpmath.matrix(A.tolist()))))
            for cj, A in zip(d.c, d.maps)
        ]
        return float(-mpmath.fsum(terms))


_SQUARE_DRAWS = {
    # draws 1468 and 1956 of mixed_datum(default_rng(2026)): 3x3 maps with
    # rows 1e7 to 1e13 apart, and four 2x2 maps with c = (0, 1, 0, 0)
    "mixed-1468": Datum(
        partition=Partition((3,)),
        maps=(
            np.array([
                [9.847738033349698, 15.798978040565775, -19.24215630962428],
                [-9.45414054920224e-06, -1.677007015337709e-05, -1.325301620678361e-05],
                [2.485818061610215e-06, 1.0717110126488653e-06, 2.2828733763241372e-06],
            ]),
            np.array([
                [2.8257165541719337e-06, 1.70545931555542e-06, -1.3957394964185957e-07],
                [-160329.56036587, -204384.35840894893, 1024736.4147999734],
                [8.774665243121778e-06, -2.851915864794865e-05, 4.727895815122213e-05],
            ]),
        ),
        c=np.array([0.2583194419997887, 0.20934914267705862]),
        d=np.array([0.46766858467684724]),
    ),
    "mixed-1956": Datum(
        partition=Partition((2,)),
        maps=(
            np.array([[-0.05133294873595966, 0.027138849219155887], [-401880.51279208844, 399477.0030479006]]),
            np.array([[-5.414495406985092e-07, 1.2359716409264532e-06], [6104.813165110481, 249051.74570230252]]),
            np.array([[2.079928343688396e-06, 4.033477637453206e-06], [323.1225990464421, 1816.0744139613264]]),
            np.array([[0.042132766665131154, -0.03033309977738126], [106637.75017859356, -40126.17443275888]]),
        ),
        c=np.array([0.0, 1.0, 0.0, 0.0]),
        d=np.array([1.0]),
    ),
}
# seeds of _row_scaled whose data have only 2x2 maps on one 2-d block
_SQUARE_DRAWS.update({f"row-scaled-{seed}": _row_scaled(seed)[1] for seed in (574, 972, 1745)})
# one square map whose determinant underflows to 0
_SQUARE_DRAWS.update(
    {
        name: Datum(partition=Partition(part), maps=(A,), c=np.array([1.0]), d=np.ones(len(part)))
        for name, part, A in [
            ("tiny-det-2x2", (1, 1), 1e-200 * np.array([[1.0, 0.5], [0.2, 1.0]])),
            ("tiny-det-3-block", (3,), 1e-120 * np.eye(3)),
            ("tiny-det-seeded", (1, 2), 1e-110 * np.random.default_rng(3).standard_normal((3, 3))),
        ]
    }
)


@pytest.mark.parametrize("d", _SQUARE_DRAWS.values(), ids=_SQUARE_DRAWS.keys())
def test_all_square_datum_solves_to_its_log_determinant(d):
    """A datum whose maps are all square has the objective
    1/2 sum_i (d_i - C) log det Sigma_i - sum_j c_j log|det A_j|, C = sum c_j,
    so with the balance it is one explicit leaf.  The five draws were split
    along critical subspaces into dimension-one leaves, which lost digits
    on the badly scaled rows: they solved converged but off by 1.8e-7,
    1.4e-7, 2.6e-8, 1.3e-9 and 1.5e-7.  On the tiny determinants det(A)
    underflowed to 0, and math.log of it raised out of certify."""
    tree = certify(d)
    assert tree.is_leaf and tree.leaf_kind == "explicit"
    res = solve_mg(d)
    M = _log_det_constant(d)
    assert res.converged and res.starts_used == 0 and res.mg_value == tree.constant
    assert abs(res.mg_value - M) <= 1e-14 * (1.0 + abs(M))
    for S in res.sigma_star.blocks:
        np.testing.assert_array_equal(S, np.eye(S.shape[0]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=6)
@example(seed=32)
@example(seed=64411)
def test_row_scaling_shifts_the_solve_by_its_log_determinant(seed):
    """Scaling the rows of A_j by s_jk moves M by -sum_j c_j sum_k log s_jk
    and nothing else.  With every row scaled by 10^U(-6, 6) the solve has
    the unscaled flags and is never NaN, and where it converges its value
    is the unscaled one plus that shift.  Seeds 6 and 32 solved to NaN
    when the solver cut image condition numbers at 1e12.  On seed 64411
    the rank cut scores a coordinate member of the scaled datum violating
    (float slack 0.035) whose exact ranks give slack -1.04; the scaled
    side read unbounded and the unscaled side finite until the screen
    confirmed a violating member by its exact slack."""
    d, scaled, s = _row_scaled(seed)
    base, res = solve_mg(d), solve_mg(scaled)
    assert not math.isnan(res.mg_value)
    assert (res.converged, res.unbounded, res.starts_used) == (
        base.converged,
        base.unbounded,
        base.starts_used,
    )
    if base.converged:
        M = base.mg_value - sum(cj * sum(map(math.log, sj)) for cj, sj in zip(d.c, s))
        assert abs(res.mg_value - M) <= 1e-9 * (1.0 + abs(M))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_no_random_covariance_beats_a_converged_one_leaf_solve(seed):
    """On a one-leaf datum the single ascent from Sigma = I is the whole
    solve; wherever it converges, concavity makes its value the maximum,
    so the objective at 20 random block covariances stays below it."""
    rng = np.random.default_rng(seed)
    d = random_datum(rng, balanced=True)
    try:
        tree = certify(d)
    except ViolationError:
        return
    if len(tree.leaves()) != 1:
        return
    res = solve_mg(d)
    if not res.converged:
        return
    for _ in range(20):
        assert objective(d, random_block_covariance(rng, d.partition)) <= res.mg_value + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 9))
@example(seed=7, draw=5)
@example(seed=7, draw=42)
def test_split_tree_value_matches_the_whole_datum_ascent(seed, draw):
    """Where the ascent on the whole datum converges, the sum over the
    split tree equals its value, and so does the sum of the leaf
    objectives at sigma_star's per-leaf covariances.  A datum whose tree is one irreducible leaf is
    solved by that same ascent, so only split data are compared.  Draws 5
    and 42 of default_rng(7) are the two data of the 150-draw random
    suite whose trees split."""
    rng = np.random.default_rng(seed)
    d = [random_datum(rng, balanced=True) for _ in range(draw + 1)][draw]
    try:
        tree = certify(d)
    except ViolationError:
        return
    if tree.leaf_kind == "irreducible":
        return
    opts = SolverOptions()
    whole, _, gnorm = _newton(d, opts)
    if gnorm <= opts.tol:
        res = solve_mg(d, opts)
        assert res.converged
        assert res.mg_value == pytest.approx(whole, abs=1e-9)
        assert abs(_leaf_objective_sum(d, res) - res.mg_value) <= 1e-12 * (1 + abs(res.mg_value))


def _allclose_spd(M, what):
    """``_check_spd`` as written with ``np.allclose``, kept to pin the
    one-expression symmetry test to it."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        return M
    if not np.isfinite(M).all():
        raise ValueError(f"{what} has non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    if not np.allclose(M, M.T, atol=1e-10 * scale):
        raise ValueError(f"{what} is not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} is not positive definite") from exc


def _checked_moved(datum, factors, X):
    """``_moved`` as written with each block through ``_allclose_spd``."""
    blocks, out = [], []
    for (start, stop), F in zip(datum.partition.offsets(), factors):
        w, V = np.linalg.eigh(X[start:stop, start:stop])
        half = F @ (V * np.exp(0.5 * w))
        S = half @ half.T
        try:
            out.append(_allclose_spd(S, "covariance block"))
        except ValueError as exc:
            raise DegenerateImageError("covariance block is numerically singular") from exc
        blocks.append(S)
    return blocks, out


def _spd_outcome(check, M):
    """The factor's bytes, or the message of the ValueError raised."""
    try:
        return check(M, "M").tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    kind=st.sampled_from(["spd", "straddle", "asymmetric", "non-finite", "non-pd"]),
    decade=st.integers(-12, 12),
    edge=st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]),
)
def test_check_spd_accepts_and_rejects_as_allclose_and_cholesky(seed, n, kind, decade, edge):
    """The symmetry test |M - M^T| <= atol + 1e-5 |M^T| is np.allclose's,
    so _check_spd factors, and rejects with the same message, exactly the
    matrices the np.allclose form does: SPD matrices over 24 decades,
    asymmetries placed at edge times the tolerance of one entry, generic
    matrices, matrices with a NaN or an infinity, and symmetric ones with
    an eigenvalue at or below zero."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    M = 10.0**decade * (G @ G.T + 0.1 * np.eye(n))
    M = 0.5 * (M + M.T)
    i, j = (int(x) for x in rng.integers(0, n, 2))
    if kind == "straddle":
        atol = 1e-10 * max(1.0, float(np.abs(M).max()))
        M[i, j] = M[j, i] + rng.choice([-1.0, 1.0]) * edge * (atol + 1e-5 * abs(M[j, i]))
    elif kind == "asymmetric":
        M = 10.0**decade * G
    elif kind == "non-finite":
        M[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "non-pd":
        w = rng.standard_normal(n)
        w[i] = 0.0 if edge == 1.0 else -abs(w[i])  # an eigenvalue at or below zero
        Q = np.linalg.qr(G)[0]
        M = 10.0**decade * (Q * w) @ Q.T
        M = 0.5 * (M + M.T)
    assert _spd_outcome(_check_spd, M) == _spd_outcome(_allclose_spd, M)


@pytest.mark.parametrize(
    "F",
    [
        np.array([[1.0, 0.0], [1.0, 0.0]]),       # singular: not positive definite
        np.array([[1.0, 0.0], [math.nan, 1.0]]),  # NaN block
        np.array([[1e200, 0.0], [0.0, 1.0]]),     # block overflows to inf
    ],
    ids=["singular", "nan", "overflow"],
)
def test_moved_raises_on_a_block_that_is_not_finite_or_not_positive_definite(F):
    datum = blepi.make_epi_datum(0.5, 2)
    factors = [F, np.eye(2)]
    with np.errstate(over="ignore"):
        for moved in (_moved, _checked_moved):
            with pytest.raises(DegenerateImageError):
                moved(datum, factors, np.zeros((4, 4)))


def _solve_bits(res):
    """Every output of a solve, floats by their bits."""
    sigmas = res.sigma_star if isinstance(res.sigma_star, tuple) else (res.sigma_star,)
    blocks = [S.tobytes() for sigma in sigmas for S in sigma.blocks]
    flags = (res.converged, res.unbounded, res.starts_used)
    return repr(res.mg_value), repr(res.gradient_norm), flags, blocks


def test_solves_equal_those_of_the_allclose_checks_bit_for_bit(monkeypatch):
    """The ascent checks its moved blocks by Cholesky alone and _check_spd
    tests symmetry in one expression; solve_mg on the named families and
    50 balanced random draws gives, to the bit, the outputs it gives with
    both written as before (np.allclose, and _check_spd on every block)."""
    rng = np.random.default_rng(2019)
    data = _FAMILIES + [random_datum(rng, balanced=True) for _ in range(50)]
    new = [_solve_bits(solve_mg(d)) for d in data]
    monkeypatch.setattr("blepi.gauss._moved", _checked_moved)
    monkeypatch.setattr("blepi.gauss._check_spd", _allclose_spd)
    old = [_solve_bits(solve_mg(d)) for d in data]
    assert new == old
    assert sum(flags[2] for _, _, flags, _ in new) >= 20  # ascents were run


# the accuracy checks below cover image covariances of condition number
# up to this, the range their tolerances were measured on; the kernel
# itself accepts any whose Cholesky diagonal ratio is above sqrt(eps)
_KAPPA_LIMIT = 1e12


def _reference_gradient(datum, factors):
    """The Cholesky formulas at Sigma = Diag(L_i L_i^T): objective value and
    the per-block gradient 0.5 d_i Sigma_i^{-1} - 0.5 [sum_j c_j A_j^T
    M_j^{-1} A_j]_ii with M_j = A_j Sigma A_j^T formed and factored by
    Cholesky, and the smallest ratio of Cholesky diagonals over the images
    (0 if one fails)."""
    import scipy.linalg

    offsets = datum.partition.offsets()
    blocks = [F @ F.T for F in factors]
    full = scipy.linalg.block_diag(*blocks)
    val, ratio = 0.0, 1.0
    for di, F in zip(datum.d, factors):
        val += di * 0.5 * (F.shape[0] * LOG_2PIE + 2.0 * np.sum(np.log(np.diag(F))))
    T = np.zeros((datum.n, datum.n))
    for cj, A in zip(datum.c, datum.maps):
        M = A @ full @ A.T
        M = 0.5 * (M + M.T)
        try:
            cm = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return None, None, 0.0
        dg = np.diag(cm)
        ratio = min(ratio, dg.min() / dg.max())
        val -= cj * gaussian_entropy(M)
        T += cj * (A.T @ scipy.linalg.cho_solve((cm, True), A))
    grads = []
    for (start, stop), di, F in zip(offsets, datum.d, factors):
        G = 0.5 * di * scipy.linalg.cho_solve((F, True), np.eye(F.shape[0]))
        G -= 0.5 * T[start:stop, start:stop]
        grads.append(0.5 * (G + G.T))
    return val, grads, ratio


def _reference_kappa(datum, factors):
    """The reference forms Sigma and A_j Sigma A_j^T, so it is accurate to
    about eps times the largest of their condition numbers, returned here."""
    import scipy.linalg

    full = scipy.linalg.block_diag(*(F @ F.T for F in factors))
    return max(
        [np.linalg.cond(F) ** 2 for F in factors]
        + [
            np.linalg.norm(A, 2) ** 2 * np.linalg.norm(full, 2) / np.linalg.eigvalsh(A @ full @ A.T)[0]
            for A in datum.maps
        ]
    )


def _whitened(datum, factors, grads, basis):
    """The gradient in the coordinates Sigma = L exp(X) L^T: Diag(L_i^T G_i L_i)
    in the basis."""
    import scipy.linalg

    gmat = scipy.linalg.block_diag(*(F.T @ G @ F for F, G in zip(factors, grads)))
    return basis.reshape(len(basis), -1) @ gmat.ravel()


def _random_factors(rng, partition, scale):
    factors = []
    for r in partition.blocks:
        F = np.tril(rng.normal(0.0, scale, (r, r)), -1)
        factors.append(F + np.diag(np.exp(rng.normal(0.0, scale, r))))
    return factors


def _fd_hessian(datum, factors, basis, h):
    """Column k: central differences in h of the kernel gradient in the
    frame F = L exp(+-h E_k / 2), which is the gradient of
    X -> f(L exp(X) L^T) at X = +-h E_k times an operator I + O(h^2) that
    is even in h; the kernel takes the triangular T = F U^T, whose frame
    is rotated by U."""
    import scipy.linalg

    offsets = datum.partition.offsets()
    fd = np.empty((len(basis), len(basis)))
    for k, E in enumerate(basis):
        sides = []
        for X in (h * E, -h * E):
            _, T = _moved(datum, factors, X)
            gT = np.tensordot(_logdet_kernel(datum, T, basis=basis)[1], basis, 1)
            half = scipy.linalg.expm(0.5 * X)
            U = scipy.linalg.block_diag(
                *(
                    scipy.linalg.solve_triangular(Ti, F @ half[a:b, a:b], lower=True)
                    for (a, b), Ti, F in zip(offsets, T, factors)
                )
            )
            sides.append(basis.reshape(len(basis), -1) @ (U.T @ gT @ U).ravel())
        fd[:, k] = (sides[0] - sides[1]) / (2 * h)
    return fd


@pytest.mark.scipy
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    balanced=st.booleans(),
    scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)
@example(seed=0, balanced=True, scale=2.0)
@example(seed=1802539, balanced=False, scale=2.0)
def test_logdet_kernel_matches_cholesky_formulas(seed, balanced, scale):
    """The QR kernel's value and geodesic gradient equal the Cholesky
    formulas within a relative tolerance, it is degenerate where the
    Cholesky diagonals say so, its Hessian matches Richardson-extrapolated
    central differences of its gradient along each basis direction, and it
    is negative semidefinite."""
    rng = np.random.default_rng(seed)
    datum = random_datum(rng, balanced=balanced)
    basis = _sym_basis(datum.partition)
    factors = _random_factors(rng, datum.partition, scale)
    ref_val, ref_grads, ratio = _reference_gradient(datum, factors)
    floor = np.finfo(float).eps ** 0.5
    try:
        val, g, H = _logdet_kernel(datum, factors, basis=basis)
    except DegenerateImageError:
        assert ratio < 1.01 * floor
        return
    assert ratio > floor / 1.01
    if ratio < _KAPPA_LIMIT**-0.5:
        return
    # at most 5 eps kappa in the value and 2.2 eps kappa in the gradient
    # over 4000 seeded draws
    rtol = 64 * np.finfo(float).eps * _reference_kappa(datum, factors)
    assert abs(val - ref_val) <= rtol * (1.0 + abs(ref_val))
    ref_g = _whitened(datum, factors, ref_grads, basis)
    np.testing.assert_allclose(g, ref_g, rtol=0, atol=rtol * (1.0 + np.abs(ref_g).max()))
    # Richardson extrapolation of the steps h and 2h cancels the h^2 term
    # of the differences' truncation error, so h can be large enough that
    # the rounding of the gradient, amplified by 1/h, stays small: at
    # h = 1e-4 without it, a factor with cond^2 = 1.8e8 put 1.7e-6 of
    # rounding into fd (the pinned example above)
    h = 1e-3
    fd = (4.0 * _fd_hessian(datum, factors, basis, h) - _fd_hessian(datum, factors, basis, 2 * h)) / 3.0
    np.testing.assert_allclose(H, fd, rtol=0, atol=1e-6 * (1.0 + np.abs(H).max()))
    assert np.linalg.eigvalsh(H).max() <= 1e-12 * (1.0 + np.abs(H).max())


@pytest.mark.scipy
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), balanced=st.booleans(), scale=st.sampled_from([0.1, 0.5]))
def test_gradient_matches_cholesky_formulas(seed, balanced, scale):
    """The public per-block gradient, unwhitened from the kernel by solves
    with the Cholesky factors, equals the Cholesky formulas within 64 eps kappa
    (at most 7 eps kappa over 2000 seeded draws at scale 0.5)."""
    rng = np.random.default_rng(seed)
    datum = random_datum(rng, balanced=balanced)
    factors = _random_factors(rng, datum.partition, scale)
    _, ref_grads, ratio = _reference_gradient(datum, factors)
    if ratio < _KAPPA_LIMIT**-0.5:
        return
    grads = gradient(datum, BlockCovariance(tuple(F @ F.T for F in factors)))
    rtol = 64 * np.finfo(float).eps * _reference_kappa(datum, factors)
    for G, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(G, ref, rtol=0, atol=rtol * (1.0 + np.abs(ref).max()))


def _exact_gradient_terms(datum, factors):
    """Per block, the two terms 0.5 d_i Sigma_i^{-1} and 0.5 [sum_j c_j
    A_j^T (A_j Sigma A_j^T)^{-1} A_j]_ii of the gradient at Sigma =
    Diag(L_i L_i^T), evaluated in 50-digit arithmetic and rounded once."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    S = mp.zeros(datum.n, datum.n)
    for (a, b), F in zip(datum.partition.offsets(), factors):
        S[a:b, a:b] = mp.matrix(F.tolist()) * mp.matrix(F.tolist()).T
    T = mp.zeros(datum.n, datum.n)
    for cj, A in zip(datum.c, datum.maps):
        Am = mp.matrix(A.tolist())
        T += mp.mpf(cj) * (Am.T * mp.inverse(Am * S * Am.T) * Am)
    out = []
    for (a, b), di in zip(datum.partition.offsets(), datum.d):
        P, Q = 0.5 * mp.mpf(di) * mp.inverse(S[a:b, a:b]), 0.5 * T[a:b, a:b]
        out.append(tuple(np.array(M.tolist(), dtype=float) for M in (P - Q, P, Q)))
    return out


@pytest.mark.scipy
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    balanced=st.booleans(),
    scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)
def test_gradient_matches_exact_formulas_at_every_scale(seed, balanced, scale):
    """The public gradient is within 64 eps kappa of the gradient formulas
    evaluated in 50-digit arithmetic, relative to the size of the formulas'
    two terms (at most 1.02 eps kappa over 2000 seeded draws at scale 2.0).
    The terms, not the gradient, set the scale: on a balanced scalar datum
    G is 0 and its rounding is about eps d / Sigma, which no float
    evaluation avoids; relative to 1 + |G| that read 189 eps kappa at
    scale 2.0, while the float Cholesky formulas were off by 4.9e3."""
    rng = np.random.default_rng(seed)
    datum = random_datum(rng, balanced=balanced)
    factors = _random_factors(rng, datum.partition, scale)
    _, _, ratio = _reference_gradient(datum, factors)
    if ratio < _KAPPA_LIMIT**-0.5:
        return
    grads = gradient(datum, BlockCovariance(tuple(F @ F.T for F in factors)))
    rtol = 64 * np.finfo(float).eps * _reference_kappa(datum, factors)
    for G, (ref, P, Q) in zip(grads, _exact_gradient_terms(datum, factors)):
        size = 1.0 + max(np.abs(ref).max(), np.abs(P).max(), np.abs(Q).max())
        np.testing.assert_allclose(G, ref, rtol=0, atol=rtol * size)


def _independent_pair(first, second):
    """The covariance of two independent copies on the doubled partition."""
    return BlockCovariance(
        tuple(block_diag((S1, S2)) for S1, S2 in zip(first.blocks, second.blocks))
    )


class TestPairs:
    def test_independent_pair_is_additive(self, rng):
        datum = random_datum(rng)
        s1 = random_block_covariance(rng, datum.partition)
        s2 = random_block_covariance(rng, datum.partition)
        pair = _independent_pair(s1, s2)
        p = PerturbationParams(0.03, 0.01)
        lhs = objective_perturbed(doubled_datum(datum), pair, p)
        rhs = objective_perturbed(datum, s1, p) + objective_perturbed(datum, s2, p)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rotation_invariance(self, rng):
        for _ in range(20):
            doubled = doubled_datum(random_datum(rng))
            pair = random_block_covariance(rng, doubled.partition)
            p = PerturbationParams(rng.uniform(0, 0.2), rng.uniform(0, 0.2))
            assert objective_perturbed(doubled, pair, p) == pytest.approx(
                objective_perturbed(doubled, rotate_pair(pair), p), abs=1e-9
            )

    def test_rotation_is_involution(self, rng):
        datum = random_datum(rng)
        pair = random_block_covariance(rng, doubled_datum(datum).partition)
        twice = rotate_pair(rotate_pair(pair))
        for A, B in zip(twice.blocks, pair.blocks):
            assert np.abs(A - B).max() < 1e-12

    def test_iid_pair_rotates_to_independent_halves(self, rng):
        part = Partition((2,))
        S = random_block_covariance(rng, part).blocks[0]
        pair = _independent_pair(BlockCovariance((S,)), BlockCovariance((S,)))
        rot = rotate_pair(pair)
        J = rot.blocks[0]
        np.testing.assert_allclose(J[:2, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(J[:2, :2], S, atol=1e-12)
        np.testing.assert_allclose(J[2:, 2:], S, atol=1e-12)

    def test_symmetric_cross_covariance_splits(self):
        S = np.array([[2.0, 0.3], [0.3, 1.5]])
        C = np.array([[0.5, 0.1], [0.1, 0.4]])
        J = np.block([[S, C], [C.T, S]])
        rot = rotate_pair(BlockCovariance((J,)))
        out = rot.blocks[0]
        np.testing.assert_allclose(out[:2, :2], S + C, atol=1e-12)
        np.testing.assert_allclose(out[2:, 2:], S - C, atol=1e-12)
        np.testing.assert_allclose(out[:2, 2:], 0.0, atol=1e-12)

    def test_degenerate_pair_rejected(self):
        S = np.eye(1)
        J = np.block([[S, S], [S, S]])  # fully correlated copies
        with pytest.raises(ValueError, match="not positive definite"):
            BlockCovariance((J,))

    def test_odd_block_rejected(self):
        pair = BlockCovariance((np.eye(2), np.eye(3)))
        with pytest.raises(ValueError, match="pair block 1 must have even dimension"):
            rotate_pair(pair)

    def test_wrong_shape_pair_rejected(self, rng):
        datum = random_datum(rng)
        one_copy = random_block_covariance(rng, datum.partition)
        with pytest.raises(ValueError, match="do not match the datum partition"):
            objective_perturbed(doubled_datum(datum), one_copy, PerturbationParams())

    def test_doubled_datum_maps(self):
        d = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        doubled = doubled_datum(d)
        assert doubled.partition.blocks == (4, 2)
        np.testing.assert_array_equal(doubled.c, d.c)
        np.testing.assert_array_equal(doubled.d, d.d)
        rng = np.random.default_rng(5)
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        # block i of the doubled input is (copy 1's block i, copy 2's block i)
        x = np.concatenate([x1[:2], x2[:2], x1[2:], x2[2:]])
        for A, B in zip(d.maps, doubled.maps):
            np.testing.assert_allclose(B @ x, np.concatenate([A @ x1, A @ x2]), rtol=0, atol=1e-14)


def _tensorization_mismatch(datum):
    """None when the doubled datum checks as ``datum`` does and, where both
    solves converge, solves to twice its constant within 1e-12 (1 + |M|);
    otherwise what differs."""
    doubled = doubled_datum(datum)
    one, two = blepi.check_finiteness(datum).status, blepi.check_finiteness(doubled).status
    if one != two:
        return f"verdict {one} but {two} doubled"
    res1, res2 = solve_mg(datum), solve_mg(doubled)
    if res1.converged and res2.converged:
        gap = abs(res2.mg_value - 2.0 * res1.mg_value)
        if gap > 1e-12 * (1.0 + abs(res1.mg_value)):
            return f"M = {res1.mg_value!r} but {res2.mg_value!r} doubled"
    return None


# a third interior coupled-sums point beside the two of _FAMILIES
_TENSORIZED = _FAMILIES + [blepi.make_coupled_sums_datum(1.5, 0.6, 0.8, 0.8)]


@pytest.mark.parametrize("datum", _TENSORIZED, ids=lambda d: d.metadata["family"])
def test_two_copies_of_a_family_datum_are_worth_twice_one(datum):
    assert _tensorization_mismatch(datum) is None


def test_two_copies_of_a_random_datum_are_worth_twice_one():
    """The tensorization identity M(doubled) = 2 M on the first 100 balanced
    draws of one seed: a check of the decision and the solver on generic
    data that needs no reference value."""
    rng = np.random.default_rng(2019)
    data = [random_datum(rng, balanced=True) for _ in range(100)]
    mismatches = {i: m for i, d in enumerate(data) if (m := _tensorization_mismatch(d))}
    assert mismatches == {}

