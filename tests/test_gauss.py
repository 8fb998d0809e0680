"""Gaussian entropy algebra, the solver, and the pair/mixture identities.

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
      violating subspace, survives starts that run to the edge of the
      cone and an ill-conditioned image at Sigma = I without a
      RuntimeWarning, reports values accurate to rounding on seeded
      random draws, and reports equal-block covariances for the entropy
      power datum
    - boundary data, whose supremum is attained only in a degenerate
      limit, are solved exactly along the split tree, and the tree value
      equals the whole-datum ascent wherever that converges
    - the log-det kernel's value and geodesic gradient match the Cholesky
      formulas, it is degenerate where their Cholesky diagonals say so,
      and its Hessian matches central differences of the gradient and is
      negative semidefinite; a random draw whose optimum is near the
      boundary of the cone solves to a valid covariance
    - pair evaluations are additive for independent pairs and invariant
      under the orthogonal two-copy rotation, which is an involution
    - mixture evaluations are component averages and never exceed the
      solved optimum for finite data
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition
from blepi.finiteness import INFINITE, ViolatingSubspace, ViolationError, certify
from blepi.gauss import (
    _COND_LIMIT,
    _logdet_kernel,
    _moved,
    _multistart,
    _sym_basis,
    LOG_2PIE,
    BlockCovariance,
    DegenerateImageError,
    GaussianMixture,
    GaussianPair,
    PerturbationParams,
    SolverOptions,
    gaussian_entropy,
    gradient,
    mixture_s,
    objective,
    objective_perturbed,
    pair_s,
    ray_covariance,
    rotate_pair,
    solve_mg,
)
from blepi.subspace import SearchBudget, find_violating_subspace
from conftest import random_block_covariance, random_datum, random_pair

H1 = 0.5 * LOG_2PIE  # entropy of a unit-variance scalar Gaussian


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
        # subspace that the search does not try, so the starts run towards
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
        # that the solver held as a factor, and exceeded mg_value by 4.6e-6
        rng = np.random.default_rng(seed)
        d = [random_datum(rng, balanced=True) for _ in range(draw + 1)][draw]
        res = solve_mg(d)
        assert objective(d, res.sigma_star) <= res.mg_value + 1e-12

    def test_ill_conditioned_identity_image_does_not_raise(self):
        # A Sigma A^T at Sigma = I has condition number 1e14, above the
        # solver's 1e12, and the objective is the constant -log(1e-7); the
        # reference value at Sigma = I used to raise out of solve_mg, and
        # every start used to fail; it is a single-map leaf of its tree
        d = Datum(
            partition=Partition((2,)),
            maps=(np.array([[1.0, 0.0], [0.0, 1e-7]]),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        res = solve_mg(d)
        assert res.converged and not res.unbounded
        assert res.mg_value == pytest.approx(-math.log(1e-7), abs=1e-9)

    def test_boundary_random_draw_solves_to_a_valid_covariance(self):
        # seeded random draw 18 of np.random.default_rng([1, 3]): the datum
        # is infinite through a per-block kernel subspace that the search
        # does not try, so the starts run to the edge of the cone, where
        # any other rounding of the objective can end in a sigma_star that
        # is not positive definite and a ValueError out of solve_mg
        rng = np.random.default_rng([1, 3])
        d = [random_datum(rng, balanced=(i + 1) % 5 != 0) for i in range(19)][18]
        res = solve_mg(d)
        revalidated = BlockCovariance(res.sigma_star.blocks)
        assert all(np.isfinite(S).all() for S in revalidated.blocks)

    @pytest.mark.parametrize("seed", range(8))
    def test_beta_one_coupled_sums_is_solved_exactly(self, seed):
        # the supremum 0 is attained only in a degenerate limit; every
        # leaf of the split tree is explicit, so no start runs
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        res = solve_mg(d, SolverOptions(seed=seed))
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
        assert res.mg_value - 1e-6 <= objective(d, res.sigma_star) <= res.mg_value + 1e-12

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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 9))
@example(seed=7, draw=5)
@example(seed=7, draw=42)
def test_split_tree_value_matches_the_whole_datum_ascent(seed, draw):
    """Where the multi-start ascent on the whole datum converges, the sum
    over the split tree equals its value, and the objective at sigma_star
    does not exceed it.  A datum whose tree is one irreducible leaf is
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
    whole, _, gnorm = _multistart(d, opts)
    if gnorm <= opts.tol:
        res = solve_mg(d, opts)
        assert res.converged
        assert res.mg_value == pytest.approx(whole, abs=1e-9)
        assert objective(d, res.sigma_star) <= res.mg_value + 1e-9


def _reference_gradient(datum, factors):
    """The Cholesky formulas at Sigma = Diag(L_i L_i^T): objective value and
    the per-block gradient 0.5 d_i Sigma_i^{-1} - 0.5 [sum_j c_j A_j^T
    M_j^{-1} A_j]_ii with M_j = A_j Sigma A_j^T formed and factored by
    Cholesky, and the smallest ratio of Cholesky diagonals over the images
    (0 if one fails)."""
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


def _whitened(datum, factors, grads, basis):
    """The gradient in the coordinates Sigma = L exp(X) L^T: Diag(L_i^T G_i L_i)
    in the basis."""
    gmat = scipy.linalg.block_diag(*(F.T @ G @ F for F, G in zip(factors, grads)))
    return basis.reshape(len(basis), -1) @ gmat.ravel()


def _random_factors(rng, partition, scale):
    factors = []
    for r in partition.blocks:
        F = np.tril(rng.normal(0.0, scale, (r, r)), -1)
        factors.append(F + np.diag(np.exp(rng.normal(0.0, scale, r))))
    return factors


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    balanced=st.booleans(),
    scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)
@example(seed=0, balanced=True, scale=2.0)
def test_logdet_kernel_matches_cholesky_formulas(seed, balanced, scale):
    """The QR kernel's value and geodesic gradient equal the Cholesky
    formulas within a relative tolerance, it is degenerate where the
    Cholesky diagonals say so, its Hessian matches central differences of
    the reference gradient along each basis direction, and it is negative
    semidefinite."""
    rng = np.random.default_rng(seed)
    datum = random_datum(rng, balanced=balanced)
    basis = _sym_basis(datum.partition)
    factors = _random_factors(rng, datum.partition, scale)
    ref_val, ref_grads, ratio = _reference_gradient(datum, factors)
    floor = _COND_LIMIT**-0.5
    try:
        val, g, H = _logdet_kernel(datum, factors, cond_limit=_COND_LIMIT, basis=basis)
    except DegenerateImageError:
        assert ratio < 1.01 * floor
        return
    assert ratio > floor / 1.01
    # the reference forms Sigma and A_j Sigma A_j^T, so it is accurate to
    # about eps times these condition numbers (at most 5 eps kappa in the
    # value and 2.2 eps kappa in the gradient over 4000 seeded draws)
    full = scipy.linalg.block_diag(*(F @ F.T for F in factors))
    kappa = max(
        [np.linalg.cond(F) ** 2 for F in factors]
        + [
            np.linalg.norm(A, 2) ** 2 * np.linalg.norm(full, 2) / np.linalg.eigvalsh(A @ full @ A.T)[0]
            for A in datum.maps
        ]
    )
    rtol = 64 * np.finfo(float).eps * kappa
    assert abs(val - ref_val) <= rtol * (1.0 + abs(ref_val))
    ref_g = _whitened(datum, factors, ref_grads, basis)
    np.testing.assert_allclose(g, ref_g, rtol=0, atol=rtol * (1.0 + np.abs(ref_g).max()))
    # H[:, k]: central differences in h of the gradient in the frame
    # F = L exp(+-h E_k / 2), which is the gradient of X -> f(L exp(X) L^T)
    # at X = +-h E_k times an operator I + O(h^2) that is even in h; the
    # kernel takes the triangular T = F U^T, whose frame is rotated by U
    h = 1e-4
    offsets = datum.partition.offsets()
    fd = np.empty_like(H)
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
    np.testing.assert_allclose(H, fd, rtol=0, atol=1e-6 * (1.0 + np.abs(H).max()))
    assert np.linalg.eigvalsh(H).max() <= 1e-12 * (1.0 + np.abs(H).max())


class TestPairs:
    def test_independent_pair_is_additive(self, rng):
        datum = random_datum(rng)
        s1 = random_block_covariance(rng, datum.partition)
        s2 = random_block_covariance(rng, datum.partition)
        pair = GaussianPair.independent(s1, s2)
        p = PerturbationParams(0.03, 0.01)
        lhs = pair_s(datum, pair, p)
        rhs = objective_perturbed(datum, s1, p) + objective_perturbed(datum, s2, p)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rotation_invariance(self, rng):
        for _ in range(20):
            datum = random_datum(rng)
            pair = random_pair(rng, datum.partition)
            p = PerturbationParams(rng.uniform(0, 0.2), rng.uniform(0, 0.2))
            assert pair_s(datum, pair, p) == pytest.approx(
                pair_s(datum, rotate_pair(pair), p), abs=1e-9
            )

    def test_rotation_is_involution(self, rng):
        datum = random_datum(rng)
        pair = random_pair(rng, datum.partition)
        twice = rotate_pair(rotate_pair(pair))
        for A, B in zip(twice.blocks, pair.blocks):
            assert np.abs(A - B).max() < 1e-12

    def test_iid_pair_rotates_to_independent_halves(self, rng):
        part = Partition((2,))
        S = random_block_covariance(rng, part).blocks[0]
        pair = GaussianPair.independent(BlockCovariance((S,)), BlockCovariance((S,)))
        rot = rotate_pair(pair)
        J = rot.blocks[0]
        np.testing.assert_allclose(J[:2, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(J[:2, :2], S, atol=1e-12)
        np.testing.assert_allclose(J[2:, 2:], S, atol=1e-12)

    def test_symmetric_cross_covariance_splits(self):
        S = np.array([[2.0, 0.3], [0.3, 1.5]])
        C = np.array([[0.5, 0.1], [0.1, 0.4]])
        J = np.block([[S, C], [C.T, S]])
        rot = rotate_pair(GaussianPair((J,)))
        out = rot.blocks[0]
        np.testing.assert_allclose(out[:2, :2], S + C, atol=1e-12)
        np.testing.assert_allclose(out[2:, 2:], S - C, atol=1e-12)
        np.testing.assert_allclose(out[:2, 2:], 0.0, atol=1e-12)

    def test_degenerate_pair_rejected(self):
        S = np.eye(1)
        J = np.block([[S, S], [S, S]])  # fully correlated copies
        with pytest.raises(ValueError):
            GaussianPair((J,))


class TestMixtures:
    def test_single_component_reduces(self, rng):
        datum = random_datum(rng)
        sig = random_block_covariance(rng, datum.partition)
        mix = GaussianMixture(np.array([1.0]), (sig,))
        p = PerturbationParams(0.02, 0.01)
        assert mixture_s(datum, mix, p) == objective_perturbed(datum, sig, p)

    def test_two_equal_components(self, rng):
        datum = random_datum(rng)
        sig = random_block_covariance(rng, datum.partition)
        mix = GaussianMixture(np.array([0.5, 0.5]), (sig, sig))
        p = PerturbationParams(0.0, 0.0)
        assert mixture_s(datum, mix, p) == pytest.approx(objective(datum, sig), abs=1e-12)

    def test_epi_scale_mixture_stays_at_zero(self):
        d = blepi.make_epi_datum(0.5, 1)
        comp1 = BlockCovariance.identity(d.partition)
        comp2 = comp1.scaled(2.0)
        mix = GaussianMixture(np.array([0.5, 0.5]), (comp1, comp2))
        assert mixture_s(d, mix, PerturbationParams(0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_mixture_never_beats_the_optimum(self, rng):
        datum = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        res = solve_mg(datum)
        assert res.converged
        cap = sum(r * (r + 1) // 2 for r in datum.partition.blocks) + 1
        for n_comp in (1, 2, cap):
            w = rng.uniform(0.5, 1.0, n_comp)
            w /= w.sum()
            # renormalize exactly to satisfy the constructor's 1e-12 gate
            w[-1] = 1.0 - w[:-1].sum()
            comps = tuple(random_block_covariance(rng, datum.partition) for _ in range(n_comp))
            val = mixture_s(datum, GaussianMixture(w, comps), PerturbationParams(0, 0))
            assert val <= res.mg_value + 1e-6

    def test_component_cap_enforced(self, rng):
        datum = blepi.make_epi_datum(0.5, 1)
        cap = sum(r * (r + 1) // 2 for r in datum.partition.blocks) + 1  # = 3
        comps = tuple(
            random_block_covariance(rng, datum.partition) for _ in range(cap + 1)
        )
        w = np.full(cap + 1, 1.0 / (cap + 1))
        with pytest.raises(ValueError):
            GaussianMixture(w, comps)

    def test_weight_validation(self, rng):
        datum = blepi.make_epi_datum(0.5, 1)
        sig = random_block_covariance(rng, datum.partition)
        with pytest.raises(ValueError):
            GaussianMixture(np.array([0.6, 0.6]), (sig, sig))
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.2, -0.2]), (sig, sig))
