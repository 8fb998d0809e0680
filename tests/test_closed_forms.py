"""Closed forms: EPI optimum, Zamir-Feder machinery, coupled-sums constant.

Claims:
    - epi_mg is identically zero on its domain
    - zf coefficients are the squared column norms, sum to the row count,
      and match the finite-difference derivative of log det(A Lambda A^T)
    - zf_F is nonnegative with equality at Lambda = I
    - the Cauchy-Binet identity holds to rounding
    - the four feasibility conditions fire exactly as documented
    - the coupled-sums formula agrees with its own brute-force supremum,
      including at the rho = 1 boundary
    - the brute force is within 1e-12 of the formula and never above it,
      and its Nelder-Mead refinements stop on their tolerances, not on
      their evaluation caps, at alpha = 1 and on feasible interior tuples
    - the oracle's vectorized grid scans find the same maximum, at the
      same grid point, as a scalar loop over the grid
"""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from blepi.closed_forms import (
    _SCAN_2VAR,
    _SCAN_4VAR,
    CoupledSumsParams,
    _log_ratio_2var,
    _log_ratio_4var,
    _scan_2var,
    _scan_4var,
    _sup_4var,
    cauchy_binet_check,
    coupled_sums_bruteforce,
    coupled_sums_constant,
    coupled_sums_feasible,
    epi_mg,
    zf_F,
    zf_coefficients,
)


def random_orthonormal_rows(rng, k, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q[:, :k].T


class TestEpiMg:
    @pytest.mark.parametrize("lam,dim", [(0.5, 1), (0.9, 3), (0.1, 2)])
    def test_zero(self, lam, dim):
        assert epi_mg(lam, dim) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            epi_mg(1.0, 1)
        with pytest.raises(ValueError):
            epi_mg(0.5, 0)


class TestZamirFeder:
    def test_unit_row(self):
        np.testing.assert_allclose(
            zf_coefficients(np.array([[0.7071067811865476, 0.7071067811865476]])),
            [0.5, 0.5],
            atol=1e-12,
        )

    def test_identity(self):
        np.testing.assert_allclose(zf_coefficients(np.eye(3)), [1.0, 1.0, 1.0])

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            zf_coefficients(np.array([[1.0, 1.0]]))

    def test_derivative_identity_by_finite_differences(self, rng):
        h = 1e-6
        for _ in range(10):
            A = random_orthonormal_rows(rng, 2, 4)
            alpha_sq = zf_coefficients(A)
            for j in range(4):
                lam_up = np.ones(4)
                lam_dn = np.ones(4)
                lam_up[j] = math.exp(h)
                lam_dn[j] = math.exp(-h)
                up = np.linalg.slogdet(A @ np.diag(lam_up) @ A.T)[1]
                dn = np.linalg.slogdet(A @ np.diag(lam_dn) @ A.T)[1]
                assert (up - dn) / (2 * h) == pytest.approx(alpha_sq[j], abs=1e-6)

    def test_f_vanishes_at_identity(self, rng):
        A = random_orthonormal_rows(rng, 2, 5)
        assert zf_F(A, np.ones(5)) == pytest.approx(0.0, abs=1e-12)

    def test_f_known_value(self):
        A = np.array([[0.7071067811865476, 0.7071067811865476]])
        assert zf_F(A, [1.0, 4.0]) == pytest.approx(math.log(1.25), abs=1e-12)

    def test_f_nonnegative_randomized(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 7))
            A = random_orthonormal_rows(rng, k, n)
            lam = rng.uniform(0.05, 20.0, n)
            assert zf_F(A, lam) >= -1e-9

    def test_domain_errors(self, rng):
        A = random_orthonormal_rows(rng, 2, 3)
        with pytest.raises(ValueError):
            zf_F(A, [1.0, -1.0, 2.0])


class TestCauchyBinet:
    def test_row_vector(self):
        lhs, rhs = cauchy_binet_check(np.array([[1.0, 1.0]]))
        assert lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0)

    def test_identity(self):
        lhs, rhs = cauchy_binet_check(np.eye(2))
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_random_rectangular(self, rng):
        for _ in range(20):
            B = rng.standard_normal((2, 5))
            lhs, rhs = cauchy_binet_check(B)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_wide_requirement(self):
        with pytest.raises(ValueError):
            cauchy_binet_check(np.eye(3)[:, :2])


class TestFeasibility:
    def test_boundary_feasible(self):
        f = coupled_sums_feasible(CoupledSumsParams(1.0, 1.0, 0.5, 0.5))
        assert f.feasible and f.failed_conditions() == ()

    def test_shared_bound_violation(self):
        f = coupled_sums_feasible(CoupledSumsParams(1.0, 1.2, 0.6, 0.6))
        assert not f.feasible
        assert f.failed_conditions() == (2,)

    def test_balance_and_joint_lower_both_flagged(self):
        # 2*0.9 + 1 = 2.8 but 2 + 0.7 = 2.7, and alpha < 1
        f = coupled_sums_feasible(CoupledSumsParams(0.9, 1.0, 0.35, 0.35))
        assert not f.feasible
        assert f.failed_conditions() == (1, 4)

    def test_marginal_bound_violation(self):
        f = coupled_sums_feasible(CoupledSumsParams(1.3, 0.4, 0.2, 0.8))
        assert not f.feasible
        assert 3 in f.failed_conditions()


class TestCoupledSumsConstant:
    def test_interior_point_matches_bruteforce(self):
        C, D = coupled_sums_constant(1.25, 0.5, 0.5)
        assert D == C  # same constant in both roles, bit for bit
        assert coupled_sums_bruteforce(1.25, 0.5, 0.5) == pytest.approx(C, abs=1e-4)

    def test_bruteforce_returns_a_python_float(self):
        assert type(coupled_sums_bruteforce(1.25, 0.5, 0.5)) is float

    def test_boundary_rho_one_limit(self):
        # alpha = 1 forces rho = beta/(2 delta) = 1; the zero base carries a
        # zero exponent, so the formula stays finite
        C, _ = coupled_sums_constant(1.0, 0.5, 0.25)
        assert C == pytest.approx(0.5 * math.log(0.5), abs=1e-12)
        assert coupled_sums_bruteforce(1.0, 0.5, 0.25) == pytest.approx(C, abs=1e-4)

    def test_beta_zero_is_a_domain_error(self):
        with pytest.raises(ValueError, match="beta"):
            coupled_sums_constant(1.5, 0.0, 0.5)

    def test_infeasible_names_conditions(self):
        with pytest.raises(ValueError, match=r"conditions \(1, 4\)"):
            coupled_sums_constant(0.9, 1.0, 0.35)

    def test_symmetric_stationarity_of_the_raw_supremum(self):
        _, (k1, k2, _, rho) = _sup_4var(1.25, 0.5, 0.5, return_argmax=True)
        assert k1 == pytest.approx(k2, rel=1e-3)
        assert rho == pytest.approx(0.5, abs=1e-3)


def _oracle_runs(alpha, beta, delta):
    """coupled_sums_bruteforce and the results of its two refinements."""
    runs = []
    minimize = scipy.optimize.minimize

    def recording(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.optimize, "minimize", recording)
        bf = coupled_sums_bruteforce(alpha, beta, delta)
    return bf, runs


def _assert_oracle_exact(alpha, beta, delta):
    C, _ = coupled_sums_constant(alpha, beta, delta)
    bf, (run2, run4) = _oracle_runs(alpha, beta, delta)
    assert bf <= C + 1e-12
    assert abs(bf - C) <= 1e-12
    # the caps are 20000 and 40000 evaluations
    assert run2.nfev < 20000 and run4.nfev < 40000


# 0.96858... is a seeded draw on which the refinement still ran to its cap
# while the raw ratio was evaluated at K rather than at K / K3
@pytest.mark.parametrize("beta", [0.8, 0.5, 0.05, 0.2, 0.95, 0.9685870541253776, 0.999])
def test_boundary_oracle_is_exact_and_stops_on_its_tolerances(beta):
    # alpha = 1 forces beta = 2 delta (rho = 1): the supremum is a limit,
    # approached from below as t = atanh(rho) grows
    _assert_oracle_exact(1.0, beta, beta / 2.0)


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(0.01, 3.0), share=st.floats(0.001, 0.999))
def test_interior_oracle_is_exact_and_stops_on_its_tolerances(delta, share):
    beta = share * min(1.0, 2.0 * delta)
    _assert_oracle_exact(1.0 + delta - beta / 2.0, beta, delta)


def _loop_scan(fun, axes):
    """Reference scan: the first strict maximum of a nested loop."""
    best, arg = -math.inf, None
    for point in itertools.product(*axes):
        v = fun(*point)
        if v > best:
            best, arg = v, point
    return best, tuple(float(x) for x in arg)


@pytest.mark.parametrize("alpha, beta, delta", [(1.25, 0.5, 0.5), (1.0, 0.8, 0.4)])
def test_grid_scans_match_the_scalar_loop(alpha, beta, delta):
    assert _scan_2var(alpha, beta) == _loop_scan(
        lambda lx, t: _log_ratio_2var(lx, t, alpha, beta), _SCAN_2VAR
    )
    assert _scan_4var(alpha, beta, delta) == _loop_scan(
        lambda lk1, lk2, lk3, t: _log_ratio_4var(lk1, lk2, lk3, t, alpha, beta, delta),
        _SCAN_4VAR,
    )
