"""Closed forms: EPI optimum, Zamir-Feder machinery, coupled-sums constant.

Claims:
    - epi_mg is identically zero on its domain
    - zf coefficients are the squared column norms, sum to the row count,
      and match the finite-difference derivative of log det(A Lambda A^T)
    - the zf helpers accept exactly the matrices make_zamir_feder_datum
      accepts: A A^T = I within 1e-9 off the diagonal, 1e-9 + 1e-5 on it
    - zf_F is nonnegative with equality at Lambda = I, and takes only
      finite positive diagonal entries
    - the Cauchy-Binet identity holds to rounding, on 2-d matrices only
    - the four feasibility conditions fire exactly as documented
    - the coupled-sums formula agrees with its own brute-force supremum,
      including at the rho = 1 boundary
    - the brute force is within 1e-12 of the formula and never above it,
      and its one stencil ascent stops on its step tolerance, before its
      round cap, at alpha = 1, on a corner grid of (delta, beta) and on
      feasible interior tuples
    - the oracle's numpy kernel is the raw determinant ratio: it matches an
      mpmath evaluation at 50 digits, at scaled points K3 != 1, to 1e-12
      relative, with |t| up to 15 and K over 1e-6..1e6
    - the kernel is -inf, without a floating-point warning, where its
      denominator underflows, overflows or is NaN
    - the oracle's grid scan finds the same maximum, at the same grid
      point, as a scalar loop of the same kernel over the grid
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

import blepi
from hypothesis import given, settings
from hypothesis import strategies as st

from blepi import closed_forms
from blepi.closed_forms import (
    _GRID,
    _ROUNDS,
    CoupledSumsParams,
    _log_ratio,
    _scan,
    _sup_ratio,
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

    @pytest.mark.parametrize(
        "where, size, accepted",
        [
            ("diag", (1e-9 + 1e-5) * (1 - 1e-4), True),
            ("diag", (1e-9 + 1e-5) * (1 + 1e-4), False),
            ("off", 1e-9 * (1 - 1e-2), True),
            ("off", 1e-9 * (1 + 1e-2), False),
        ],
    )
    def test_rows_are_checked_as_the_datum_checks_them(self, rng, where, size, accepted):
        # A = chol(I + D) Q with orthonormal-row Q has A A^T = I + D
        D = np.zeros((2, 2))
        if where == "diag":
            D[1, 1] = size
        else:
            D[0, 1] = D[1, 0] = size
        A = np.linalg.cholesky(np.eye(2) + D) @ random_orthonormal_rows(rng, 2, 4)
        calls = (
            blepi.make_zamir_feder_datum,
            zf_coefficients,
            lambda A: zf_F(A, np.ones(4)),
        )
        for call in calls:
            if accepted:
                call(A)
            else:
                with pytest.raises(ValueError, match="rows of A are not orthonormal"):
                    call(A)
        if accepted:
            assert np.array_equal(zf_coefficients(A), blepi.make_zamir_feder_datum(A).d)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_lambda_entries_must_be_finite_and_positive(self, rng, bad):
        # NaN passed the old lam <= 0 test and returned nan with a
        # RuntimeWarning out of log and slogdet
        A = random_orthonormal_rows(rng, 2, 3)
        with pytest.raises(ValueError, match="diagonal entries must be finite and positive"):
            zf_F(A, [1.0, bad, 2.0])


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

    @pytest.mark.parametrize("B", [[], [1.0, 2.0], np.ones((1, 2, 2))], ids=["empty", "vector", "3-d"])
    def test_matrix_requirement(self, B):
        # [] used to fail unpacking its shape with "not enough values"
        with pytest.raises(ValueError, match="B must be a 2-d matrix"):
            cauchy_binet_check(B)


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
        _, (k1, k2, k3, rho) = _sup_ratio(1.25, 0.5)
        assert k3 == 1.0
        assert k1 == pytest.approx(k2, rel=1e-3)
        assert rho == pytest.approx(0.5, abs=1e-3)


def _oracle_runs(alpha, beta, delta):
    """coupled_sums_bruteforce and the round counts of its stencil ascents."""
    rounds = []
    ascend = closed_forms._ascend

    def recording(*args):
        result = ascend(*args)
        rounds.append(result[2])
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closed_forms, "_ascend", recording)
        bf = coupled_sums_bruteforce(alpha, beta, delta)
    return bf, rounds


def _assert_oracle_exact(alpha, beta, delta):
    C, _ = coupled_sums_constant(alpha, beta, delta)
    bf, (rounds,) = _oracle_runs(alpha, beta, delta)
    assert bf <= C + 1e-12
    assert abs(bf - C) <= 1e-12
    # fewer rounds than the cap: the ascent stopped on its step tolerance
    assert rounds < _ROUNDS


def _interior(delta, share):
    """The feasible tuple (alpha, beta, delta) with beta = share * min(1, 2 delta)."""
    beta = share * min(1.0, 2.0 * delta)
    return 1.0 + delta - beta / 2.0, beta, delta


# 0.96858... is a seeded draw on which the former Nelder-Mead refinement ran
# to its cap while the raw ratio was evaluated at K rather than at K / K3
@pytest.mark.parametrize("beta", [0.8, 0.5, 0.05, 0.2, 0.95, 0.9685870541253776, 0.999])
def test_boundary_oracle_is_exact_and_stops_on_its_tolerances(beta):
    # alpha = 1 forces beta = 2 delta (rho = 1): the supremum is a limit,
    # approached from below as t = atanh(rho) grows
    _assert_oracle_exact(1.0, beta, beta / 2.0)


@pytest.mark.parametrize("share", [0.001, 0.01, 0.5, 0.99, 0.999])
@pytest.mark.parametrize("delta", [0.01, 0.05, 0.3, 1.0, 3.0])
def test_corner_oracle_is_exact_and_stops_on_its_tolerances(delta, share):
    _assert_oracle_exact(*_interior(delta, share))


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(0.01, 3.0), share=st.floats(0.001, 0.999))
def test_interior_oracle_is_exact_and_stops_on_its_tolerances(delta, share):
    _assert_oracle_exact(*_interior(delta, share))


def _mp_log_ratio(u1, u2, u3, rho, alpha, delta):
    """log det(Cov X)^alpha K3^beta / ((K1 K2)^delta det Cov(X1 + Y, X2 + Y))
    at K = exp(u), from the two 2 x 2 covariance matrices, with beta from
    the balance 2 alpha + beta = 2 + 2 delta."""
    k1, k2, k3 = (mpmath.exp(u) for u in (u1, u2, u3))
    c = rho * mpmath.sqrt(k1 * k2)
    det_x = mpmath.det(mpmath.matrix([[k1, c], [c, k2]]))
    det_sum = mpmath.det(mpmath.matrix([[k1 + k3, c + k3], [c + k3, k2 + k3]]))
    beta = 2 + 2 * delta - 2 * alpha
    return (
        alpha * mpmath.log(det_x) + beta * mpmath.log(k3)
        - delta * mpmath.log(k1 * k2) - mpmath.log(det_sum)
    )


def test_ratio_kernel_matches_an_mpmath_determinant_ratio(rng):
    with mpmath.workdps(50):
        for _ in range(200):
            alpha, _, delta = _interior(rng.uniform(0.01, 3.0), rng.uniform(0.001, 0.999))
            u3, t = rng.uniform(-6.0, 6.0) * math.log(10.0), rng.uniform(-15.0, 15.0)
            # K3 = exp(u3) != 1: the kernel's K3 = 1 relies on scale invariance
            u1, u2 = (u - u3 for u in rng.uniform(-6.0, 6.0, 2) * math.log(10.0))
            ref = _mp_log_ratio(
                mpmath.mpf(u1) + u3, mpmath.mpf(u2) + u3, mpmath.mpf(u3),
                mpmath.tanh(mpmath.mpf(t)), mpmath.mpf(alpha), mpmath.mpf(delta),
            )
            value = float(_log_ratio(u1, u2, t, alpha, delta))
            assert abs(value - float(ref)) <= 1e-12 * abs(float(ref))


@pytest.mark.parametrize(
    "u1, u2, t",
    [(0.0, 0.0, 400.0), (800.0, 0.0, 0.0), (800.0, -800.0, 0.0), (0.0, 0.0, math.inf)],
)
def test_ratio_kernel_is_minus_inf_off_its_finite_range(u1, u2, t):
    # the denominator underflows to 0, overflows, or is NaN (inf * 0) there;
    # the value is -inf, never +inf or NaN, and no RuntimeWarning escapes
    assert _log_ratio(u1, u2, t, 1.25, 0.5) == -math.inf


def _loop_scan(fun, axes):
    """Reference scan: the first strict maximum of a nested loop."""
    best, arg = -math.inf, None
    for point in itertools.product(*axes):
        v = float(fun(*point))
        if v > best:
            best, arg = v, point
    return best, tuple(float(x) for x in arg)


@pytest.mark.parametrize("alpha, beta, delta", [(1.25, 0.5, 0.5), (1.0, 0.8, 0.4)])
def test_grid_scans_match_the_scalar_loop(alpha, beta, delta):
    # beta enters the kernel only through the balance it must satisfy
    assert coupled_sums_feasible(CoupledSumsParams(alpha, beta, delta, delta)).feasible
    assert _scan(alpha, delta) == _loop_scan(
        lambda u1, u2, t: _log_ratio(u1, u2, t, alpha, delta), _GRID
    )
