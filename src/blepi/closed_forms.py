"""Closed-form constants for the named special cases.

Covers the entropy power inequality optimum (zero), the Zamir-Feder
coefficient identities built on the Cauchy-Binet formula, and the
coupled-sums family (X1 + Y, X2 + Y), whose optimal constant has an
explicit expression when delta1 = delta2 and is also computed here by
brute-force maximization of the underlying determinant ratio as an
independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

__all__ = [
    "CoupledSumsParams",
    "CoupledSumsFeasibility",
    "epi_mg",
    "zf_coefficients",
    "zf_F",
    "cauchy_binet_check",
    "coupled_sums_feasible",
    "coupled_sums_constant",
    "coupled_sums_bruteforce",
]

_ORTHO_TOL = 1e-9


def epi_mg(lam: float, dim: int) -> float:
    """Optimal constant of the entropy power datum: exactly zero.

    The Gaussian objective is lam*logdet(S1) + (1-lam)*logdet(S2)
    - logdet(lam*S1 + (1-lam)*S2), nonpositive by concavity of logdet and
    zero at S1 = S2, in any dimension.
    """
    if not 0.0 < float(lam) < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if int(dim) < 1:
        raise ValueError("dim must be a positive integer")
    return 0.0


def _check_orthonormal_rows(A: np.ndarray, tol: float) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.allclose(A @ A.T, np.eye(A.shape[0]), atol=tol):
        raise ValueError("rows are not orthonormal (A A^T != I)")
    return A


def zf_coefficients(A, tol: float = _ORTHO_TOL) -> np.ndarray:
    """Squared column norms alpha_j^2 of a matrix with orthonormal rows.

    These are the block exponents of the Zamir-Feder datum, and equal the
    derivative of log det(A Lambda A^T) in log lambda_j at Lambda = I;
    the identity is re-derived here through the matrix-inverse route as a
    consistency check on the cheap column-sum formula.
    """
    A = _check_orthonormal_rows(A, tol)
    alpha_sq = np.sum(A * A, axis=0)
    gram_inv = np.linalg.inv(A @ A.T)
    deriv = np.einsum("ij,ik,kj->j", A, gram_inv, A)
    if not np.allclose(alpha_sq, deriv, atol=100 * tol):
        raise RuntimeError("column-norm and derivative routes disagree")
    return alpha_sq


def zf_F(A, lambdas, tol: float = _ORTHO_TOL) -> float:
    """F(Lambda) = log det(A Lambda A^T) - sum_j alpha_j^2 log(lambda_j).

    Nonnegative for orthonormal-row A and positive diagonal Lambda, with
    equality at Lambda proportional to the identity.
    """
    A = _check_orthonormal_rows(A, tol)
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) != A.shape[1]:
        raise ValueError("need one positive diagonal entry per column of A")
    if np.any(lam <= 0):
        raise ValueError("diagonal entries must be positive")
    alpha_sq = np.sum(A * A, axis=0)
    sign, logdet = np.linalg.slogdet(A @ np.diag(lam) @ A.T)
    if sign <= 0:
        raise ValueError("A Lambda A^T is not positive definite")
    return float(logdet - np.dot(alpha_sq, np.log(lam)))


def cauchy_binet_check(B) -> tuple[float, float]:
    """det(B B^T) versus the sum of squared maximal minors of B.

    Returns (lhs, rhs); the two agree up to rounding for any k x n matrix
    with k <= n, which is the engine behind the Zamir-Feder coefficient
    calculation.
    """
    B = np.asarray(B, dtype=float)
    k, n = B.shape
    if k > n:
        raise ValueError("need at least as many columns as rows")
    lhs = float(np.linalg.det(B @ B.T))
    rhs = 0.0
    for cols in itertools.combinations(range(n), k):
        rhs += float(np.linalg.det(B[:, cols])) ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# the coupled-sums family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledSumsParams:
    alpha: float
    beta: float
    delta1: float
    delta2: float

    def __post_init__(self):
        for name in ("alpha", "beta", "delta1", "delta2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class CoupledSumsFeasibility:
    """Per-condition flags for the coupled-sums exponents.

    condition 1: total balance 2*alpha + beta = 2 + delta1 + delta2
    condition 2: shared-term exponent beta <= 1
    condition 3: marginal bounds alpha <= 1 + delta1 and alpha <= 1 + delta2
    condition 4: joint exponent alpha >= 1 (equivalently, given condition 1,
                 alpha + beta <= 1 + delta1 + delta2)
    """

    balance: bool
    shared_bound: bool
    marginal_bounds: bool
    joint_lower: bool

    @property
    def feasible(self) -> bool:
        return self.balance and self.shared_bound and self.marginal_bounds and self.joint_lower

    def failed_conditions(self) -> tuple[int, ...]:
        flags = (self.balance, self.shared_bound, self.marginal_bounds, self.joint_lower)
        return tuple(i + 1 for i, ok in enumerate(flags) if not ok)

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "condition_1_balance": self.balance,
            "condition_2_shared_bound": self.shared_bound,
            "condition_3_marginal_bounds": self.marginal_bounds,
            "condition_4_joint_lower": self.joint_lower,
        }


_EQ_TOL = 1e-9
_INEQ_SLOP = 1e-12


def coupled_sums_feasible(p: CoupledSumsParams) -> CoupledSumsFeasibility:
    """Evaluate the four exponent conditions characterizing a finite constant."""
    return CoupledSumsFeasibility(
        balance=abs(2 * p.alpha + p.beta - 2 - p.delta1 - p.delta2) <= _EQ_TOL,
        shared_bound=p.beta <= 1 + _INEQ_SLOP,
        marginal_bounds=(p.alpha <= 1 + p.delta1 + _INEQ_SLOP)
        and (p.alpha <= 1 + p.delta2 + _INEQ_SLOP),
        joint_lower=p.alpha >= 1 - _INEQ_SLOP,
    )


def _xlogy(x: float, y: float) -> float:
    # x * log(y) with the 0 * log(0) = 0 convention for boundary exponents
    if x == 0.0:
        return 0.0
    if y <= 0.0:
        raise ValueError("log of a nonpositive base with nonzero exponent")
    return x * math.log(y)


def coupled_sums_constant(alpha: float, beta: float, delta: float) -> tuple[float, float]:
    """Closed-form optimal constant for delta1 = delta2 = delta.

    With rho = beta / (2 delta), the constant C satisfies

        exp(2C) = beta^beta (1-beta)^(1-beta) / 2^beta
                  * (1 + rho)^(alpha+beta-1) * (1 - rho)^(alpha-1),

    and the offset D of the rearranged mutual-information form equals C.
    Requires a feasible exponent tuple with 0 < beta < 1, delta > 0 and
    beta <= 2 delta; at the boundary rho = 1 (which forces alpha = 1) the
    vanishing base carries a zero exponent and the constant stays finite.
    """
    p = CoupledSumsParams(alpha, beta, delta, delta)
    feas = coupled_sums_feasible(p)
    if not feas.feasible:
        raise ValueError(
            f"infeasible exponents; failed conditions {feas.failed_conditions()}"
        )
    if beta <= 0.0:
        raise ValueError("beta must be positive (the inner maximizer degenerates at beta = 0)")
    if beta >= 1.0:
        raise ValueError("beta must be strictly below 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rho = beta / (2.0 * delta)
    if rho > 1.0 + _INEQ_SLOP:
        raise ValueError("need beta <= 2 delta (equivalently alpha >= 1)")
    rho = min(rho, 1.0)
    log_e2c = (
        _xlogy(beta, beta)
        + _xlogy(1.0 - beta, 1.0 - beta)
        - beta * math.log(2.0)
        + _xlogy(alpha + beta - 1.0, 1.0 + rho)
        + _xlogy(alpha - 1.0, 1.0 - rho)
    )
    C = 0.5 * log_e2c
    return C, C


def _log_ratio_4var(logk1, logk2, logk3, rho, alpha, beta, delta):
    k1, k2, k3 = math.exp(logk1), math.exp(logk2), math.exp(logk3)
    omr2 = 1.0 - rho * rho
    if omr2 <= 0.0:
        return -math.inf
    den = k1 * k2 * omr2 + k3 * (k1 + k2 - 2.0 * rho * math.sqrt(k1 * k2))
    if den <= 0.0 or not math.isfinite(den):
        return -math.inf
    num = (
        (alpha - delta) * (logk1 + logk2)
        + alpha * math.log(omr2)
        + beta * logk3
    )
    return num - math.log(den)


def _log_ratio_2var(logx, rho, alpha, beta):
    if not -1.0 < rho < 1.0:
        return -math.inf
    x = math.exp(logx)
    den = (1.0 + rho) + 2.0 * x
    return (
        beta * logx
        + (alpha - 1.0) * math.log(1.0 - rho)
        + alpha * math.log(1.0 + rho)
        - math.log(den)
    )


def _refine(fun, x0):
    res = scipy.optimize.minimize(
        lambda z: -fun(z),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    return -res.fun


# scan grids of the brute-force oracle, before the Nelder-Mead refinement
_SCAN_2VAR = (np.tanh(np.linspace(-8.0, 8.0, 161)), np.linspace(-14.0, 14.0, 141))
_SCAN_4VAR = (np.linspace(-4.0, 4.0, 9),) * 3 + (np.tanh(np.linspace(-6.0, 6.0, 41)),)


def _first_max(values, axes):
    """Largest grid value and its coordinates; the first in C order among
    ties, which is the point a nested loop with a strict ``>`` keeps."""
    idx = np.unravel_index(np.argmax(values), values.shape)
    return float(values[idx]), tuple(float(ax[i]) for ax, i in zip(axes, idx))


def _scan_2var(alpha, beta):
    """_log_ratio_2var over the open grid _SCAN_2VAR, term for term:
    the maximum and its (rho, log x)."""
    rho, lx = np.meshgrid(*_SCAN_2VAR, indexing="ij", sparse=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (
            beta * lx
            + (alpha - 1.0) * np.log(1.0 - rho)
            + alpha * np.log(1.0 + rho)
            - np.log((1.0 + rho) + 2.0 * np.exp(lx))
        )
    v = np.where((-1.0 < rho) & (rho < 1.0), v, -math.inf)
    return _first_max(v, _SCAN_2VAR)


def _scan_4var(alpha, beta, delta):
    """_log_ratio_4var over the open grid _SCAN_4VAR, term for term:
    the maximum and its (log K1, log K2, log K3, rho)."""
    lk1, lk2, lk3, rho = np.meshgrid(*_SCAN_4VAR, indexing="ij", sparse=True)
    k1, k2, k3 = np.exp(lk1), np.exp(lk2), np.exp(lk3)
    omr2 = 1.0 - rho * rho
    den = k1 * k2 * omr2 + k3 * (k1 + k2 - 2.0 * rho * np.sqrt(k1 * k2))
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (alpha - delta) * (lk1 + lk2) + alpha * np.log(omr2) + beta * lk3 - np.log(den)
    v = np.where((omr2 > 0.0) & (den > 0.0) & np.isfinite(den), v, -math.inf)
    return _first_max(v, _SCAN_4VAR)


def _sup_2var(alpha, beta):
    best, (rho0, lx0) = _scan_2var(alpha, beta)
    val = _refine(
        lambda z: _log_ratio_2var(z[0], math.tanh(z[1]), alpha, beta),
        np.array([lx0, math.atanh(np.clip(rho0, -1 + 1e-12, 1 - 1e-12))]),
    )
    return max(best, val)


def _sup_4var(alpha, beta, delta, return_argmax=False):
    best, arg = _scan_4var(alpha, beta, delta)
    z0 = np.array(
        [arg[0], arg[1], arg[2], math.atanh(np.clip(arg[3], -1 + 1e-12, 1 - 1e-12))]
    )

    def fun(z):
        return _log_ratio_4var(z[0], z[1], z[2], math.tanh(z[3]), alpha, beta, delta)

    res = scipy.optimize.minimize(
        lambda z: -fun(z),
        z0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 40000, "maxfev": 40000},
    )
    val = -res.fun
    if val < best:
        val, res_x = best, z0
    else:
        res_x = res.x
    if return_argmax:
        k = (math.exp(res_x[0]), math.exp(res_x[1]), math.exp(res_x[2]), math.tanh(res_x[3]))
        return val, k
    return val


def coupled_sums_bruteforce(alpha: float, beta: float, delta: float) -> float:
    """Optimal constant via direct maximization of the determinant ratio.

    Maximizes both the raw four-variable ratio over (K1, K2, K3, rho) and
    the reduced two-variable form obtained by setting K1 = K2 and
    x = K3 / K; the two computations must agree to 1e-4 relative, and the
    larger (both approach the supremum from below) is returned as a
    constant in nats.
    """
    p = CoupledSumsParams(alpha, beta, delta, delta)
    feas = coupled_sums_feasible(p)
    if not feas.feasible:
        raise ValueError(
            f"infeasible exponents; failed conditions {feas.failed_conditions()}"
        )
    s2 = _sup_2var(alpha, beta)
    s4 = _sup_4var(alpha, beta, delta)
    if abs(s2 - s4) > 2e-4:
        raise RuntimeError(
            f"four-variable and reduced maximizations disagree: {s4} vs {s2}"
        )
    return 0.5 * max(s2, s4)
