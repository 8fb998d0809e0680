"""Closed-form constants for the named special cases.

Covers the entropy power inequality optimum (zero), the Zamir-Feder
coefficient identities built on the Cauchy-Binet formula, and the
coupled-sums family (X1 + Y, X2 + Y), whose optimal constant has an
explicit expression when delta1 = delta2 and is also computed here by
brute-force maximization of the underlying determinant ratio as an
independent oracle.

The oracle works in t = atanh(rho), in which both log ratios are written
without cancellation. At alpha = 1 (rho = 1) the supremum is a limit as
t -> infinity that the oracle approaches from below, and its Nelder-Mead
refinements stop on their own tolerances there as in the interior.
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


_LOG2 = math.log(2.0)


def _log_1mr_1pr(t):
    """log(1 - rho) and log(1 + rho) at rho = tanh(t), without cancellation:
    log(1 -+ rho) = log 2 - log(1 + exp(+-2t)), in logaddexp form."""
    tail = math.log1p(math.exp(-abs(2.0 * t)))
    return _LOG2 - (max(2.0 * t, 0.0) + tail), _LOG2 - (max(-2.0 * t, 0.0) + tail)


def _log_ratio_4var(logk1, logk2, logk3, t, alpha, beta, delta):
    """Log of the raw determinant ratio at (K1, K2, K3, rho = tanh t).

    Two rewrites keep the rounding from growing with |t| or with the
    scale of K. The denominator's k1 + k2 - 2 rho sqrt(k1 k2) is written
    (sqrt k1 - sqrt k2)^2 + 2 (1 - rho) sqrt(k1 k2). And the ratio is
    evaluated at k = K / K3, plus the balance residual
    2 (alpha - delta) + beta - 2 times log K3: the ratio changes by that
    residual times log s under K -> s K.
    """
    lk1, lk2 = logk1 - logk3, logk2 - logk3
    k1, k2 = math.exp(lk1), math.exp(lk2)
    l1m, l1p = _log_1mr_1pr(t)
    gap = math.sqrt(k1) - math.sqrt(k2)
    den = k1 * k2 * math.exp(l1m + l1p) + gap * gap + 2.0 * math.exp(l1m) * math.sqrt(k1 * k2)
    if den <= 0.0 or not math.isfinite(den):
        return -math.inf
    num = (
        (alpha - delta) * (lk1 + lk2)
        + alpha * (l1m + l1p)
        + (2.0 * (alpha - delta) + beta - 2.0) * logk3
    )
    return num - math.log(den)


def _log_ratio_2var(logx, t, alpha, beta):
    """Log of the reduced ratio (K1 = K2 = K, x = K3 / K) at rho = tanh t."""
    l1m, l1p = _log_1mr_1pr(t)
    den = math.exp(l1p) + 2.0 * math.exp(logx)
    return beta * logx + (alpha - 1.0) * l1m + alpha * l1p - math.log(den)


def _refine(fun, x0, maxfev):
    """Nelder-Mead ascent of fun from x0: the best value and its point."""
    res = scipy.optimize.minimize(
        lambda z: -fun(*z),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": maxfev, "maxfev": maxfev},
    )
    return -res.fun, res.x


# scan grids of the brute-force oracle, before the Nelder-Mead refinement:
# (log x, t) and (log K1, log K2, log K3, t), with t = atanh(rho)
_SCAN_2VAR = (np.linspace(-14.0, 14.0, 141), np.linspace(-8.0, 8.0, 161))
_SCAN_4VAR = (np.linspace(-4.0, 4.0, 9),) * 3 + (np.linspace(-6.0, 6.0, 41),)


def _first_max(values, axes):
    """Largest grid value and its coordinates; the first in C order among
    ties, which is the point a nested loop with a strict ``>`` keeps."""
    idx = np.unravel_index(np.argmax(values), values.shape)
    return float(values[idx]), tuple(float(ax[i]) for ax, i in zip(axes, idx))


def _scan_2var(alpha, beta):
    """_log_ratio_2var over the grid _SCAN_2VAR, term for term: the maximum
    and its (log x, t)."""
    lx, _ = np.meshgrid(*_SCAN_2VAR, indexing="ij", sparse=True)
    l1m, l1p = np.array([_log_1mr_1pr(t) for t in _SCAN_2VAR[1]]).T
    den = np.exp(l1p) + 2.0 * np.exp(lx)
    v = beta * lx + (alpha - 1.0) * l1m + alpha * l1p - np.log(den)
    return _first_max(v, _SCAN_2VAR)


def _scan_4var(alpha, beta, delta):
    """_log_ratio_4var over the grid _SCAN_4VAR, term for term: the maximum
    and its (log K1, log K2, log K3, t). The denominator is positive and
    finite on the whole grid."""
    lk1, lk2, lk3, _ = np.meshgrid(*_SCAN_4VAR, indexing="ij", sparse=True)
    u1, u2 = lk1 - lk3, lk2 - lk3
    k1, k2 = np.exp(u1), np.exp(u2)
    l1m, l1p = np.array([_log_1mr_1pr(t) for t in _SCAN_4VAR[3]]).T
    gap = np.sqrt(k1) - np.sqrt(k2)
    den = k1 * k2 * np.exp(l1m + l1p) + gap * gap + 2.0 * np.exp(l1m) * np.sqrt(k1 * k2)
    v = (
        (alpha - delta) * (u1 + u2)
        + alpha * (l1m + l1p)
        + (2.0 * (alpha - delta) + beta - 2.0) * lk3
        - np.log(den)
    )
    return _first_max(v, _SCAN_4VAR)


def _sup_2var(alpha, beta):
    """Supremum of the reduced log ratio over (log x, t), t = atanh(rho):
    the grid maximum refined by Nelder-Mead, whichever is larger.

    At alpha = 1 the supremum is a limit as t -> infinity, approached from
    below. There the (alpha - 1) log(1 - rho) term vanishes and the others
    carry no cancellation, so the refinement stops on its xatol/fatol
    tolerances rather than on maxfev.
    """
    best, z0 = _scan_2var(alpha, beta)
    val, _ = _refine(lambda *z: _log_ratio_2var(*z, alpha, beta), np.array(z0), 20000)
    return max(best, val)


def _sup_4var(alpha, beta, delta, return_argmax=False):
    """Supremum of the raw log ratio over (log K1, log K2, log K3, t),
    t = atanh(rho): the grid maximum refined by Nelder-Mead, whichever is
    larger; with return_argmax also its point as (K1, K2, K3, rho).

    At alpha = 1 the supremum is a limit as t -> infinity, approached from
    below. The ratio's terms carry no cancellation as t grows and do not
    grow with the scale of K, so the refinement stops on its xatol/fatol
    tolerances rather than on maxfev, there as in the interior.
    """
    best, z0 = _scan_4var(alpha, beta, delta)
    val, z = _refine(lambda *z: _log_ratio_4var(*z, alpha, beta, delta), np.array(z0), 40000)
    if val < best:
        val, z = best, z0
    if return_argmax:
        return val, (math.exp(z[0]), math.exp(z[1]), math.exp(z[2]), math.tanh(z[3]))
    return val


def coupled_sums_bruteforce(alpha: float, beta: float, delta: float) -> float:
    """Optimal constant via direct maximization of the determinant ratio.

    Maximizes both the raw four-variable ratio over (K1, K2, K3, rho) and
    the reduced two-variable form obtained by setting K1 = K2 and
    x = K3 / K, both in t = atanh(rho); the two constants must agree to
    1e-4, and the larger (both approach the supremum from below, also
    at the alpha = 1 boundary where it is a limit) is returned as a
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
    return float(0.5 * max(s2, s4))
