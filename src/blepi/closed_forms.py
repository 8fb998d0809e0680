"""Closed-form constants for the named special cases.

Covers the entropy power inequality optimum (zero), the Zamir-Feder
coefficient identities built on the Cauchy-Binet formula, and the
coupled-sums family (X1 + Y, X2 + Y), whose optimal constant has an
explicit expression when delta1 = delta2 and is also computed here by
brute-force maximization of the underlying determinant ratio as an
independent oracle.

The Zamir-Feder helpers read their matrix through
:func:`blepi.datum.make_zamir_feder_datum`, so its one orthonormal-rows
check (1e-9) is theirs too, and the coefficients are that datum's block
exponents.

The oracle maximizes the raw determinant ratio over (K1, K2, K3, rho).
Balanced exponents make it invariant under K -> s K, so it searches
(log K1, log K2, t = atanh rho) at K3 = 1, on one numpy kernel that writes
the log ratio without cancellation: a grid scan, then a shrinking-stencil
direct search on the same kernel. The search is monotone, so it approaches
the supremum from below, also at alpha = 1 (rho = 1) where the supremum is
a limit as t -> infinity. The module loads numpy only, no scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datum import make_zamir_feder_datum

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


def zf_coefficients(A) -> np.ndarray:
    """Squared column norms alpha_j^2 of a matrix with orthonormal rows.

    These are the block exponents of the Zamir-Feder datum, and equal the
    derivative of log det(A Lambda A^T) in log lambda_j at Lambda = I.
    """
    return make_zamir_feder_datum(A).d


def zf_F(A, lambdas) -> float:
    """F(Lambda) = log det(A Lambda A^T) - sum_j alpha_j^2 log(lambda_j).

    Nonnegative for orthonormal-row A and positive diagonal Lambda, with
    equality at Lambda proportional to the identity.
    """
    datum = make_zamir_feder_datum(A)
    A, alpha_sq = datum.maps[0], datum.d
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) != A.shape[1]:
        raise ValueError("need one positive diagonal entry per column of A")
    if not (np.isfinite(lam).all() and (lam > 0).all()):  # NaN fails lam > 0, inf passes
        raise ValueError("diagonal entries must be finite and positive")
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
    if B.ndim != 2:
        raise ValueError("B must be a 2-d matrix")
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


def _require_feasible(alpha: float, beta: float, delta: float) -> None:
    """Raise ValueError, naming the failed conditions, unless the tuple
    (alpha, beta, delta, delta) is feasible."""
    feas = coupled_sums_feasible(CoupledSumsParams(alpha, beta, delta, delta))
    if not feas.feasible:
        raise ValueError(
            f"infeasible exponents; failed conditions {feas.failed_conditions()}"
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
    _require_feasible(alpha, beta, delta)
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


def _log_ratio(u1, u2, t, alpha, delta):
    """Log of the raw determinant ratio at (K1, K2, K3) = (e^u1, e^u2, 1),
    rho = tanh t, broadcast over its arguments.

    The raw ratio is det(Cov X)^alpha K3^beta / ((K1 K2)^delta
    det Cov(X1 + Y, X2 + Y)), with X = (X1, X2) of variances K1, K2 and
    correlation rho, and Y of variance K3 independent of X. Under K -> s K
    it changes by (2 (alpha - delta) + beta - 2) log s, which the balance
    condition makes zero, so K3 = 1 loses nothing and beta drops out.

    Two rewrites keep the rounding from growing with |t| or with the scale
    of K: log(1 -+ rho) = log 2 - log(1 + exp(+-2t)), in logaddexp form,
    and the denominator's k1 + k2 - 2 rho sqrt(k1 k2) is written
    (sqrt k1 - sqrt k2)^2 + 2 (1 - rho) sqrt(k1 k2). Where the denominator
    is not positive and finite (exp overflows or underflows far out), the
    value is -inf, and no floating-point warning is raised.
    """
    with np.errstate(all="ignore"):
        tail = np.log1p(np.exp(-np.abs(2.0 * t)))
        l1m = _LOG2 - (np.maximum(2.0 * t, 0.0) + tail)
        l1p = _LOG2 - (np.maximum(-2.0 * t, 0.0) + tail)
        k1, k2 = np.exp(u1), np.exp(u2)
        gap = np.sqrt(k1) - np.sqrt(k2)
        den = k1 * k2 * np.exp(l1m + l1p) + gap * gap + 2.0 * np.exp(l1m) * np.sqrt(k1 * k2)
        v = (alpha - delta) * (u1 + u2) + alpha * (l1m + l1p) - np.log(den)
        return np.where((den > 0.0) & (den < math.inf), v, -math.inf)


# scan grid of the brute-force oracle, (u1, u2, t) = (log K1, log K2,
# atanh rho) at K3 = 1, and the cap on the rounds of its stencil ascent
_GRID = (np.linspace(-8.0, 8.0, 17),) * 2 + (np.linspace(-6.0, 6.0, 41),)
_ROUNDS = 200
_STEP_TOL = 1e-7
# the 5 x 5 x 5 stencil, in units of the per-axis step
_STENCIL = np.stack(np.meshgrid(*(np.arange(-2.0, 3.0),) * 3, indexing="ij"), -1).reshape(-1, 3)


def _scan(alpha, delta):
    """Largest _log_ratio on _GRID and its (u1, u2, t); the first in C order
    among ties, which is the point a nested loop with a strict ``>`` keeps."""
    values = _log_ratio(*np.meshgrid(*_GRID, indexing="ij", sparse=True), alpha, delta)
    idx = np.unravel_index(np.argmax(values), values.shape)
    return float(values[idx]), tuple(float(ax[i]) for ax, i in zip(_GRID, idx))


def _ascend(fun, z, step):
    """Shrinking-stencil direct search for the maximum of fun from z.

    Each round evaluates fun on the stencil z + _STENCIL * step and moves
    to its best point if that is strictly better than z; otherwise every
    step is divided by 4. The search stops once the largest step is at
    most _STEP_TOL, or after _ROUNDS rounds. Returns the best value, its
    point and the number of rounds, which is below _ROUNDS exactly when the
    search stopped on its step tolerance.
    """
    best, rounds = float(fun(*z)), 0
    while step.max() > _STEP_TOL and rounds < _ROUNDS:
        rounds += 1
        points = z + _STENCIL * step
        values = fun(*points.T)
        i = int(np.argmax(values))
        if values[i] > best:
            best, z = float(values[i]), points[i]
        else:
            step = step / 4.0
    return best, z, rounds


def _sup_ratio(alpha, delta):
    """Supremum of the raw log ratio and its point as (K1, K2, K3, rho),
    K3 = 1: the grid maximum of _log_ratio, raised by _ascend from there
    with the grid spacing as its first steps.

    The ascent is monotone, so it approaches the supremum from below; at
    alpha = 1 that supremum is a limit as t -> infinity, and the ascent
    still stops on its step tolerance once the gains fall below rounding.
    """
    _, z = _scan(alpha, delta)
    step = np.array([ax[1] - ax[0] for ax in _GRID])
    val, z, _ = _ascend(lambda *z: _log_ratio(*z, alpha, delta), np.array(z), step)
    return val, (math.exp(z[0]), math.exp(z[1]), 1.0, math.tanh(z[2]))


def coupled_sums_bruteforce(alpha: float, beta: float, delta: float) -> float:
    """Optimal constant via direct maximization of the determinant ratio.

    Maximizes the raw ratio over (K1, K2, K3, rho), in t = atanh(rho), at
    the unit scale K3 = 1, and returns half its supremum as a constant in
    nats. The maximization approaches the supremum from below, also at the
    alpha = 1 boundary where it is a limit. Exponents balanced only to
    within the feasibility tolerance (1e-9) leave the ratio a small power
    of the scale of K, unbounded in that scale; the oracle reports it at
    K3 = 1.
    """
    _require_feasible(alpha, beta, delta)
    return 0.5 * _sup_ratio(alpha, delta)[0]
