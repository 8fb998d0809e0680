"""Exact Gaussian entropy algebra and the log-det maximizer.

For Gaussian inputs the inequality objective

    f(Sigma) = sum_i d_i h(N(0, Sigma_i)) - sum_j c_j h(N(0, A_j Sigma A_j^T))

is a smooth function of the block-diagonal covariance Sigma, with
closed-form value and gradient.  One kernel, ``_logdet_kernel``, holds
that algebra; its value path also takes a stack of covariances and
returns one value per covariance.  ``solve_mg`` answers unbounded when
the scaling balance fails or the subspace search finds a violating
subspace; otherwise it maximizes the objective over SPD blocks by
multi-start quasi-Newton ascent on Cholesky factors (log-parameterized
diagonals).  The divergence probe tries the full space and each single
block as escape rays, evaluating all scales of one ray in a single
stacked kernel call.  Perturbed variants add isotropic noise delta to
the blocks and epsilon to the images; paired and mixture evaluations
cover the two-copy rotation identity and auxiliary-variable averages.

Everything is in nats.  All value types are immutable; multi-start runs
are independent given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .datum import RESIDUAL_TOL, Datum, Partition, scaling_residual
from .subspace import ProductSubspace, SearchBudget, find_violating_subspace

__all__ = [
    "LOG_2PIE",
    "BlockCovariance",
    "PerturbationParams",
    "GaussianSolveResult",
    "GaussianPair",
    "GaussianMixture",
    "SolverOptions",
    "EscapeRay",
    "DegenerateImageError",
    "gaussian_entropy",
    "objective",
    "objective_perturbed",
    "gradient",
    "solve_mg",
    "divergence_probe",
    "ray_covariance",
    "pair_s",
    "rotate_pair",
    "mixture_s",
]

LOG_2PIE = math.log(2.0 * math.pi) + 1.0

_SYM_TOL = 1e-10


class DegenerateImageError(RuntimeError):
    """An image covariance A_j Sigma A_j^T is numerically singular, so the
    subtracted entropy term diverges to -infinity."""


def _check_spd(M: np.ndarray, what: str, ndim: int = 2) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix M or, with ``ndim`` 3, of each
    matrix M[s] of a stack.  Raises ValueError unless each matrix is square,
    symmetric within _SYM_TOL relative to its own largest entry, and
    positive definite."""
    M = np.asarray(M, dtype=float)
    if M.ndim != ndim or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if M.shape[-1] == 0:
        return M
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1), keepdims=True))
    if not np.allclose(M, np.swapaxes(M, -2, -1), atol=_SYM_TOL * scale):
        raise ValueError(f"{what} is not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} is not positive definite") from exc


@dataclass(frozen=True)
class BlockCovariance:
    """Block-diagonal SPD covariance Diag(Sigma_1, ..., Sigma_k)."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for i, S in enumerate(self.blocks):
            S = np.array(S, dtype=float)
            _check_spd(S, f"covariance block {i}")
            S.setflags(write=False)
            frozen.append(S)
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def partition(self) -> Partition:
        return Partition(tuple(S.shape[0] for S in self.blocks))

    def full(self) -> np.ndarray:
        return scipy.linalg.block_diag(*self.blocks)

    def scaled(self, t: float) -> "BlockCovariance":
        return BlockCovariance(tuple(t * S for S in self.blocks))

    @staticmethod
    def identity(partition: Partition) -> "BlockCovariance":
        return BlockCovariance(tuple(np.eye(r) for r in partition.blocks))

    def to_dict(self) -> dict:
        return {"blocks": [[[float(x) for x in row] for row in S] for S in self.blocks]}


@dataclass(frozen=True)
class PerturbationParams:
    """Isotropic noise levels: delta added to blocks, epsilon to images."""

    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0 or self.delta < 0:
            raise ValueError("perturbation levels must be nonnegative")


def gaussian_entropy(cov) -> float:
    """Differential entropy of N(0, cov) in nats: 0.5 log((2 pi e)^d det cov).

    A 0 x 0 covariance returns 0 (entropy of a point mass in R^0).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    d = cov.shape[0]
    if d == 0:
        return 0.0
    L = _check_spd(cov, "covariance")
    return 0.5 * (d * LOG_2PIE + 2.0 * float(np.sum(np.log(np.diag(L)))))


def _image_cov(A: np.ndarray, full: np.ndarray) -> np.ndarray:
    M = A @ full @ A.T
    return 0.5 * (M + np.swapaxes(M, -2, -1))


def _logdet_kernel(datum, blocks, factors, epsilon=0.0, cond_limit=None, grad=False):
    """Objective value at Diag(blocks) and, with ``grad``, its per-block gradient

        0.5 d_i Sigma_i^{-1} - 0.5 [sum_j c_j A_j^T M_j^{-1} A_j]_ii,

    where ``factors`` are lower Cholesky factors of ``blocks`` and each
    image covariance M_j = A_j Sigma A_j^T + epsilon I.  Raises
    DegenerateImageError when an M_j has no Cholesky factor or, with
    ``cond_limit``, a condition number above it.  The comparison is
    written so that an inf or NaN factor diagonal also fails it.

    Without ``grad``, blocks and factors may carry a leading stack axis,
    (S, r_i, r_i) for every block; the value is then an array of S values,
    one per stacked covariance, and a degenerate image at any of them
    raises.  Each stacked value is computed as the unstacked call would
    compute it.
    """
    stack = blocks[0].shape[:-2]
    full = np.zeros(stack + (datum.n, datum.n))
    for (start, stop), S in zip(datum.partition.offsets(), blocks):
        full[..., start:stop, start:stop] = S
    diag_floor = 0.0 if cond_limit is None else cond_limit**-0.5  # diag ratio ~ sqrt(cond)
    val = 0.0
    for di, L in zip(datum.d, factors):
        logdiag = np.log(np.diagonal(L, axis1=-2, axis2=-1))
        val += di * 0.5 * (L.shape[-1] * LOG_2PIE + 2.0 * np.sum(logdiag, axis=-1))
    T = np.zeros((datum.n, datum.n))
    for cj, A in zip(datum.c, datum.maps):
        M = _image_cov(A, full) + epsilon * np.eye(A.shape[0])
        try:
            cm = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise DegenerateImageError("image covariance is numerically singular") from exc
        dg = np.diagonal(cm, axis1=-2, axis2=-1)
        if not np.all(dg.min(axis=-1) / dg.max(axis=-1) >= diag_floor):
            raise DegenerateImageError("image covariance is ill-conditioned")
        val -= cj * 0.5 * (A.shape[0] * LOG_2PIE + 2.0 * np.sum(np.log(dg), axis=-1))
        if grad:
            T += cj * (A.T @ scipy.linalg.cho_solve((cm, True), A))
    if not grad:
        return val, None
    grads = []
    for (start, stop), di, L in zip(datum.partition.offsets(), datum.d, factors):
        Sinv = scipy.linalg.cho_solve((L, True), np.eye(L.shape[0]))
        G = 0.5 * di * Sinv - 0.5 * T[start:stop, start:stop]
        grads.append(0.5 * (G + G.T))
    return float(val), tuple(grads)


def objective(datum: Datum, sigma: BlockCovariance) -> float:
    """Gaussian objective sum_i d_i h(Sigma_i) - sum_j c_j h(A_j Sigma A_j^T)."""
    return objective_perturbed(datum, sigma, PerturbationParams())


def objective_perturbed(
    datum: Datum, sigma: BlockCovariance, p: PerturbationParams
) -> float:
    """Noise-smoothed objective: blocks get +delta I, images get +epsilon I."""
    if sigma.partition != datum.partition:
        raise ValueError("covariance blocks do not match the datum partition")
    blocks = [S + p.delta * np.eye(S.shape[0]) for S in sigma.blocks]
    factors = [np.linalg.cholesky(S) for S in blocks]
    return float(_logdet_kernel(datum, blocks, factors, p.epsilon)[0])


def gradient(datum: Datum, sigma: BlockCovariance) -> tuple[np.ndarray, ...]:
    """Per-block symmetric gradient of the Gaussian objective.

    Block i:  0.5 d_i Sigma_i^{-1} - 0.5 [sum_j c_j A_j^T (A_j Sigma A_j^T)^{-1} A_j]_ii
    """
    if sigma.partition != datum.partition:
        raise ValueError("covariance blocks do not match the datum partition")
    factors = [np.linalg.cholesky(S) for S in sigma.blocks]
    return _logdet_kernel(datum, sigma.blocks, factors, grad=True)[1]


# ---------------------------------------------------------------------------
# Cholesky-parameterized multi-start ascent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverOptions:
    starts: int = 8
    tol: float = 1e-8            # gradient norm in the Cholesky parameters
    seed: int = 0


_MAX_ITER = 5000      # L-BFGS iterations per restart
_COND_LIMIT = 1e12    # image covariances beyond this count as degenerate
_THETA_WALL = 200.0   # keeps exp() finite; genuine optima sit far inside


@dataclass(frozen=True)
class GaussianSolveResult:
    mg_value: float
    sigma_star: BlockCovariance
    converged: bool
    unbounded: bool
    starts_used: int
    gradient_norm: float

    def to_dict(self) -> dict:
        return {
            "mg_value": self.mg_value,
            "sigma_star": self.sigma_star.to_dict(),
            "converged": self.converged,
            "unbounded": self.unbounded,
            "starts_used": self.starts_used,
            "gradient_norm": self.gradient_norm,
        }


class _Layout:
    """Packing of per-block lower-triangular factors into one flat vector.

    Strictly-lower entries are stored raw; diagonal entries are stored as
    logs, so every parameter vector maps to an SPD block covariance.
    """

    def __init__(self, partition: Partition):
        self.blocks = partition.blocks
        self.tril = [np.tril_indices(r) for r in self.blocks]
        self.sizes = [r * (r + 1) // 2 for r in self.blocks]
        self.total = sum(self.sizes)

    def split(self, theta: np.ndarray) -> list[np.ndarray]:
        out, pos = [], 0
        for s in self.sizes:
            out.append(theta[pos : pos + s])
            pos += s
        return out

    def factors(self, theta: np.ndarray) -> list[np.ndarray]:
        Ls = []
        for r, (rows, cols), part in zip(self.blocks, self.tril, self.split(theta)):
            L = np.zeros((r, r))
            L[rows, cols] = part
            idx = np.arange(r)
            L[idx, idx] = np.exp(L[idx, idx])
            Ls.append(L)
        return Ls

    def covariance(self, theta: np.ndarray) -> BlockCovariance:
        return BlockCovariance(tuple(L @ L.T for L in self.factors(theta)))

    def pack_grad(self, Ls, block_grads) -> np.ndarray:
        parts = []
        for L, G, (rows, cols) in zip(Ls, block_grads, self.tril):
            GL = 2.0 * (G @ L)
            idx = np.arange(L.shape[0])
            GL[idx, idx] *= L[idx, idx]  # chain rule through the log-diagonal
            parts.append(GL[rows, cols])
        return np.concatenate(parts) if parts else np.zeros(0)


def _value_grad(datum: Datum, layout: _Layout, theta: np.ndarray):
    """Objective value and flat gradient at theta; raises DegenerateImageError
    when theta is beyond the wall or an image covariance is degenerate
    (condition number above _COND_LIMIT)."""
    if theta.size and np.abs(theta).max() > _THETA_WALL:
        raise DegenerateImageError("parameters beyond the theta wall")
    Ls = layout.factors(theta)
    val, block_grads = _logdet_kernel(
        datum, [L @ L.T for L in Ls], Ls, cond_limit=_COND_LIMIT, grad=True
    )
    return val, layout.pack_grad(Ls, block_grads)


def _newton_polish(datum, layout, theta, opts, steps=5):
    """Final gradient push for ill-conditioned optima.

    Near a boundary-flat maximizer the quasi-Newton loop stagnates once
    objective improvements fall below machine precision, while the
    gradient can still sit around 1e-8.  A few damped Newton steps on a
    finite-difference Hessian (cheap: a handful of parameters) drive the
    gradient the rest of the way down.
    """
    try:
        val, grad = _value_grad(datum, layout, theta)
    except DegenerateImageError:
        return None
    p = len(theta)
    for _ in range(steps):
        gnorm = np.linalg.norm(grad)
        if gnorm <= opts.tol or p == 0:
            break
        h = 1e-6 * max(1.0, float(np.abs(theta).max()))
        H = np.zeros((p, p))
        try:
            for i in range(p):
                e = np.zeros(p)
                e[i] = h
                _, gp = _value_grad(datum, layout, theta + e)
                _, gm = _value_grad(datum, layout, theta - e)
                H[:, i] = (gp - gm) / (2 * h)
        except DegenerateImageError:
            break
        H = 0.5 * (H + H.T)
        step, *_ = np.linalg.lstsq(H, -grad, rcond=1e-12)
        improved = False
        for scale in (1.0, 0.5, 0.25, 0.125):
            cand = theta + scale * step
            try:
                cval, cgrad = _value_grad(datum, layout, cand)
            except DegenerateImageError:
                continue
            if np.linalg.norm(cgrad) < gnorm:
                theta, val, grad = cand, cval, cgrad
                improved = True
                break
        if not improved:
            break
    return theta, val, float(np.linalg.norm(grad))


def _run_start(datum, layout, theta0, opts):
    def fun(theta):
        wall = np.abs(theta).max() - _THETA_WALL if theta.size else -1.0
        if wall > 0:
            g = np.zeros_like(theta)
            hot = np.abs(theta) > _THETA_WALL
            g[hot] = 2e4 * (np.abs(theta[hot]) - _THETA_WALL) * np.sign(theta[hot])
            return 1e4 * wall * wall, g
        try:
            val, grad = _value_grad(datum, layout, theta)
        except DegenerateImageError:
            return 1e60, np.zeros_like(theta)
        return -val, -grad

    theta = theta0
    best = None
    # restarting from the endpoint resets the curvature memory, which
    # usually buys another order of magnitude on the gradient norm
    for _ in range(3):
        res = scipy.optimize.minimize(
            fun,
            theta,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": _MAX_ITER, "ftol": 1e-16, "gtol": 1e-12, "maxcor": 20},
        )
        theta = res.x
        try:
            val, grad = _value_grad(datum, layout, theta)
        except DegenerateImageError:
            return best
        best = (theta, val, float(np.linalg.norm(grad)))
        if best[2] <= opts.tol:
            break
    if best is not None and best[2] > opts.tol:
        polished = _newton_polish(datum, layout, best[0], opts)
        if polished is not None and polished[2] < best[2]:
            best = polished
    return best


def _unbounded(partition: Partition, V: ProductSubspace, lam: float) -> GaussianSolveResult:
    return GaussianSolveResult(
        mg_value=math.inf,
        sigma_star=ray_covariance(partition, V, lam),
        converged=False,
        unbounded=True,
        starts_used=0,
        gradient_norm=math.inf,
    )


def solve_mg(datum: Datum, opts: SolverOptions = SolverOptions()) -> GaussianSolveResult:
    """Maximize the Gaussian objective over block covariances.

    The constant is finite iff the scaling balance holds and no product
    subspace has positive slack, so those two checks come first.  A datum
    that fails the balance is unbounded along the full space V, on the
    side of the scale where the objective grows; one with a violating
    subspace V found by the search is unbounded along V.  Both answers
    carry ``sigma_star = ray_covariance(partition, V, lam)`` with lam
    2**10, or 2**-10 when the objective grows as Sigma shrinks.
    Otherwise multi-start L-BFGS ascent on the Cholesky parameters
    reports the best run; ``converged`` means the gradient norm (in the
    ascent parameters) fell below ``opts.tol``.
    """
    res = scaling_residual(datum)
    if abs(res) > RESIDUAL_TOL:
        # the objective moves by 0.5 * res * log(t) under Sigma -> t Sigma
        full = ProductSubspace.full(datum.partition)
        return _unbounded(datum.partition, full, 2.0 ** math.copysign(10, res))
    V = find_violating_subspace(datum, SearchBudget())
    if V is not None:
        # along V the objective grows like 0.5 * slack(V) * log(lam)
        return _unbounded(datum.partition, V, 2.0**10)

    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    layout = _Layout(datum.partition)
    best = None
    starts = max(1, opts.starts)
    for s in range(starts):
        theta0 = np.zeros(layout.total) if s == 0 else rng.normal(0.0, 0.5, layout.total)
        out = _run_start(datum, layout, theta0, opts)
        if out is None:
            continue
        theta, val, gnorm = out
        if best is None or val > best[1] + 1e-15 or (
            abs(val - best[1]) <= 1e-12 and gnorm < best[2]
        ):
            best = (theta, val, gnorm)

    if best is None:
        return GaussianSolveResult(
            mg_value=math.nan,
            sigma_star=BlockCovariance.identity(datum.partition),
            converged=False,
            unbounded=False,
            starts_used=starts,
            gradient_norm=math.inf,
        )
    theta, val, gnorm = best
    return GaussianSolveResult(
        mg_value=val,
        sigma_star=layout.covariance(theta),
        converged=gnorm <= opts.tol,
        unbounded=False,
        starts_used=starts,
        gradient_norm=gnorm,
    )


# ---------------------------------------------------------------------------
# escape-ray divergence probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeRay:
    direction: ProductSubspace
    gain: float  # objective increase over the last ten doublings


def ray_covariance(partition: Partition, V: ProductSubspace, lam: float) -> BlockCovariance:
    """Identity inflated by a factor lam along the product subspace V."""
    blocks = []
    for r, B in zip(partition.blocks, V.bases):
        blocks.append(np.eye(r) + (lam - 1.0) * (B @ B.T))
    return BlockCovariance(tuple(blocks))


_PROBE_STEPS = 20  # doublings; final scale 2^20 ~ 1e6
_PROBE_INC_TOL = 1e-5
_PROBE_GAIN_TOL = 1e-4


def _ray_values(datum: Datum, V: ProductSubspace) -> np.ndarray:
    """Objective at ray_covariance(partition, V, 2^s) for s = 0 .. _PROBE_STEPS.

    The scales are one stack per block, validated as BlockCovariance
    validates each scale, and evaluated in one stacked kernel call.
    Raises DegenerateImageError when the image is degenerate at any scale.
    """
    lam = 2.0 ** np.arange(_PROBE_STEPS + 1)
    blocks, factors = [], []
    for i, (r, B) in enumerate(zip(datum.partition.blocks, V.bases)):
        S = np.eye(r) + (lam[:, None, None] - 1.0) * (B @ B.T)
        blocks.append(S)
        factors.append(_check_spd(S, f"covariance block {i}", ndim=3))
    return _logdet_kernel(datum, blocks, factors)[0]


def _ray_escapes(datum: Datum, V: ProductSubspace) -> Optional[float]:
    try:
        vals = _ray_values(datum, V)
    except DegenerateImageError:
        return None
    inc = np.diff(vals)[_PROBE_STEPS // 2 :]
    # genuine escapes grow linearly in log-scale: every late increment is
    # bounded away from zero, while bounded objectives have geometrically
    # decaying increments.
    if np.all(inc > _PROBE_INC_TOL) and float(np.sum(inc)) > _PROBE_GAIN_TOL:
        return float(np.sum(inc))
    return None


def divergence_probe(datum: Datum) -> Optional[EscapeRay]:
    """Search for a ray along which the objective grows without bound.

    The rays are the full space and each single full block; no random
    rays are drawn, since a Haar-random subspace has the smallest slack
    of its dimension profile.  Each ray V is tried at the scales
    ray_covariance(partition, V, 2^s), s = 0 .. 20, stacked into one
    kernel call; a degenerate image at any scale rules the ray out.
    Returns the first escaping ray found.
    """
    partition = datum.partition
    rays = [ProductSubspace.full(partition)]
    for i in range(partition.k):
        bases = [
            np.eye(r) if j == i else np.zeros((r, 0))
            for j, r in enumerate(partition.blocks)
        ]
        rays.append(ProductSubspace(tuple(bases)))
    for V in rays:
        gain = _ray_escapes(datum, V)
        if gain is not None:
            return EscapeRay(direction=V, gain=gain)
    return None


# ---------------------------------------------------------------------------
# two-copy pairs and finite mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPair:
    """Joint covariance of two copies (X_1, X_2), one 2r_i x 2r_i SPD matrix
    per block, blocks independent across i.  Within block i the leading
    r_i coordinates belong to copy 1 and the trailing r_i to copy 2."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for i, J in enumerate(self.blocks):
            J = np.array(J, dtype=float)
            _check_spd(J, f"pair block {i}")
            if J.shape[0] % 2 != 0:
                raise ValueError(f"pair block {i} must have even dimension")
            J.setflags(write=False)
            frozen.append(J)
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def partition(self) -> Partition:
        return Partition(tuple(J.shape[0] // 2 for J in self.blocks))

    def marginals(self) -> tuple[BlockCovariance, BlockCovariance]:
        firsts, seconds = [], []
        for J in self.blocks:
            r = J.shape[0] // 2
            firsts.append(J[:r, :r])
            seconds.append(J[r:, r:])
        return BlockCovariance(tuple(firsts)), BlockCovariance(tuple(seconds))

    @staticmethod
    def independent(first: BlockCovariance, second: BlockCovariance) -> "GaussianPair":
        blocks = tuple(
            scipy.linalg.block_diag(S1, S2)
            for S1, S2 in zip(first.blocks, second.blocks)
        )
        return GaussianPair(blocks)


def pair_s(datum: Datum, pair: GaussianPair, p: PerturbationParams) -> float:
    """Two-copy perturbed objective, evaluated in closed form.

    This is the perturbed objective of the doubled datum: block i becomes
    the 2r_i-dimensional joint block of the two copies, and each map
    becomes Diag(A_j, A_j), sending (copy 1, copy 2) to (A_j X_1, A_j X_2).
    """
    if pair.partition != datum.partition:
        raise ValueError("pair blocks do not match the datum partition")
    eye2 = np.eye(2)
    doubled = Datum(
        partition=Partition(tuple(2 * r for r in datum.partition.blocks)),
        maps=tuple(
            np.hstack([np.kron(eye2, A[:, a:b]) for a, b in datum.partition.offsets()])
            for A in datum.maps
        ),
        c=datum.c,
        d=datum.d,
    )
    return objective_perturbed(doubled, BlockCovariance(pair.blocks), p)


def rotate_pair(pair: GaussianPair) -> GaussianPair:
    """Joint law of ((X_1+X_2)/sqrt2, (X_1-X_2)/sqrt2); an involution."""
    blocks = []
    for J in pair.blocks:
        r = J.shape[0] // 2
        eye = np.eye(r)
        R = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2.0)
        blocks.append(R @ J @ R.T)
    return GaussianPair(tuple(blocks))


@dataclass(frozen=True)
class GaussianMixture:
    """Finite mixture of block covariances (the conditional laws given an
    auxiliary variable).  The component count is capped at
    sum_i r_i (r_i + 1) / 2 + 1, which suffices for any conditional
    covariance profile."""

    weights: np.ndarray
    components: tuple[BlockCovariance, ...]

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != len(self.components):
            raise ValueError("weights and components must align")
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, not 1")
        parts = {comp.partition for comp in self.components}
        if len(parts) != 1:
            raise ValueError("mixture components have inconsistent partitions")
        partition = next(iter(parts))
        cap = sum(r * (r + 1) // 2 for r in partition.blocks) + 1
        if len(self.components) > cap:
            raise ValueError(
                f"{len(self.components)} components exceed the cap {cap} for this partition"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def partition(self) -> Partition:
        return self.components[0].partition


def mixture_s(datum: Datum, mix: GaussianMixture, p: PerturbationParams) -> float:
    """Auxiliary-averaged perturbed objective: the weighted sum of the
    perturbed objective over mixture components."""
    if mix.partition != datum.partition:
        raise ValueError("mixture blocks do not match the datum partition")
    return float(
        sum(
            w * objective_perturbed(datum, comp, p)
            for w, comp in zip(mix.weights, mix.components)
        )
    )
