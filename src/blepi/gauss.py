"""Exact Gaussian entropy algebra and the log-det maximizer.

For Gaussian inputs the inequality objective

    f(Sigma) = sum_i d_i h(N(0, Sigma_i)) - sum_j c_j h(N(0, A_j Sigma A_j^T))

is a smooth function of the block-diagonal covariance Sigma, with
closed-form value and gradient.  One kernel, ``_logdet_kernel``, holds
that algebra.  It takes the block Cholesky factors L_i and reads each
image log-det off a QR factorization of (A_j L)^T, so A_j Sigma A_j^T is
never formed.  In the coordinates Sigma = L exp(X) L^T the
objective is geodesically concave: the block terms are linear in X and
the Hessian is negative semidefinite, and the kernel returns both the
gradient and the Hessian there.  ``solve_mg`` answers unbounded when the
root decision ``certify`` shares with ``check_finiteness`` is infinite;
otherwise it sums the leaf constants of ``certify``'s split tree,
maximizing the objective on each irreducible leaf by one damped Newton
ascent from Sigma = I in those coordinates; concavity makes a converged
ascent the global maximum.  The ascent's moved blocks are F exp(X) F^T,
symmetric by construction, so it checks them by a finiteness test and
their Cholesky factorization alone; covariances from outside go through
``_check_spd``, which also tests symmetry.
This module imports ``certify`` from :mod:`blepi.finiteness`, which
imports nothing from it.  A split datum's maximizer is reported leaf by
leaf, as the covariances the leaves computed, each in its leaf's
coordinates.  The ascent runs on unit-norm map rows plus their shift,
so the kernel's one conditioning rule (sqrt(eps)) does not depend on a
row's units.  Along ``ray_covariance(partition, V, lam)`` the objective
is 0.5 * slack(V) * log(lam) + O(1), so a ray escapes exactly when its
slack is positive; ``divergence_probe``, which tries the full space and
each single block, is :mod:`blepi.subspace`'s coordinate screen over
those rays, re-exported here.  Perturbed variants add isotropic noise
delta to the blocks and epsilon to the images.  A two-copy pair is a
``BlockCovariance`` J of ``doubled_datum(datum)``, evaluated by the same
objective; ``rotate_pair`` takes it to the law of
((X_1+X_2)/sqrt2, (X_1-X_2)/sqrt2), which leaves that objective unchanged.

Everything is in nats.  All value types are immutable, and the solver
draws no random numbers, so every solve is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .datum import Datum, Partition, _unit_rows
from .finiteness import ScalingResidual, ViolationError, certify
from .subspace import ProductSubspace, block_diag, divergence_probe

__all__ = [
    "LOG_2PIE",
    "BlockCovariance",
    "PerturbationParams",
    "GaussianSolveResult",
    "SolverOptions",
    "DegenerateImageError",
    "gaussian_entropy",
    "objective",
    "objective_perturbed",
    "gradient",
    "solve_mg",
    "divergence_probe",
    "ray_covariance",
    "rotate_pair",
]

LOG_2PIE = math.log(2.0 * math.pi) + 1.0

_SYM_TOL = 1e-10

# the kernel's conditioning rule: a Cholesky diagonal ratio, about
# 1 / sqrt(condition number), below sqrt(eps) is degenerate
_DIAG_FLOOR = np.finfo(float).eps ** 0.5


class DegenerateImageError(RuntimeError):
    """An image covariance A_j Sigma A_j^T is numerically singular, so the
    subtracted entropy term diverges to -infinity."""


def _check_spd(M: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix M.  Raises ValueError unless
    M is square, finite, symmetric and positive definite.  Symmetric means

        |M - M^T| <= _SYM_TOL max(1, max |M|) + 1e-5 |M^T|   entrywise,

    which is ``np.allclose(M, M.T, atol=_SYM_TOL * max(1, max |M|))`` with
    its default rtol written out, as one ufunc expression."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        return M
    if not np.isfinite(M).all():
        raise ValueError(f"{what} has non-finite entries")
    atol = _SYM_TOL * max(1.0, float(np.abs(M).max()))
    if not np.all(np.abs(M - M.T) <= atol + 1e-5 * np.abs(M.T)):
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
        return block_diag(self.blocks)

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


def _logdet_kernel(datum, factors, epsilon=0.0, basis=None):
    """Objective value at Sigma = Diag(L_i L_i^T) from the lower block factors L_i.

    Each image log-det comes from the QR factorization (A_j L)^T = Q_j R_j,
    with the rows sqrt(epsilon) I stacked under (A_j L)^T when epsilon > 0,
    so A_j Sigma A_j^T + epsilon I = R_j^T R_j is never formed and |diag R_j|
    is its Cholesky diagonal.  Raises DegenerateImageError when some
    min |diag R_j| / max |diag R_j| is below sqrt(eps), where the Cholesky
    factorization of A_j Sigma A_j^T fails; a NaN also fails the comparison.

    Returns (value, g, H).  Without ``basis``, g and H are None.  With
    ``basis``, an orthonormal basis (p, n, n) of the block-diagonal
    symmetric X, g and H are the gradient and Hessian of
    X -> f(L exp(X) L^T) at X = 0 (epsilon 0), with D = Diag(d_i I_{r_i})
    and P_j = Q_j Q_j^T:

        g(X) = 1/2 tr(D X) - 1/2 sum_j c_j tr(Q_j^T X Q_j),
        H(X, X) = -1/2 sum_j c_j ||(I - P_j) X Q_j||_F^2 <= 0.
    """
    L = block_diag(factors)
    val = 0.0
    for di, F in zip(datum.d, factors):
        val += di * 0.5 * (F.shape[0] * LOG_2PIE + 2.0 * np.log(np.diag(F)).sum())
    if basis is not None:
        gmat = 0.5 * np.diag(np.repeat(datum.d, datum.partition.blocks))  # g as a matrix
        H = np.zeros((len(basis), len(basis)))
    for cj, A in zip(datum.c, datum.maps):
        BT = (A @ L).T
        if epsilon:
            BT = np.vstack([BT, math.sqrt(epsilon) * np.eye(A.shape[0])])
        Q, R = np.linalg.qr(BT)
        dg = np.abs(np.diag(R))
        if not dg.min() >= _DIAG_FLOOR * dg.max():
            raise DegenerateImageError("image covariance is ill-conditioned")
        val -= cj * 0.5 * (A.shape[0] * LOG_2PIE + 2.0 * np.log(dg).sum())
        if basis is not None:
            gmat -= 0.5 * cj * (Q @ Q.T)
            XQ = basis @ Q
            W = (XQ - Q @ (Q.T @ XQ)).reshape(len(basis), -1)   # (I - P_j) X Q_j
            H -= 0.5 * cj * (W @ W.T)
    if basis is None:
        return val, None, None
    return float(val), basis.reshape(len(basis), -1) @ gmat.ravel(), H


def _sym_basis(partition: Partition) -> np.ndarray:
    """Orthonormal basis (p, n, n) of the block-diagonal symmetric matrices."""
    n = partition.n
    basis = []
    for start, stop in partition.offsets():
        for a in range(start, stop):
            for b in range(a, stop):
                E = np.zeros((n, n))
                E[a, b] = E[b, a] = 1.0 if a == b else math.sqrt(0.5)
                basis.append(E)
    return np.array(basis)


def _ascent_rows(datum: Datum) -> tuple[Datum, float]:
    """``_unit_rows(datum)``, the rows the ascent runs on, with their shift;
    a zero row makes its image singular (DegenerateImageError)."""
    try:
        return _unit_rows(datum)
    except ValueError as exc:  # log of a zero row norm
        raise DegenerateImageError("a map row is zero") from exc


def objective(datum: Datum, sigma: BlockCovariance) -> float:
    """Gaussian objective sum_i d_i h(Sigma_i) - sum_j c_j h(A_j Sigma A_j^T)."""
    return objective_perturbed(datum, sigma, PerturbationParams())


def objective_perturbed(
    datum: Datum, sigma: BlockCovariance, p: PerturbationParams
) -> float:
    """Noise-smoothed objective: blocks get +delta I, images get +epsilon I.

    Without image noise it is evaluated as the ascent evaluates it, on
    unit-norm rows plus their shift, so the kernel's conditioning rule
    does not depend on a row's units and the objective at a converged
    ``sigma_star`` is ``mg_value``.  Image noise is defined on the rows as
    given, so with epsilon > 0 they are kept.
    """
    if sigma.partition != datum.partition:
        raise ValueError("covariance blocks do not match the datum partition")
    shift = 0.0
    if not p.epsilon:
        datum, shift = _ascent_rows(datum)
    factors = [np.linalg.cholesky(S + p.delta * np.eye(S.shape[0])) for S in sigma.blocks]
    return float(_logdet_kernel(datum, factors, p.epsilon)[0]) + shift


def gradient(datum: Datum, sigma: BlockCovariance) -> tuple[np.ndarray, ...]:
    """Per-block symmetric gradient of the Gaussian objective.

    Block i:  0.5 d_i Sigma_i^{-1} - 0.5 [sum_j c_j A_j^T (A_j Sigma A_j^T)^{-1} A_j]_ii,
    computed as L_i^{-T} g_i L_i^{-1} from the kernel's gradient g in the
    coordinates Sigma = L exp(X) L^T, on unit-norm rows: a row scaling
    does not move it.
    """
    if sigma.partition != datum.partition:
        raise ValueError("covariance blocks do not match the datum partition")
    factors = [np.linalg.cholesky(S) for S in sigma.blocks]
    basis = _sym_basis(datum.partition)
    gmat = np.tensordot(_logdet_kernel(_ascent_rows(datum)[0], factors, basis=basis)[1], basis, 1)
    grads = []
    for (start, stop), F in zip(datum.partition.offsets(), factors):
        Finv = np.linalg.solve(F, np.eye(F.shape[0]))
        G = Finv.T @ gmat[start:stop, start:stop] @ Finv
        grads.append(0.5 * (G + G.T))
    return tuple(grads)


# ---------------------------------------------------------------------------
# damped Newton ascent in geodesic coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8            # scale-free gradient norm ||Diag(L_i^T G_i L_i)||_F
    starts: ClassVar[int] = 1    # ascents per irreducible leaf


_NEWTON_STEPS = 60    # Newton steps per ascent
_HALVINGS = 10        # step halvings before the ascent stops
_STEP_SIZES = tuple(0.5 ** np.arange(_HALVINGS))   # 1, 1/2, ..., the tried step lengths
_MAX_STEP = 2.0       # Frobenius norm cap on one step X
_ROUNDING = 1e-14     # predicted rises below this, relative to max(1, |value|), are rounding


@dataclass(frozen=True)
class GaussianSolveResult:
    mg_value: float
    # one covariance, or on a split datum one per leaf of its split tree
    sigma_star: Union[BlockCovariance, tuple[BlockCovariance, ...]]
    converged: bool
    unbounded: bool
    starts_used: int
    gradient_norm: float

    def to_dict(self) -> dict:
        if isinstance(self.sigma_star, tuple):
            return {**vars(self), "sigma_star": [S.to_dict() for S in self.sigma_star]}
        return {**vars(self), "sigma_star": self.sigma_star.to_dict()}


def _moved(datum: Datum, factors, X: np.ndarray):
    """Blocks of L exp(X) L^T and their lower Cholesky factors; raises
    DegenerateImageError when a block is not finite or not numerically
    positive definite.  A block is half half^T, symmetric by construction
    up to rounding, far inside ``_check_spd``'s symmetry tolerance, so it
    is checked by its Cholesky factorization alone."""
    blocks, out = [], []
    for (start, stop), F in zip(datum.partition.offsets(), factors):
        w, V = np.linalg.eigh(X[start:stop, start:stop])
        half = F @ (V * np.exp(0.5 * w))
        S = half @ half.T
        if not np.isfinite(S).all():
            raise DegenerateImageError("covariance block is not finite")
        try:
            out.append(np.linalg.cholesky(S))
        except np.linalg.LinAlgError as exc:
            raise DegenerateImageError("covariance block is numerically singular") from exc
        blocks.append(S)
    return blocks, out


def _newton(datum: Datum, opts: SolverOptions):
    """(value, covariance blocks, gradient norm) after damped Newton ascent
    from Sigma = I, or (nan, I, inf) when Sigma = I is degenerate.

    It ascends on the map rows at unit norm and adds their shift back: a
    row scaling moves neither the maximizer nor the scale-free gradient.
    Each step solves H x = -g in the least-squares sense (H is singular
    along the scaling direction), caps ||x|| at _MAX_STEP and is halved
    until the value rises or, once the predicted rise g.x is at rounding
    level, until the gradient norm falls.  The ascent ends at a gradient
    within ``opts.tol`` whose predicted rise is rounding, when no halving
    is accepted, or after _NEWTON_STEPS steps; the step cap and count bound
    how far it can move, so nothing overflows.  The objective is concave
    in X, so an ascent that ends within ``opts.tol`` is at the global
    maximum.
    """
    datum, shift = _unit_rows(datum)
    blocks = factors = [np.eye(r) for r in datum.partition.blocks]
    basis = _sym_basis(datum.partition)
    try:
        val, g, H = _logdet_kernel(datum, factors, basis=basis)
    except DegenerateImageError:
        return math.nan, blocks, math.inf
    gnorm = float(np.linalg.norm(g))
    for _ in range(_NEWTON_STEPS):
        x = np.linalg.lstsq(H, -g, rcond=None)[0]
        x *= _MAX_STEP / max(float(np.linalg.norm(x)), _MAX_STEP)
        rounding = float(g @ x) <= _ROUNDING * max(1.0, abs(val))
        if rounding and gnorm <= opts.tol:
            break
        X = np.tensordot(x, basis, 1)
        for t in _STEP_SIZES:
            try:
                tblocks, tfactors = _moved(datum, factors, t * X)
                tval, tg, tH = _logdet_kernel(datum, tfactors, basis=basis)
            except DegenerateImageError:
                continue
            tnorm = float(np.linalg.norm(tg))
            if (tnorm < gnorm) if rounding else (tval > val):
                break
        else:
            break
        blocks, factors, val, g, H, gnorm = tblocks, tfactors, tval, tg, tH, tnorm
    return val + shift, blocks, gnorm


def ray_covariance(partition: Partition, V: ProductSubspace, lam: float) -> BlockCovariance:
    """Identity inflated by a factor lam along the product subspace V."""
    blocks = []
    for r, B in zip(partition.blocks, V.bases):
        blocks.append(np.eye(r) + (lam - 1.0) * (B @ B.T))
    return BlockCovariance(tuple(blocks))


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
    """The optimal constant M of the datum, computed along a split tree.

    The constant is finite iff the scaling balance holds and no product
    subspace has positive slack.  ``certify`` decides both at its root and
    raises ``ViolationError`` with the witness when one fails; the answer
    is then unbounded along V, the full space for the balance and the
    violating subspace otherwise: ``sigma_star`` is
    ``ray_covariance(partition, V, lam)`` with lam 2**10, or 2**-10 when
    the objective grows as Sigma shrinks (a negative residual).

    Otherwise ``mg_value`` sums the leaves of ``certify``'s split tree
    (M = M_U + M_perp along a critical U): explicit constants, and one
    Newton ascent from Sigma = I on each irreducible leaf, whose
    scale-free gradient norms give ``converged`` (all at most ``opts.tol``)
    and ``gradient_norm`` (their maximum, 0 without such a leaf);
    ``starts_used`` counts those leaves.  ``sigma_star`` is what the
    leaves computed: the ascent's final covariance on an irreducible
    leaf, the identity on an explicit one.  An unsplit datum gets its one
    leaf's covariance; a split datum, whose supremum is in general reached
    only in a limit Sigma_U + lam Sigma_perp, lam -> 0, gets a tuple with
    one covariance per leaf of ``certify(datum).leaves()``, each in that
    leaf's coordinates.  The ascent evaluates the blocks it returns, so
    on a converged solve the leaf objectives (the constant on explicit
    leaves) sum to ``mg_value``.  An invalid datum raises ValueError, as
    in ``check_finiteness``.  After ``check_finiteness`` or ``certify`` on
    the same datum object it reads their root decision and tree; the
    Newton ascents are run on every call.
    """
    try:
        tree = certify(datum)
    except ViolationError as exc:
        if isinstance(exc.witness, ScalingResidual):
            # the objective moves by 0.5 * res * log(t) under Sigma -> t Sigma
            full = ProductSubspace.full(datum.partition)
            return _unbounded(datum.partition, full, 2.0 ** math.copysign(10, exc.witness.value))
        # along V the objective grows like 0.5 * slack(V) * log(lam)
        return _unbounded(datum.partition, exc.witness.subspace, 2.0**10)
    values, sigmas, gnorms = [], [], []
    for leaf in tree.leaves():
        if leaf.leaf_kind == "irreducible":
            val, blocks, gnorm = _newton(leaf.datum, opts)
            gnorms.append(gnorm)
        else:  # explicit leaves are constant in Sigma
            val, blocks = leaf.constant, [np.eye(r) for r in leaf.datum.partition.blocks]
        values.append(val)
        sigmas.append(BlockCovariance(tuple(blocks)))
    gnorm = max(gnorms, default=0.0)
    return GaussianSolveResult(
        mg_value=sum(values[1:], values[0]),  # a lone -0.0 keeps its sign
        sigma_star=sigmas[0] if tree.is_leaf else tuple(sigmas),
        converged=gnorm <= opts.tol,
        unbounded=False,
        starts_used=len(gnorms),  # one ascent per irreducible leaf
        gradient_norm=gnorm,
    )


# ---------------------------------------------------------------------------
# the two-copy rotation
# ---------------------------------------------------------------------------


def rotate_pair(pair: BlockCovariance) -> BlockCovariance:
    """Joint law of ((X_1+X_2)/sqrt2, (X_1-X_2)/sqrt2) from that of (X_1, X_2).

    ``pair`` is a covariance of ``doubled_datum``'s partition: block i
    holds copy 1's r_i coordinates then copy 2's, so an odd block raises
    ValueError.  The rotation is an involution.
    """
    blocks = []
    for i, J in enumerate(pair.blocks):
        if J.shape[0] % 2 != 0:
            raise ValueError(f"pair block {i} must have even dimension")
        r = J.shape[0] // 2
        eye = np.eye(r)
        R = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2.0)
        blocks.append(R @ J @ R.T)
    return BlockCovariance(tuple(blocks))
