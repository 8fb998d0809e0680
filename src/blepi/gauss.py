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
scaling balance fails or ``certify`` finds a violating subspace (its
root's candidate pass, then the divergence probe); otherwise it sums the
leaf constants of ``certify``'s split tree, maximizing the objective on
each irreducible leaf by one damped Newton ascent from Sigma = I in those
coordinates; concavity makes a converged ascent the global maximum.  A
split datum's maximizer is reported leaf by leaf, as the covariances the
leaves computed, each in its leaf's coordinates.  It
ascends on unit-norm map rows plus their shift, so the kernel's one
conditioning rule (sqrt(eps)) does not depend on a row's units.  The
divergence probe scores the full space and each single block, all
coordinate subspaces, in one bulk call with ``slack``'s expression:
along ``ray_covariance(partition, V, lam)`` the objective is
0.5 * slack(V) * log(lam) + O(1), so a ray escapes exactly when its
slack is positive.  Perturbed variants add isotropic noise
delta to the blocks and epsilon to the images; paired evaluations cover
the two-copy rotation identity.

Everything is in nats.  All value types are immutable, and the solver
draws no random numbers, so every solve is deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .datum import RESIDUAL_TOL, Datum, Partition, _unit_rows, scaling_residual
from .subspace import (
    CRITICAL_TOL,
    ProductSubspace,
    SearchBudget,
    _TABLE_CACHE,
    _CoordinateTable,
    _coordinate_ranks,
    _slack_value,
    _table,
    block_diag,
)

__all__ = [
    "LOG_2PIE",
    "BlockCovariance",
    "PerturbationParams",
    "GaussianSolveResult",
    "GaussianPair",
    "SolverOptions",
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
]

LOG_2PIE = math.log(2.0 * math.pi) + 1.0

_SYM_TOL = 1e-10


class DegenerateImageError(RuntimeError):
    """An image covariance A_j Sigma A_j^T is numerically singular, so the
    subtracted entropy term diverges to -infinity."""


def _check_spd(M: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix M.  Raises ValueError unless
    M is square, finite, symmetric within _SYM_TOL relative to its largest
    entry, and positive definite."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        return M
    if not np.isfinite(M).all():
        raise ValueError(f"{what} has non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    if not np.allclose(M, M.T, atol=_SYM_TOL * scale):
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
    # the diagonal ratio is about 1 / sqrt(condition number)
    diag_floor = np.finfo(float).eps ** 0.5
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
        if not dg.min() >= diag_floor * dg.max():
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
    DegenerateImageError when a block is not numerically positive definite."""
    blocks, out = [], []
    for (start, stop), F in zip(datum.partition.offsets(), factors):
        w, V = np.linalg.eigh(X[start:stop, start:stop])
        half = F @ (V * np.exp(0.5 * w))
        S = half @ half.T
        try:
            out.append(_check_spd(S, "covariance block"))
        except ValueError as exc:
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
        for t in 0.5 ** np.arange(_HALVINGS):
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
    subspace has positive slack, so those two checks come first.  A datum
    that fails the balance is unbounded along the full space V, on the
    side of the scale where the objective grows; one in which ``certify``
    finds a violating subspace V (its root's candidate pass, then the
    divergence probe) is unbounded along V.  Both answers
    carry ``sigma_star = ray_covariance(partition, V, lam)`` with lam
    2**10, or 2**-10 when the objective grows as Sigma shrinks.

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
    leaves) sum to ``mg_value``.
    """
    res = scaling_residual(datum)
    if abs(res) > RESIDUAL_TOL:
        # the objective moves by 0.5 * res * log(t) under Sigma -> t Sigma
        full = ProductSubspace.full(datum.partition)
        return _unbounded(datum.partition, full, 2.0 ** math.copysign(10, res))
    from . import finiteness  # finiteness imports this module
    try:
        tree = finiteness.certify(datum, SearchBudget())
    except finiteness.ViolationError as exc:
        # along V the objective grows like 0.5 * slack(V) * log(lam)
        return _unbounded(datum.partition, exc.subspace, 2.0**10)
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
# escape-ray divergence probe
# ---------------------------------------------------------------------------


def ray_covariance(partition: Partition, V: ProductSubspace, lam: float) -> BlockCovariance:
    """Identity inflated by a factor lam along the product subspace V."""
    blocks = []
    for r, B in zip(partition.blocks, V.bases):
        blocks.append(np.eye(r) + (lam - 1.0) * (B @ B.T))
    return BlockCovariance(tuple(blocks))


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _ray_table(partition: Partition) -> _CoordinateTable:
    """The probe's rays as a coordinate table, built once per partition:
    the full space, then each block alone."""
    blocks = partition.blocks
    full = np.ones(partition.n, dtype=bool)
    mask = [full] + [np.repeat(np.arange(len(blocks)) == i, blocks) for i in range(len(blocks))]
    return _table(partition, np.array(mask))


def divergence_probe(datum: Datum) -> Optional[ProductSubspace]:
    """First escape ray with positive slack, or None.

    The rays are the full space and each single full block.  Along
    ray_covariance(partition, V, lam) the objective is
    0.5 * slack(V) * log(lam) + O(1), so a ray escapes exactly when its
    slack is positive.  The rays are coordinate subspaces, so their image
    dimensions come from one bulk ``_coordinate_ranks`` call on a table
    cached per partition, with the search's own rank cut, and their
    slacks from ``slack``'s expression, equal to ``slack(datum, V)`` bit
    for bit.  Only the returned ray is built as a subspace; it is a
    re-checkable witness, as from ``find_violating_subspace``.
    """
    table = _ray_table(datum.partition)
    for dims, img in zip(table.dims, _coordinate_ranks(datum, table)):
        if _slack_value(datum, dims, img) > CRITICAL_TOL:  # SlackResult.violating
            blocks = datum.partition.blocks
            return ProductSubspace(tuple(np.eye(r)[:, :t] for r, t in zip(blocks, dims)))
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

    @staticmethod
    def independent(first: BlockCovariance, second: BlockCovariance) -> "GaussianPair":
        blocks = tuple(
            block_diag((S1, S2))
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

