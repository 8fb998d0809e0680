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
scaling balance fails or ``certify``'s candidate pass finds a violating
subspace; otherwise it sums the leaf constants of ``certify``'s split
tree, maximizing the objective on each irreducible leaf by multi-start
damped Newton ascent in those coordinates.  The divergence probe scores
the full space and each single block with ``slack``: along
``ray_covariance(partition, V, lam)`` the objective is
0.5 * slack(V) * log(lam) + O(1), so a ray escapes exactly when its
slack is positive.  Perturbed variants
add isotropic noise delta to the blocks and epsilon to the images;
paired and mixture evaluations cover the two-copy rotation identity and
auxiliary-variable averages.

Everything is in nats.  All value types are immutable; multi-start runs
are independent given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .datum import RESIDUAL_TOL, Datum, Partition, scaling_residual
from .subspace import ProductSubspace, SearchBudget, embed, slack

__all__ = [
    "LOG_2PIE",
    "BlockCovariance",
    "PerturbationParams",
    "GaussianSolveResult",
    "GaussianPair",
    "GaussianMixture",
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
    "mixture_s",
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


def _logdet_kernel(datum, factors, epsilon=0.0, cond_limit=None, basis=None):
    """Objective value at Sigma = Diag(L_i L_i^T) from the lower block factors L_i.

    Each image log-det comes from the QR factorization (A_j L)^T = Q_j R_j,
    with the rows sqrt(epsilon) I stacked under (A_j L)^T when epsilon > 0,
    so A_j Sigma A_j^T + epsilon I = R_j^T R_j is never formed and |diag R_j|
    is its Cholesky diagonal.  Raises DegenerateImageError when some
    min |diag R_j| / max |diag R_j| is below cond_limit**-0.5 or, without
    ``cond_limit``, below sqrt(eps), where the Cholesky factorization of
    A_j Sigma A_j^T fails; a NaN also fails the comparison.

    Returns (value, g, H).  Without ``basis``, g and H are None.  With
    ``basis``, an orthonormal basis (p, n, n) of the block-diagonal
    symmetric X, g and H are the gradient and Hessian of
    X -> f(L exp(X) L^T) at X = 0 (epsilon 0), with D = Diag(d_i I_{r_i})
    and P_j = Q_j Q_j^T:

        g(X) = 1/2 tr(D X) - 1/2 sum_j c_j tr(Q_j^T X Q_j),
        H(X, X) = -1/2 sum_j c_j ||(I - P_j) X Q_j||_F^2 <= 0.
    """
    L = np.zeros((datum.n, datum.n))
    for (start, stop), F in zip(datum.partition.offsets(), factors):
        L[start:stop, start:stop] = F
    # the diagonal ratio is about 1 / sqrt(condition number)
    diag_floor = np.finfo(float).eps ** 0.5 if cond_limit is None else cond_limit**-0.5
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


def objective(datum: Datum, sigma: BlockCovariance) -> float:
    """Gaussian objective sum_i d_i h(Sigma_i) - sum_j c_j h(A_j Sigma A_j^T)."""
    return objective_perturbed(datum, sigma, PerturbationParams())


def objective_perturbed(
    datum: Datum, sigma: BlockCovariance, p: PerturbationParams
) -> float:
    """Noise-smoothed objective: blocks get +delta I, images get +epsilon I."""
    if sigma.partition != datum.partition:
        raise ValueError("covariance blocks do not match the datum partition")
    factors = [np.linalg.cholesky(S + p.delta * np.eye(S.shape[0])) for S in sigma.blocks]
    return float(_logdet_kernel(datum, factors, p.epsilon)[0])


def gradient(datum: Datum, sigma: BlockCovariance) -> tuple[np.ndarray, ...]:
    """Per-block symmetric gradient of the Gaussian objective.

    Block i:  0.5 d_i Sigma_i^{-1} - 0.5 [sum_j c_j A_j^T (A_j Sigma A_j^T)^{-1} A_j]_ii,
    computed as L_i^{-T} g_i L_i^{-1} from the kernel's gradient g in the
    coordinates Sigma = L exp(X) L^T.
    """
    if sigma.partition != datum.partition:
        raise ValueError("covariance blocks do not match the datum partition")
    factors = [np.linalg.cholesky(S) for S in sigma.blocks]
    basis = _sym_basis(datum.partition)
    gmat = np.tensordot(_logdet_kernel(datum, factors, basis=basis)[1], basis, 1)
    grads = []
    for (start, stop), F in zip(datum.partition.offsets(), factors):
        Finv = scipy.linalg.solve_triangular(F, np.eye(F.shape[0]), lower=True)
        G = Finv.T @ gmat[start:stop, start:stop] @ Finv
        grads.append(0.5 * (G + G.T))
    return tuple(grads)


# ---------------------------------------------------------------------------
# damped Newton ascent in geodesic coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverOptions:
    starts: int = 8
    tol: float = 1e-8            # scale-free gradient norm ||Diag(L_i^T G_i L_i)||_F
    seed: int = 0


_NEWTON_STEPS = 60    # Newton steps per start
_HALVINGS = 10        # step halvings before a start stops
_MAX_STEP = 2.0       # Frobenius norm cap on one step X
_ROUNDING = 1e-14     # predicted rises below this, relative to max(1, |value|), are rounding
_COND_LIMIT = 1e12    # image covariances beyond this count as degenerate


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


def _newton(datum: Datum, blocks, basis: np.ndarray, opts: SolverOptions):
    """(value, covariance blocks, gradient norm) after damped Newton ascent
    from the given blocks, or None when the start itself is degenerate.

    Each step solves H x = -g in the least-squares sense (H is singular
    along the scaling direction), caps ||x|| at _MAX_STEP and is halved
    until the value rises or, once the predicted rise g.x is at rounding
    level, until the gradient norm falls.  A start ends at a gradient
    within ``opts.tol`` whose predicted rise is rounding, when no halving
    is accepted, or after _NEWTON_STEPS steps; the step cap and count bound
    how far it can move, so nothing overflows.
    """
    factors = [np.linalg.cholesky(S) for S in blocks]
    try:
        val, g, H = _logdet_kernel(datum, factors, cond_limit=_COND_LIMIT, basis=basis)
    except DegenerateImageError:
        return None
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
                tval, tg, tH = _logdet_kernel(datum, tfactors, cond_limit=_COND_LIMIT, basis=basis)
            except DegenerateImageError:
                continue
            tnorm = float(np.linalg.norm(tg))
            if (tnorm < gnorm) if rounding else (tval > val):
                break
        else:
            break
        blocks, factors, val, g, H, gnorm = tblocks, tfactors, tval, tg, tH, tnorm
    return val, blocks, gnorm


def _multistart(datum: Datum, opts: SolverOptions):
    """(value, covariance blocks, gradient norm) of the best of ``opts.starts``
    Newton ascents from Sigma = I and seeded random factors; (nan, I, inf)
    if all fail."""
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    basis = _sym_basis(datum.partition)
    best = None
    for s in range(max(1, opts.starts)):
        blocks = []
        for r in datum.partition.blocks:
            F = np.eye(r)
            if s > 0:
                F = np.tril(rng.normal(0.0, 0.5, (r, r)), -1)
                F += np.diag(np.exp(rng.normal(0.0, 0.5, r)))
            blocks.append(F @ F.T)
        out = _newton(datum, blocks, basis, opts)
        if out is None:
            continue
        val, blocks, gnorm = out
        if best is None or val > best[0] + 1e-15 or (
            abs(val - best[0]) <= 1e-12 and gnorm < best[2]
        ):
            best = (val, blocks, gnorm)
    if best is None:
        return math.nan, [np.eye(r) for r in datum.partition.blocks], math.inf
    return best


# lam of the split covariances Sigma_U + lam Sigma_perp; at 2**-30 the
# one of coupled sums (1, 1, 0.5) is no longer numerically positive definite
_SPLIT_LAM = 2.0**-20


def _solve_tree(node, opts: SolverOptions):
    """Value, covariance blocks, irreducible-leaf gradient norms and starts
    run of a split tree node.  Explicit leaves are constant in Sigma and
    take the identity; a split node sums its children's values and places
    their covariances on U and _SPLIT_LAM U_perp."""
    if node.leaf_kind == "irreducible":
        val, blocks, gnorm = _multistart(node.datum, opts)
        return val, blocks, [gnorm], max(1, opts.starts)
    if node.is_leaf:
        return node.constant, [np.eye(r) for r in node.datum.partition.blocks], [], 0
    (v_u, s_u, g_u, n_u), (v_p, s_p, g_p, n_p) = (_solve_tree(c, opts) for c in node.children)
    E, Eperp = embed(node.subspace), embed(node.subspace.orthocomplement())
    full = E @ scipy.linalg.block_diag(*s_u) @ E.T
    full += _SPLIT_LAM * (Eperp @ scipy.linalg.block_diag(*s_p) @ Eperp.T)
    full = 0.5 * (full + full.T)
    blocks = [full[start:stop, start:stop] for start, stop in node.datum.partition.offsets()]
    return v_u + v_p, blocks, g_u + g_p, n_u + n_p


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
    side of the scale where the objective grows; one whose candidate pass
    finds a violating subspace V is unbounded along V.  Both answers
    carry ``sigma_star = ray_covariance(partition, V, lam)`` with lam
    2**10, or 2**-10 when the objective grows as Sigma shrinks.

    Otherwise ``mg_value`` sums the leaves of ``certify``'s split tree
    (M = M_U + M_perp along a critical U): explicit constants, and the
    best of ``opts.starts`` ascents on each irreducible leaf, whose
    scale-free gradient norms give ``converged`` (all at most ``opts.tol``)
    and ``gradient_norm`` (their maximum, 0 without such a leaf).  On an
    unsplit datum the objective at ``sigma_star`` is ``mg_value``: the
    ascent evaluates the blocks it returns.  A split datum's
    ``sigma_star`` is Sigma_U + lam Sigma_perp at every split with
    lam = 2**-20; its objective is below ``mg_value`` by about 1e-6.
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
    val, blocks, gnorms, starts = _solve_tree(tree, opts)
    gnorm = max(gnorms, default=0.0)
    return GaussianSolveResult(
        mg_value=val,
        sigma_star=BlockCovariance(tuple(blocks)),
        converged=gnorm <= opts.tol,
        unbounded=False,
        starts_used=starts,
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


def divergence_probe(datum: Datum) -> Optional[ProductSubspace]:
    """First escape ray with positive slack, or None.

    The rays are the full space and each single full block.  Along
    ray_covariance(partition, V, lam) the objective is
    0.5 * slack(V) * log(lam) + O(1), so a ray escapes exactly when
    ``slack(datum, V).violating``, with the search's own rank cut; the
    returned ray is a re-checkable witness, as from
    ``find_violating_subspace``.
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
        if slack(datum, V).violating:
            return V
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
