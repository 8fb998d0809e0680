"""Product-form subspaces, criticality slack, and the violation search.

A product subspace V = V_1 x ... x V_k keeps one subspace per partition
block.  For a datum the quantity of interest is the slack

    slack(V) = sum_i d_i dim(V_i) - sum_j c_j dim(A_j V).

Positive slack certifies that the datum's optimal constant is infinite
(a Gaussian stretched along V makes the objective blow up); zero slack
(within tolerance) marks V as critical, which is what the splitting
construction in :mod:`blepi.finiteness` consumes.

Image dimensions dim(A_j V) are numerical ranks with a tolerance
relative to the map A_j, so a subspace inside ker A_j scores zero.

Together with the scaling balance, slack is the package's one
unboundedness decision (Bennett-Carbery-Christ-Tao: the constant is
finite iff the balance holds and no product subspace has positive
slack); the divergence probe in :mod:`blepi.gauss` scores its rays with
it too, so ``rank_tol`` is the only rank cut behind a verdict.  The
search over candidate subspaces is incomplete: it is sound for
"infinite" (any returned witness re-verifies by recomputing its slack)
but finding nothing proves nothing.  Candidate iteration is
deterministic given the budget; the public functions accept an ``rng``
but the search does not use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
import scipy.linalg

from .datum import Datum, Partition

__all__ = [
    "ProductSubspace",
    "SlackResult",
    "SearchBudget",
    "CRITICAL_TOL",
    "orthonormal_columns",
    "embed",
    "rank_tol",
    "dim_image",
    "slack",
    "candidate_subspaces",
    "coordinate_family_size",
    "find_violating_subspace",
]

# |slack| below this counts as critical; dims are integers and the
# exponents enter through one short dot product, so rounding is tiny.
CRITICAL_TOL = 1e-7

_ORTHO_TOL = 1e-10

# A @ null_space(A) reaches a few eps * ||A|| (3.4 seen on random maps with
# row scales 1e+-3), so the rank cut sits an order of magnitude above that.
_RANK_TOL = 10.0


def orthonormal_columns(M: np.ndarray, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis for the column span of M (possibly empty)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    return scipy.linalg.orth(M, rcond=rtol)


@dataclass(frozen=True)
class ProductSubspace:
    """Per-block orthonormal bases B_i of shape (r_i, t_i); t_i = 0 allowed."""

    bases: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for i, B in enumerate(self.bases):
            B = np.array(B, dtype=float)
            if B.ndim != 2:
                raise ValueError(f"block {i}: basis must be a matrix")
            r, t = B.shape
            if not 0 <= t <= r:
                raise ValueError(f"block {i}: {t} basis columns in dimension {r}")
            if t > 0 and not np.allclose(B.T @ B, np.eye(t), atol=_ORTHO_TOL):
                raise ValueError(f"block {i}: columns are not orthonormal")
            B.setflags(write=False)
            frozen.append(B)
        object.__setattr__(self, "bases", tuple(frozen))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(B.shape[1] for B in self.bases)

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @property
    def ambient(self) -> tuple[int, ...]:
        return tuple(B.shape[0] for B in self.bases)

    @staticmethod
    def zero(partition: Partition) -> "ProductSubspace":
        return ProductSubspace(tuple(np.zeros((r, 0)) for r in partition.blocks))

    @staticmethod
    def full(partition: Partition) -> "ProductSubspace":
        return ProductSubspace(tuple(np.eye(r) for r in partition.blocks))

    @staticmethod
    def coordinate(partition: Partition, axes: tuple[tuple[int, ...], ...]) -> "ProductSubspace":
        """Span of the given coordinate axes within each block."""
        bases = []
        for r, idx in zip(partition.blocks, axes):
            B = np.zeros((r, len(idx)))
            for col, a in enumerate(idx):
                B[a, col] = 1.0
            bases.append(B)
        return ProductSubspace(tuple(bases))

    @staticmethod
    def from_spans(partition: Partition, spans) -> "ProductSubspace":
        """Orthonormalize arbitrary per-block spanning matrices."""
        bases = []
        for r, S in zip(partition.blocks, spans):
            S = np.asarray(S, dtype=float).reshape(r, -1)
            bases.append(orthonormal_columns(S))
        return ProductSubspace(tuple(bases))

    def orthocomplement(self) -> "ProductSubspace":
        """Per-block orthogonal complement."""
        bases = []
        for B in self.bases:
            r, t = B.shape
            if t == 0:
                bases.append(np.eye(r))
            elif t == r:
                bases.append(np.zeros((r, 0)))
            else:
                bases.append(scipy.linalg.null_space(B.T))
        return ProductSubspace(tuple(bases))


@dataclass(frozen=True)
class SlackResult:
    slack: float
    per_map_dims: tuple[int, ...]
    per_block_dims: tuple[int, ...]

    @property
    def critical(self) -> bool:
        return abs(self.slack) <= CRITICAL_TOL

    @property
    def violating(self) -> bool:
        return self.slack > CRITICAL_TOL


def embed(V: ProductSubspace) -> np.ndarray:
    """Orthonormal n x dim(V) basis of V inside R^n (block-diagonal stacking)."""
    n = sum(V.ambient)
    t = V.dim
    E = np.zeros((n, t))
    row = col = 0
    for B in V.bases:
        r, ti = B.shape
        E[row : row + r, col : col + ti] = B
        row += r
        col += ti
    return E


def rank_tol(A: np.ndarray) -> float:
    """Rank cut for A E, relative to the map and not to A E, which is
    rounding noise when E spans a subspace of ker A."""
    return _RANK_TOL * max(A.shape) * np.finfo(float).eps * float(np.linalg.norm(A))


def dim_image(A: np.ndarray, V: ProductSubspace) -> int:
    """Numerical rank of A restricted to V, i.e. dim(A V), cut at rank_tol(A)."""
    A = np.asarray(A, dtype=float)
    E = embed(V)
    if A.shape[1] != E.shape[0]:
        raise ValueError(f"map has {A.shape[1]} columns, subspace lives in R^{E.shape[0]}")
    if E.shape[1] == 0:
        return 0
    return int(np.linalg.matrix_rank(A @ E, tol=rank_tol(A)))


def slack(datum: Datum, V: ProductSubspace) -> SlackResult:
    """Criticality slack of V for the datum (positive means violation)."""
    if V.ambient != datum.partition.blocks:
        raise ValueError(
            f"subspace block shape {V.ambient} does not match partition {datum.partition.blocks}"
        )
    t = V.block_dims
    img = tuple(dim_image(A, V) for A in datum.maps)
    value = float(np.dot(datum.d, t) - np.dot(datum.c, img))
    return SlackResult(slack=value, per_map_dims=img, per_block_dims=t)


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the candidate iterator.

    profile_cap bounds the coordinate-axis family (2^n subspaces in full).
    """

    profile_cap: int = 4096


def coordinate_family_size(partition: Partition) -> int:
    return 2 ** partition.n


def _coordinate_candidates(partition: Partition, cap: int) -> Iterator[ProductSubspace]:
    per_block = [
        list(itertools.chain.from_iterable(
            itertools.combinations(range(r), t) for t in range(r + 1)
        ))
        for r in partition.blocks
    ]
    count = 0
    for combo in itertools.product(*per_block):
        if count >= cap:
            return
        yield ProductSubspace.coordinate(partition, combo)
        count += 1


def _block_projections(partition: Partition, K: np.ndarray) -> Optional[ProductSubspace]:
    """Product subspace spanned by the per-block shadows of kernel basis K."""
    if K.shape[1] == 0:
        return None
    spans = []
    for start, stop in partition.offsets():
        spans.append(K[start:stop, :])
    return ProductSubspace.from_spans(partition, spans)


def _kernel_pair_intersection(Ka: np.ndarray, Kb: np.ndarray) -> np.ndarray:
    """Basis of span(Ka) ∩ span(Kb) via the joint orthocomplement."""
    n = Ka.shape[0]
    Pa = scipy.linalg.null_space(Ka.T) if Ka.shape[1] < n else np.zeros((n, 0))
    Pb = scipy.linalg.null_space(Kb.T) if Kb.shape[1] < n else np.zeros((n, 0))
    stacked = np.hstack([Pa, Pb])
    if stacked.shape[1] == 0:
        return np.eye(n)
    return scipy.linalg.null_space(stacked.T)


def candidate_subspaces(
    datum: Datum,
    budget: SearchBudget,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[ProductSubspace]:
    """Yield candidate product subspaces in a fixed order.

    (a) coordinate-axis products up to ``budget.profile_cap``;
    (b) per-block projections of each map kernel and of pairwise kernel
        intersections;
    (c) per-block kernel products ker(A_j|block_1) x ... x ker(A_j|block_k),
        the largest product subspace inside ker A_j.

    No random subspaces are drawn: a Haar-random product subspace almost
    surely has the largest dim(A_j V) of its dimension profile for every
    map, so with c_j >= 0 its slack never exceeds that of the coordinate
    subspace with the same profile.  ``rng`` is accepted for
    compatibility and not used.
    """
    partition = datum.partition
    yield from _coordinate_candidates(partition, budget.profile_cap)

    kernels = [scipy.linalg.null_space(A) for A in datum.maps]
    for K in kernels:
        V = _block_projections(partition, K)
        if V is not None:
            yield V
    for Ka, Kb in itertools.combinations(kernels, 2):
        if Ka.shape[1] == 0 or Kb.shape[1] == 0:
            continue
        K = _kernel_pair_intersection(Ka, Kb)
        V = _block_projections(partition, K)
        if V is not None:
            yield V
    for A in datum.maps:
        V = ProductSubspace(
            tuple(scipy.linalg.null_space(A[:, start:stop]) for start, stop in partition.offsets())
        )
        if V.dim > 0:
            yield V


def find_violating_subspace(
    datum: Datum,
    budget: SearchBudget,
    rng: Optional[np.random.Generator] = None,
) -> Optional[ProductSubspace]:
    """First candidate with slack above tolerance, or None.

    A returned subspace is a certified witness that the optimal constant
    is infinite; returning None is NOT a proof of the reverse.  ``rng``
    is accepted for compatibility and not used.
    """
    for V in candidate_subspaces(datum, budget):
        if slack(datum, V).violating:
            return V
    return None
