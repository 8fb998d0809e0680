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
Kernel and span bases (``null_space``, ``orthonormal_columns``) are read
off ``numpy.linalg.svd`` with the rank cut eps * max(shape) relative to
the largest singular value, and ``block_diag`` stacks blocks by slice
assignment: the package's linear algebra needs numpy only.

A ``ProductSubspace`` is validated once, when it is built, by the
package's one orthonormality test (``blepi.datum._orthonormal``, at
``_ORTHO_TOL = 1e-10``) on its block-diagonal embedding; it carries that
embedding, read-only, as ``V.embedding``, so ``slack``, the split and the
solver read it instead of rebuilding it.

The coordinate family (every product of per-block axis subsets, 2^n in
full) is scored in bulk.  What depends on the partition alone (each
member's axes and per-block dimensions, and per subset size the index
groups the stacked SVDs read) is a read-only table built once per
``(partition, cap)`` and cached, so a call does only the per map and
subset size stacked SVDs of the column submatrices A_j[:, S], cut at
``rank_tol(A_j)`` computed once per map, and the slack rule of
``SlackResult`` on each member.  A critical or violating member, the
only kind a scan reads, is passed on as its per-block dimensions, its
slack (``slack``'s own expression, bit for bit) and a builder: it
becomes a ``ProductSubspace`` only when a scan uses it, as a witness or
as a split to try.  The kernel tiers follow, each candidate built and
scored by ``slack``; on data whose blocks are all scalar with the whole
family within the cap they are skipped, as every product subspace is
then a coordinate one the screen scored.  A scan
(``finiteness.check_finiteness`` and ``certify``) reads one score per
candidate from ``_scored_candidates``; ``candidate_subspaces`` yields
the same subspaces built and unscored.

Together with the scaling balance, slack is the package's one
unboundedness decision (Bennett-Carbery-Christ-Tao: the constant is
finite iff the balance holds and no product subspace has positive
slack); the divergence probe in :mod:`blepi.gauss` scores its rays,
which are coordinate subspaces, with the bulk kernel and the same slack
expression, so ``rank_tol`` is the only rank cut behind a verdict.  The
search over candidate subspaces is incomplete: it is sound for
"infinite" (any returned witness re-verifies by recomputing its slack)
but finding nothing proves nothing.  Candidate iteration is
deterministic given the budget; the public functions accept an ``rng``
but the search does not use it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .datum import Datum, Partition, _orthonormal

__all__ = [
    "ProductSubspace",
    "SlackResult",
    "SearchBudget",
    "CRITICAL_TOL",
    "orthonormal_columns",
    "null_space",
    "block_diag",
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


def _svd_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Singular values above eps * max(shape) times the largest one."""
    return int(np.sum(s > np.amax(s, initial=0.0) * np.finfo(float).eps * max(shape)))


def orthonormal_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of M (possibly empty): the
    leading left singular vectors up to the ``_svd_rank`` cut."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, : _svd_rank(s, M.shape)]


def null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis for ker A (possibly empty): the right singular
    vectors past the ``_svd_rank`` cut."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_svd_rank(s, A.shape) :].T


def block_diag(blocks) -> np.ndarray:
    """Matrices (rectangular or empty allowed) stacked along the diagonal."""
    out = np.zeros((sum(B.shape[0] for B in blocks), sum(B.shape[1] for B in blocks)))
    row = col = 0
    for B in blocks:
        r, t = B.shape
        out[row : row + r, col : col + t] = B
        row += r
        col += t
    return out


@dataclass(frozen=True, eq=False)
class ProductSubspace:
    """Per-block orthonormal bases B_i of shape (r_i, t_i); t_i = 0 allowed.

    The bases are validated once, on the block-diagonal embedding
    ``block_diag(bases)``, whose Gram matrix is block diagonal with the
    blocks' Gram matrices; the embedding is kept, read-only, as
    ``embedding``.  Equality is identity (the fields are arrays).
    """

    bases: tuple[np.ndarray, ...]
    embedding: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frozen = []
        for i, B in enumerate(self.bases):
            B = np.array(B, dtype=float)
            if B.ndim != 2:
                raise ValueError(f"block {i}: basis must be a matrix")
            r, t = B.shape
            if not 0 <= t <= r:
                raise ValueError(f"block {i}: {t} basis columns in dimension {r}")
            B.setflags(write=False)
            frozen.append(B)
        E = block_diag(frozen)
        if not _orthonormal(E, _ORTHO_TOL):
            bad = next(i for i, B in enumerate(frozen) if not _orthonormal(B, _ORTHO_TOL))
            raise ValueError(f"block {bad}: columns are not orthonormal")
        E.setflags(write=False)
        object.__setattr__(self, "bases", tuple(frozen))
        object.__setattr__(self, "embedding", E)

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
        return ProductSubspace(
            tuple(np.eye(r)[:, list(idx)] for r, idx in zip(partition.blocks, axes))
        )

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
        return ProductSubspace(tuple(null_space(B.T) for B in self.bases))


@dataclass(frozen=True)
class SlackResult:
    slack: float
    per_map_dims: tuple[int, ...]

    @property
    def critical(self) -> bool:
        return abs(self.slack) <= CRITICAL_TOL

    @property
    def violating(self) -> bool:
        return self.slack > CRITICAL_TOL


def rank_tol(A: np.ndarray) -> float:
    """Rank cut for A E, relative to the map and not to A E, which is
    rounding noise when E spans a subspace of ker A."""
    # the Frobenius norm without squaring the entries, which overflows
    return _RANK_TOL * max(A.shape) * np.finfo(float).eps * float(np.hypot.reduce(A.ravel()))


def dim_image(A: np.ndarray, V: ProductSubspace) -> int:
    """Numerical rank of A restricted to V, i.e. dim(A V), cut at rank_tol(A)."""
    A = np.asarray(A, dtype=float)
    E = V.embedding
    if A.shape[1] != E.shape[0]:
        raise ValueError(f"map has {A.shape[1]} columns, subspace lives in R^{E.shape[0]}")
    if E.shape[1] == 0:
        return 0
    # np.linalg.matrix_rank(A @ E, tol=rank_tol(A)) without its wrapper
    return int(np.count_nonzero(np.linalg.svd(A @ E, compute_uv=False) > rank_tol(A)))


def slack(datum: Datum, V: ProductSubspace) -> SlackResult:
    """Criticality slack of V for the datum (positive means violation)."""
    if V.ambient != datum.partition.blocks:
        raise ValueError(
            f"subspace block shape {V.ambient} does not match partition {datum.partition.blocks}"
        )
    img = tuple(dim_image(A, V) for A in datum.maps)
    return SlackResult(slack=_slack_value(datum, V.block_dims, img), per_map_dims=img)


def _slack_value(datum: Datum, block_dims, img) -> float:
    """sum_i d_i dim(V_i) - sum_j c_j dim(A_j V), the one float expression."""
    return float(np.dot(datum.d, block_dims) - np.dot(datum.c, img))


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the candidate iterator.

    profile_cap bounds the coordinate-axis family (2^n subspaces in full);
    it is an int >= 0.
    """

    profile_cap: int = 4096

    def __post_init__(self):
        cap = self.profile_cap
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 0:
            raise ValueError(f"profile_cap must be an int >= 0, got {cap!r}")


def coordinate_family_size(partition: Partition) -> int:
    return 2 ** partition.n


def _coordinate_masks(partition: Partition, cap: int) -> np.ndarray:
    """Axes in R^n (rows of an N x n boolean array) of the first ``cap``
    coordinate subspaces, in ``itertools.product`` order over the blocks'
    axis subsets, each block's subsets by size, then lexicographically."""
    # member q's subset in each block: the mixed-radix digits of q, last
    # block fastest; no member before the cap reaches past a block's
    # first cap subsets, so each table stops there
    q = np.arange(min(cap, 2**partition.n))
    parts = []
    for r in reversed(partition.blocks):
        subsets = (idx for t in range(r + 1) for idx in itertools.combinations(range(r), t))
        table = np.zeros((min(2**r, cap), r), dtype=bool)
        for row, idx in enumerate(itertools.islice(subsets, cap)):
            table[row, list(idx)] = True
        parts.append(table[q % len(table)])
        q = q // len(table)
    return np.concatenate(parts[::-1], axis=1)


@dataclass(frozen=True, eq=False)
class _CoordinateTable:
    """The part of scoring coordinate subspaces that depends on shape only,
    in read-only arrays: each member's axes in R^n (``mask``, N x n) and
    per-block dimensions (``dims``, N x k), and per subset size the
    members of that size with their axes (``groups``, ``(rows, cols)``
    pairs), the index sets ``_coordinate_ranks`` stacks."""

    mask: np.ndarray
    dims: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]


def _table(partition: Partition, mask: np.ndarray) -> _CoordinateTable:
    """The table of the coordinate subspaces whose axes are the rows of
    ``mask``, which it takes over and makes read-only."""
    sizes = mask.sum(axis=1)
    groups = []
    for t in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == t)
        groups.append((rows, np.nonzero(mask[rows])[1].reshape(len(rows), t)))
    dims = np.add.reduceat(mask, [a for a, _ in partition.offsets()], axis=1, dtype=int)
    for arr in (mask, dims, *itertools.chain.from_iterable(groups)):
        arr.setflags(write=False)
    return _CoordinateTable(mask, dims, tuple(groups))


# shape tables kept per cache; a 4096-member table takes 0.67 MB at n = 12
# with scalar blocks, and about 4096 * (n + 8 k + 8 + 8 t) bytes in general
# (t the mean subset size), as the cap holds the member count
_TABLE_CACHE = 32


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _coordinate_table(partition: Partition, cap: int) -> _CoordinateTable:
    """The table of the first ``cap`` coordinate subspaces, built once per
    ``(partition, cap)``: no datum value enters it, so data of one shape
    share it."""
    return _table(partition, _coordinate_masks(partition, cap))


def _coordinate_ranks(datum: Datum, table: _CoordinateTable) -> np.ndarray:
    """dim(A_j V) for each coordinate subspace (row of ``table.mask``) and
    map: per map and subset size, one SVD of the stacked column
    submatrices A_j[:, S], which equal A_j E bit for bit (E's columns are
    unit vectors), counted above rank_tol(A_j) as in ``dim_image``."""
    width = table.mask.shape[1]
    img = np.zeros((len(table.mask), datum.m), dtype=int)
    for j, A in enumerate(datum.maps):
        if A.shape[1] != width:
            raise ValueError(f"map has {A.shape[1]} columns, subspace lives in R^{width}")
        tol = rank_tol(A)
        for rows, cols in table.groups:
            # the stack of A[:, S], read off A^T's rows with no axis move
            s = np.linalg.svd(A.T[cols].swapaxes(1, 2), compute_uv=False)
            img[rows, j] = (s > tol).sum(axis=1)
    return img


def _coordinate_subspace(partition: Partition, axes: np.ndarray) -> ProductSubspace:
    """The coordinate subspace on the axes of R^n set in the boolean row ``axes``."""
    return ProductSubspace.coordinate(
        partition, tuple(np.flatnonzero(axes[a:b]) for a, b in partition.offsets())
    )


# a scored candidate: its per-block dimensions, a function that builds it
# (validated as any ProductSubspace), and its slack
_Scored = tuple[tuple[int, ...], Callable[[], ProductSubspace], SlackResult]


def _coordinate_screen(datum: Datum, cap: int) -> Iterator[_Scored]:
    """The critical or violating members among the first ``cap`` coordinate
    subspaces, in order, each with its ``slack``; a member is built only
    when its builder is called.

    All members are scored at once; a member whose bulk score lies below
    -CRITICAL_TOL by more than the rounding bound of the two dot products
    is neither, and the rest are rescored with ``slack``'s own expression,
    bit for bit.
    """
    partition = datum.partition
    table = _coordinate_table(partition, cap)
    img = _coordinate_ranks(datum, table)
    # the bulk and the exact score each lie within (k + m + 1) eps * bound
    # of the true slack, whatever order their sums run in, so they differ
    # by less than the margin
    bound = np.dot(np.abs(datum.d), partition.blocks) + np.dot(np.abs(datum.c), datum.image_dims)
    margin = 4 * (datum.k + datum.m) * np.finfo(float).eps * bound
    for q in np.flatnonzero(table.dims @ datum.d - img @ datum.c >= -CRITICAL_TOL - margin):
        sr = SlackResult(_slack_value(datum, table.dims[q], img[q]), tuple(img[q].tolist()))
        if sr.critical or sr.violating:
            build = functools.partial(_coordinate_subspace, partition, table.mask[q])
            yield tuple(table.dims[q].tolist()), build, sr


def _block_projections(partition: Partition, K: np.ndarray) -> Optional[ProductSubspace]:
    """Product subspace spanned by the per-block shadows of kernel basis K,
    or None when K is empty or the shadows span the whole space, which is
    never a proper split, has the scaling residual as its slack, and is
    scored by the coordinate screen and the probe."""
    if K.shape[1] == 0:
        return None
    shadows = [K[start:stop, :] for start, stop in partition.offsets()]
    V = ProductSubspace.from_spans(partition, shadows)
    return None if V.dim == partition.n else V


def _kernel_pair_intersection(Ka: np.ndarray, Kb: np.ndarray) -> np.ndarray:
    """Basis of span(Ka) ∩ span(Kb) via the joint orthocomplement."""
    stacked = np.hstack([null_space(Ka.T), null_space(Kb.T)])
    return null_space(stacked.T)


def _kernel_tiers_run(partition: Partition, cap: int) -> bool:
    """Whether the kernel tiers can yield a subspace the coordinate screen
    has not scored: not when every block is scalar and the whole family
    is within the cap, as every product subspace is then a coordinate one."""
    return any(r > 1 for r in partition.blocks) or coordinate_family_size(partition) > cap


def _kernel_candidates(datum: Datum, cap: int) -> Iterator[ProductSubspace]:
    """The kernel tiers, (b) and (c) of ``candidate_subspaces``, unscored."""
    partition = datum.partition
    if not _kernel_tiers_run(partition, cap):
        return
    kernels = [null_space(A) for A in datum.maps]
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
            tuple(null_space(A[:, start:stop]) for start, stop in partition.offsets())
        )
        if V.dim > 0:
            yield V


def _scored_candidates(datum: Datum, budget: SearchBudget) -> Iterator[_Scored]:
    """The candidates of ``candidate_subspaces``, in its order, each with
    its one score: a screen member carries its bulk score (``slack``'s bit
    for bit) and is built only on use, a kernel-tier candidate is built to
    be scored once with ``slack``."""
    yield from _coordinate_screen(datum, budget.profile_cap)
    for V in _kernel_candidates(datum, budget.profile_cap):
        yield V.block_dims, lambda V=V: V, slack(datum, V)


def candidate_subspaces(
    datum: Datum,
    budget: SearchBudget,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[ProductSubspace]:
    """Yield candidate product subspaces in a fixed order.

    (a) coordinate-axis products: the first ``budget.profile_cap`` are
        scored in bulk and the critical or violating ones yielded, in
        order (the others are neither, so no scan needs them);
    (b) per-block projections of each map kernel and of pairwise kernel
        intersections, unless they span the whole space;
    (c) per-block kernel products ker(A_j|block_1) x ... x ker(A_j|block_k),
        the largest product subspace inside ker A_j.

    Tiers (b) and (c) are skipped when every block is scalar and all 2^n
    coordinate subspaces are within the cap: each of their subspaces is
    then a coordinate subspace that (a) has scored.  The subspaces come
    unscored; ``_scored_candidates`` yields the same ones with their
    slack, as a scan reads them.

    No random subspaces are drawn: a Haar-random product subspace almost
    surely has the largest dim(A_j V) of its dimension profile for every
    map, so with c_j >= 0 its slack never exceeds that of the coordinate
    subspace with the same profile.  ``rng`` is accepted for
    compatibility and not used.
    """
    for _, build, _ in _coordinate_screen(datum, budget.profile_cap):
        yield build()
    yield from _kernel_candidates(datum, budget.profile_cap)


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
