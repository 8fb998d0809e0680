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
``SlackResult`` on each member.  A table that holds every subset of
the axes its members use is closed: the complete family is, and so is
a truncated one at 13 or more scalar blocks, whose 4,096 members are
the subsets of the last 12 axes.  On a closed table size k_j, A_j's
row count, is stacked first, and if its k_j-th singular value is above
2 rank_tol(A_j) on every member, no other size is stacked: each larger
member contains one of size k_j and adding columns lowers no singular
value, each smaller one lies inside one of size k_j and by Cauchy
interlacing its least singular value is at least that member's k_j-th,
and the SVD's rounding is an order of magnitude below rank_tol, so the
margin proves the rank min(|S|, k_j) each member's own SVD would count.
Otherwise every size is stacked.  A size k_j of 32 or more members is
first tried without an SVD: one determinant per member, of its rows
scaled to unit norm, with LU's backward error allowed for, bounds its
exact sigma_{k_j} from below, and if that bound clears 2 rank_tol(A_j)
on every member the map is settled the same way.  On a generic
Zamir-Feder datum this leaves no SVD but one batch of 56, 126 and 495
determinants at 8x3, 9x4 and 12x4 (and 495 at 13x4), where stacking
every size would take 255, 511 and 4,095 SVDs.
A critical or violating member, the only kind a scan
reads, is passed on as its per-block dimensions, its slack (``slack``'s
own expression, bit for bit) and a builder: it becomes a
``ProductSubspace`` only when a scan uses it, as a witness or as a
split to try.  A violating member is first counted again exactly, with
the ranks of its column submatrices over the rationals
(:mod:`blepi.exact`), and skipped unless that slack is positive.  The
kernel tiers follow, each candidate built and scored by ``slack`` with
the maps' rank cuts computed once per scan, and each kernel's
orthocomplement once for all its pairs; on data whose blocks are all
scalar with the whole family within the cap they are skipped, as every
product subspace is then a coordinate one the screen scored.  A scan
(``finiteness.check_finiteness`` and ``certify``) reads one score per
candidate from ``_scored_candidates``; ``candidate_subspaces`` yields
the same subspaces built and unscored.

Together with the scaling balance, slack is the package's one
unboundedness decision (Bennett-Carbery-Christ-Tao: the constant is
finite iff the balance holds and no product subspace has positive
slack).  The divergence probe's rays (the full space, then each block
alone) are coordinate subspaces, so ``divergence_probe`` is the same
screen run on a ray table cached per partition, and this module is the
only one that scores coordinate subspaces: ``rank_tol`` is the only
rank cut behind a verdict.  The search over candidate subspaces is
incomplete: it is sound for "infinite" (any returned witness
re-verifies by recomputing its slack) but finding nothing proves
nothing.  Candidate iteration is deterministic given the budget; the
public functions accept an ``rng`` but the search does not use it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from . import exact
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
    "divergence_probe",
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
    return _image_rank(A, V, rank_tol(A))


def _image_rank(A: np.ndarray, V: ProductSubspace, tol: float) -> int:
    """``dim_image(A, V)`` given ``tol = rank_tol(A)``."""
    E = V.embedding
    if A.shape[1] != E.shape[0]:
        raise ValueError(f"map has {A.shape[1]} columns, subspace lives in R^{E.shape[0]}")
    if E.shape[1] == 0:
        return 0
    # np.linalg.matrix_rank(A @ E, tol=tol) without its wrapper
    return int(np.count_nonzero(np.linalg.svd(A @ E, compute_uv=False) > tol))


def slack(datum: Datum, V: ProductSubspace, *, tols: Optional[list] = None) -> SlackResult:
    """Criticality slack of V for the datum (positive means violation).

    ``tols``, the maps' ``rank_tol`` in order, lets a scan that scores
    many candidates compute them once; they are computed here otherwise.
    """
    if V.ambient != datum.partition.blocks:
        raise ValueError(
            f"subspace block shape {V.ambient} does not match partition {datum.partition.blocks}"
        )
    if tols is None:
        tols = [rank_tol(A) for A in datum.maps]
    img = tuple(_image_rank(A, V, tol) for A, tol in zip(datum.maps, tols))
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


# shape tables kept per cache; a 4096-member table takes 0.70 MB at n = 12
# with scalar blocks, and about 4096 * (n + 8 k + 16 + 8 t) bytes in general
# (t the mean subset size), as the cap holds the member count
_TABLE_CACHE = 32


def _axis_subsets(r: int, cap: int) -> np.ndarray:
    """The first ``cap`` axis subsets of a block of r axes, by size, then
    lexicographically, as the rows of a boolean table."""
    subsets = (idx for t in range(r + 1) for idx in itertools.combinations(range(r), t))
    table = np.zeros((min(2**r, cap), r), dtype=bool)
    for row, idx in enumerate(itertools.islice(subsets, cap)):
        table[row, list(idx)] = True
    return table


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
        table = _axis_subsets(r, cap)
        parts.append(table[q % len(table)])
        q = q // len(table)
    return np.concatenate(parts[::-1], axis=1)


@dataclass(frozen=True, eq=False)
class _CoordinateTable:
    """The part of scoring coordinate subspaces that depends on shape only:
    each member's axes in R^n (``mask``, N x n), subset size (``sizes``)
    and per-block dimensions (``dims``, N x k), per subset size the
    members of that size with their axes (``groups``, ``(rows, cols)``
    pairs, by size), the index sets ``_coordinate_ranks`` stacks, all in
    read-only arrays; and whether the members are every subset of the
    axes they use (``closed``), which lets one full-rank size settle
    every other size."""

    mask: np.ndarray
    sizes: np.ndarray
    dims: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    closed: bool = False


def _table(partition: Partition, mask: np.ndarray, closed: bool = False) -> _CoordinateTable:
    """The table of the coordinate subspaces whose axes are the rows of
    ``mask``, which it takes over and makes read-only; ``closed`` is
    passed on as the table's, and must hold only if the rows are every
    subset of the axes they use."""
    sizes = mask.sum(axis=1)
    groups = []
    for t in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == t)
        groups.append((rows, np.nonzero(mask[rows])[1].reshape(len(rows), t)))
    dims = np.add.reduceat(mask, [a for a, _ in partition.offsets()], axis=1, dtype=int)
    for arr in (mask, sizes, dims, *itertools.chain.from_iterable(groups)):
        arr.setflags(write=False)
    return _CoordinateTable(mask, sizes, dims, tuple(groups), closed)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _coordinate_table(partition: Partition, cap: int) -> _CoordinateTable:
    """The table of the first ``cap`` coordinate subspaces, built once per
    ``(partition, cap)``: no datum value enters it, so data of one shape
    share it.  A prefix of the product order holds every subset of each
    member (a subset comes no later in any block, whose subsets come by
    size), so it is closed exactly when it has 2^u members, u the number
    of axes they use."""
    mask = _coordinate_masks(partition, cap)
    return _table(partition, mask, closed=len(mask) == 2 ** int(mask.any(axis=0).sum()))


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _ray_table(partition: Partition) -> _CoordinateTable:
    """The divergence probe's rays as a coordinate table, built once per
    partition: the full space, then each block alone.  The zero subspace
    is not a ray, so it is not closed."""
    blocks = partition.blocks
    full = np.ones(partition.n, dtype=bool)
    mask = [full] + [np.repeat(np.arange(len(blocks)) == i, blocks) for i in range(len(blocks))]
    return _table(partition, np.array(mask))


def _coordinate_ranks(datum: Datum, table: _CoordinateTable) -> np.ndarray:
    """dim(A_j V) for each coordinate subspace (row of ``table.mask``) and
    map: per map and subset size, one SVD of the stacked column
    submatrices A_j[:, S], which equal A_j E bit for bit (E's columns are
    unit vectors), counted above rank_tol(A_j) as in ``dim_image``.

    On a closed table, whose members are every subset of the u axes they
    use, size k_j, the row count of A_j, is stacked first when
    0 < k_j <= u, and if it gives every member sigma_{k_j}(A_j[:, T]) >
    2 rank_tol(A_j), no other size is stacked: each member S has rank
    min(|S|, k_j), the count its own SVD would give.  A larger S contains
    a member T of size k_j, so A_S A_S^T >= A_T A_T^T and no singular
    value falls (interlacing), sigma_{k_j}(A_S) >= sigma_{k_j}(A_T).  A
    smaller S lies inside a member T of size k_j, and A_S^T A_S is a
    principal submatrix of A_T^T A_T, so by Cauchy interlacing
    sigma_{|S|}(A_S) >= sigma_{k_j}(A_T).  A computed singular value is
    within a few eps ||A_j|| of the exact one, an order of magnitude
    below rank_tol (see ``_RANK_TOL``), so with the 2x margin each of
    S's own computed singular values up to min(|S|, k_j) would clear
    2 rank_tol less both SVDs' rounding, which is above rank_tol.  A size
    k_j of at least ``_DET_MEMBERS`` members first tries the determinant
    certificate (``_full_rank_by_determinant``), which proves the exact
    sigma_{k_j} of every member above 2 rank_tol(A_j) and so settles the
    map with no SVD; if it fails, size k_j is stacked as above.  On a
    generic Zamir-Feder datum, whose one map's size k has 56 members at
    8x3, 126 at 9x4 and 495 at 12x4 and 13x4, the screen takes one
    batch of determinants and no SVD.

    Otherwise (a member of size k_j without the margin, or a table that
    is not closed, such as the probe's ray table or a truncated one whose
    cap cuts into the subsets of a block of three or more axes) every
    size is stacked, reusing size k_j's stack.
    """
    width = table.mask.shape[1]
    img = np.zeros((len(table.mask), datum.m), dtype=int)
    for j, A in enumerate(datum.maps):
        if A.shape[1] != width:
            raise ValueError(f"map has {A.shape[1]} columns, subspace lives in R^{width}")
        tol = rank_tol(A)
        k = len(A)
        first = None
        if table.closed and 0 < k <= len(table.groups):
            # a closed table has one group per size 1..u, in order
            cols = table.groups[k - 1][1]
            if len(cols) >= _DET_MEMBERS and _full_rank_by_determinant(A, cols, tol):
                img[:, j] = np.minimum(table.sizes, k)
                continue
            first = _stacked_singular_values(A, cols)
            if np.all(first[:, k - 1] > 2 * tol):
                img[:, j] = np.minimum(table.sizes, k)
                continue
        for rows, cols in table.groups:
            s = _stacked_singular_values(A, cols) if first is None or cols.shape[1] != k else first
            img[rows, j] = (s > tol).sum(axis=1)
    return img


def _stacked_singular_values(A: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The singular values of A[:, S] for each row S of ``cols``, read off
    A^T's rows with no axis move."""
    return np.linalg.svd(A.T[cols].swapaxes(1, 2), compute_uv=False)


# a size-k stack of at least this many members tries the determinant
# certificate before its SVDs: the certificate has a fixed cost of about
# 20 us on a 2-vCPU host, so it beats the stacked SVDs from about 8
# members at k = 3 and 4 and from 32 at k = 2, and a refused certificate
# adds its cost to the SVDs
_DET_MEMBERS = 32


def _full_rank_by_determinant(A: np.ndarray, cols: np.ndarray, tol: float) -> bool:
    """Whether the determinants prove sigma_k(B) > 2 tol for every square
    member B = A[:, S], S a row of ``cols`` and k = len(A), with ``tol =
    rank_tol(A)``; False proves nothing.  With u = eps / 2:

    - A and tol are scaled by a power of two to max|A| in [1/2, 1), which
      is exact (an entry pushed below the normal range moves by at most
      2^-1075) and keeps the squares finite.
    - B = D C + E, D its computed row norms and C = fl(D^-1 B): one
      rounding per entry gives |E| <= u |B|, so ||E||_2 <= u ||A||_F =
      tol / (20 max(A.shape)) and sigma_k(B) >= min(D) sigma_k(C) - tol
      / 20.  C's rows have norm 1 within (k + 3) u.
    - ``np.linalg.det`` factors P C = L U - F with LAPACK's partial
      pivoting: |F| <= gamma_k |L| |U|, |L| <= 1 and |U| <= 2^(k-1)
      max|C| (the growth bound), so ||F||_F <= k^3 2^(k-2) eps to first
      order, below delta = k^3 2^(k-1) eps.  It returns sign exp(sum
      log|u_ii|), within the relative ``rel`` of |det(L U)|: a passing
      member has |det| >= 20 eps, and |u_ii| < 2^k, so sum |log|u_ii||
      <= 34 + 2 k^2.
    - The singular values of L U other than the least have a product at
      most (||L U||_F^2 / (k - 1))^((k-1)/2) (AM-GM), and ||L U||_F <=
      sqrt(k) + 2 delta, so sigma_k(L U) >= |det(L U)| g, and
      sigma_k(C) >= sigma_k(L U) - delta (Weyl).

    So min(D) (|det| (1 - rel) g - delta) > 2.1 tol proves sigma_k(B) >
    2 tol, the 0.1 tol holding E and the rounding of the bound's own few
    operations.  If any member has a row of norm at most 2 tol, which
    bounds its sigma_k (a zero row or a non-finite entry among them), the
    certificate fails before any determinant.
    """
    k = len(A)
    eps = np.finfo(float).eps
    e = -int(np.frexp(np.abs(A).max())[1])
    tol = np.ldexp(tol, e)
    T = np.ldexp(A, e).T[cols]  # B^T per member
    d = np.sqrt(np.einsum("nij,nij->nj", T, T))
    if not d.min() > 2 * tol:
        return False
    det = np.abs(np.linalg.det(T / d[:, None, :]))
    delta = k**3 * 2.0 ** (k - 1) * eps
    g = ((k - 1) / (k**0.5 + 2 * delta) ** 2) ** ((k - 1) / 2)
    rel = 2 * (k + 2) * (2 * k * k + 34) * eps
    return bool((d.min(axis=1) * (det * ((1 - rel) * g) - delta)).min() > 2.1 * tol)


def _coordinate_subspace(partition: Partition, axes: np.ndarray) -> ProductSubspace:
    """The coordinate subspace on the axes of R^n set in the boolean row ``axes``."""
    return ProductSubspace.coordinate(
        partition, tuple(np.flatnonzero(axes[a:b]) for a, b in partition.offsets())
    )


# a scored candidate: its per-block dimensions, a function that builds it
# (validated as any ProductSubspace), and its slack
_Scored = tuple[tuple[int, ...], Callable[[], ProductSubspace], SlackResult]


def _exact_slack(datum: Datum, block_dims, axes: np.ndarray) -> Fraction:
    """The slack of the coordinate subspace on the axes of R^n set in the
    boolean row ``axes``, with per-block dimensions ``block_dims``, in exact
    arithmetic: the exponents as the rationals they are and the exact
    ranks of the column submatrices A_j[:, axes], with no rank cut."""
    kept = sum(Fraction(di) * int(t) for di, t in zip(datum.d, block_dims))
    return kept - sum(Fraction(cj) * exact.rank(A[:, axes]) for cj, A in zip(datum.c, datum.maps))


def _coordinate_screen(datum: Datum, table: _CoordinateTable) -> Iterator[_Scored]:
    """The critical or violating members of the coordinate subspaces in
    ``table``, in order, each with its ``slack``; a member is built only
    when its builder is called.

    All members are scored at once; a member whose bulk score lies below
    -CRITICAL_TOL by more than the rounding bound of the two dot products
    is neither, and the rest are rescored with ``slack``'s own expression,
    bit for bit.  A violating member is counted again exactly
    (``_exact_slack``) before it is yielded, and skipped if its exact
    slack is not positive: a witness never rests on a rank the cut
    miscounted.
    """
    partition = datum.partition
    img = _coordinate_ranks(datum, table)
    # the bulk and the exact score each lie within (k + m + 1) eps * bound
    # of the true slack, whatever order their sums run in, so they differ
    # by less than the margin
    bound = np.dot(np.abs(datum.d), partition.blocks) + np.dot(np.abs(datum.c), datum.image_dims)
    margin = 4 * (datum.k + datum.m) * np.finfo(float).eps * bound
    for q in np.flatnonzero(table.dims @ datum.d - img @ datum.c >= -CRITICAL_TOL - margin):
        sr = SlackResult(_slack_value(datum, table.dims[q], img[q]), tuple(img[q].tolist()))
        if sr.violating and _exact_slack(datum, table.dims[q], table.mask[q]) <= 0:
            continue
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


def _kernel_pair_intersection(Pa: np.ndarray, Pb: np.ndarray) -> np.ndarray:
    """Basis of span(Ka) ∩ span(Kb), the joint orthocomplement of bases
    Pa and Pb of their orthocomplements."""
    return null_space(np.hstack([Pa, Pb]).T)


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
    # each nonzero kernel's orthocomplement, computed once for all its pairs
    nonzero = [K for K in kernels if K.shape[1] > 0]
    perps = [null_space(K.T) for K in nonzero] if len(nonzero) > 1 else []
    for Pa, Pb in itertools.combinations(perps, 2):
        K = _kernel_pair_intersection(Pa, Pb)
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
    be scored once with ``slack``, at the maps' rank cuts computed once
    when the first such candidate comes."""
    yield from _coordinate_screen(datum, _coordinate_table(datum.partition, budget.profile_cap))
    tols = None
    for V in _kernel_candidates(datum, budget.profile_cap):
        if tols is None:
            tols = [rank_tol(A) for A in datum.maps]
        yield V.block_dims, lambda V=V: V, slack(datum, V, tols=tols)


def candidate_subspaces(
    datum: Datum,
    budget: SearchBudget,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[ProductSubspace]:
    """Yield candidate product subspaces in a fixed order.

    (a) coordinate-axis products: the first ``budget.profile_cap`` are
        scored in bulk and the critical ones, and the violating ones whose
        exact slack is positive, yielded in order (no scan needs the
        others);
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
    table = _coordinate_table(datum.partition, budget.profile_cap)
    for _, build, _ in _coordinate_screen(datum, table):
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


def divergence_probe(datum: Datum) -> Optional[ProductSubspace]:
    """First escape ray with positive slack, or None.

    The rays are the full space and each single full block.  Along
    ``gauss.ray_covariance(partition, V, lam)`` the objective is
    0.5 * slack(V) * log(lam) + O(1), so a ray escapes exactly when its
    slack is positive.  The rays are coordinate subspaces, so the probe
    is the coordinate screen over ``_ray_table``: the first violating
    member whose exact slack is positive, built by its builder, is a
    re-checkable witness, as from ``find_violating_subspace``.
    """
    for _, build, sr in _coordinate_screen(datum, _ray_table(datum.partition)):
        if sr.violating:
            return build()
    return None
