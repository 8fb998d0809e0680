"""Finiteness verdicts, infiniteness witnesses, and split certificates.

The optimal constant of a datum is finite iff (i) the total scaling
balance sum_i d_i r_i = sum_j c_j n_j holds and (ii) no product-form
subspace has positive slack (Bennett-Carbery-Christ-Tao).  Violations of
(i) are witnessed by the exact residual (the objective grows like
residual * log(scale) along the isotropic ray); violations of (ii) by a
concrete subspace.  The balance and ``slack`` decide every verdict: the
candidate search and the escape-ray probe (the full space and each
single block, run through :mod:`blepi.subspace`'s coordinate screen)
both return a subspace witness, and the only unknown left is a
truncated coordinate family.

A finite datum splits along a critical subspace U (``split_datum``) into
a child on U and one on its orthocomplement, whose constants sum to the
parent's.  ``certify`` recurses down to nodes whose maps are all square
(explicit log-det constants), giving the :class:`SplitTree` along which
``gauss.solve_mg`` computes the constant; this module imports nothing
from :mod:`blepi.gauss`.  ``_root`` decides the root once for every
entry point, and ``_tree`` builds the root's split tree once: each keeps
its result for the last datum object it was called on (as ``validate``
does), so ``check_finiteness``, ``certify`` and ``solve_mg`` called in
turn on one datum validate it once, make one root pass and build one
tree.  A raise is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .datum import RESIDUAL_TOL, Datum, Partition, _last_datum, scaling_residual, validate
from .subspace import (
    CRITICAL_TOL,
    ProductSubspace,
    SearchBudget,
    SlackResult,
    _scored_candidates,
    _slack_value,
    candidate_subspaces,  # noqa: F401  uncalled; perfbench's wiring self-test pins this name
    coordinate_family_size,
    divergence_probe,
    find_violating_subspace,  # noqa: F401  uncalled; perfbench's wiring self-test pins this name
    null_space,
    rank_tol,
    slack,
)

__all__ = [
    "FINITE",
    "INFINITE",
    "UNKNOWN",
    "RESIDUAL_TOL",
    "ScalingResidual",
    "ViolatingSubspace",
    "FinitenessVerdict",
    "SplitError",
    "ViolationError",
    "SplitTree",
    "scaling_residual",
    "check_finiteness",
    "split_datum",
    "certify",
]

FINITE = "finite"
INFINITE = "infinite"
UNKNOWN = "unknown"

@dataclass(frozen=True)
class ScalingResidual:
    value: float


@dataclass(frozen=True)
class ViolatingSubspace:
    subspace: ProductSubspace
    slack: float


def _subspace_to_dict(V: ProductSubspace) -> dict:
    return {"bases": [[[float(x) for x in row] for row in B] for B in V.bases]}


@dataclass(frozen=True)
class FinitenessVerdict:
    status: str
    witness: Optional[Union[ScalingResidual, ViolatingSubspace]] = None
    notes: str = ""

    def to_dict(self) -> dict:
        doc: dict = {"status": self.status, "notes": self.notes}
        if isinstance(self.witness, ScalingResidual):
            doc["witness"] = {"kind": "scaling_residual", "value": self.witness.value}
        elif isinstance(self.witness, ViolatingSubspace):
            doc["witness"] = {
                "kind": "violating_subspace",
                "slack": self.witness.slack,
                "subspace": _subspace_to_dict(self.witness.subspace),
            }
        else:
            doc["witness"] = None
        return doc


@_last_datum
def _root(datum: Datum, budget) -> tuple[FinitenessVerdict, list]:
    """The root's verdict and its critical candidates' builders; of the
    witnesses, a probe ray's alone is scored again with ``slack``.  It
    decides the root once for every entry point: the result for the last
    datum object and budget is kept."""
    report = validate(datum)
    if not report.ok:
        raise ValueError(f"invalid datum: {report.issues}")
    res = scaling_residual(datum)
    if abs(res) > RESIDUAL_TOL:
        return FinitenessVerdict(INFINITE, ScalingResidual(res), "total scaling balance fails"), []
    witness, critical = _scan(datum, budget)
    if witness is None:
        V = divergence_probe(datum)
        if V is not None:
            witness = ViolatingSubspace(subspace=V, slack=slack(datum, V).slack)
    if witness is not None:
        verdict = FinitenessVerdict(INFINITE, witness, "product subspace with positive slack")
    elif coordinate_family_size(datum.partition) > budget.profile_cap:
        verdict = FinitenessVerdict(UNKNOWN, notes="coordinate family truncated by the profile budget")
    else:
        verdict = FinitenessVerdict(FINITE, notes="search and probe both clean")
    return verdict, critical


def check_finiteness(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> FinitenessVerdict:
    """Decide finiteness of the optimal constant, with witnesses.

    Infinite verdicts carry an independently re-checkable witness: the
    scaling residual, or a subspace with positive slack, and its slack,
    from the root's candidate pass (the one ``certify`` reads, each
    candidate scored once) or the divergence probe.  Finite requires a
    zero residual, neither of those subspaces, and a complete
    coordinate-axis enumeration; a truncated one is Unknown.  ``rng`` is
    not used.  An invalid datum raises ValueError.
    """
    return _root(datum, budget)[0]


# ---------------------------------------------------------------------------
# splitting along a critical subspace
# ---------------------------------------------------------------------------


class SplitError(ValueError):
    pass


class ViolationError(ValueError):
    """certify's datum is infinite; ``witness`` is its verdict's witness."""

    def __init__(self, witness: Union[ScalingResidual, ViolatingSubspace]):
        balance = isinstance(witness, ScalingResidual)
        why = "scaling balance fails" if balance else "a subspace has positive slack"
        super().__init__(f"certify requires a finite verdict ({why})")
        self.witness = witness


def split_datum(datum: Datum, U: ProductSubspace) -> tuple[Datum, Datum]:
    """Split a datum along a critical product subspace U into the pair
    (child on U, child on U^perp), whose constants add to the parent's.

    The child on U restricts each map to U, expressed in orthonormal
    bases of U and A_j U (the singular vectors of A_j E above the cut
    rank_tol(A_j) that dim_image counts).  The child on the
    orthocomplement projects each map onto (A_j U)^perp.  Exponents
    carry over; blocks and maps that collapse to dimension zero are
    dropped (their entropy contribution is zero by convention).
    """
    if U.ambient != datum.partition.blocks:
        raise ValueError(
            f"subspace block shape {U.ambient} does not match partition {datum.partition.blocks}"
        )
    # one SVD per map: its count above rank_tol(A_j) is both dim(A_j U),
    # which the slack reads, and the width of the basis F of A_j U
    E = U.embedding
    images = []
    for A in datum.maps:
        AE = A @ E
        W, sv, _ = np.linalg.svd(AE, full_matrices=False)
        images.append((AE, W[:, : int(np.count_nonzero(sv > rank_tol(A)))]))
    dims = tuple(F.shape[1] for _, F in images)
    sr = SlackResult(slack=_slack_value(datum, U.block_dims, dims), per_map_dims=dims)
    if not sr.critical:
        raise SplitError(f"subspace is not critical: slack = {sr.slack:.3g}")
    if U.dim == 0 or U.dim == datum.n:
        raise SplitError("need a proper nontrivial critical subspace")

    Eperp = U.orthocomplement().embedding
    restricted = [F.T @ AE for AE, F in images]
    quotient = [null_space(F.T).T @ (A @ Eperp) for A, (_, F) in zip(datum.maps, images)]

    def child(part_dims, maps_list, side):
        keep_blocks = [i for i, ti in enumerate(part_dims) if ti > 0]
        keep_maps = [j for j, M in enumerate(maps_list) if M.shape[0] > 0]
        if not keep_maps:
            raise SplitError(f"split along U leaves the {side} child with no maps")
        return Datum(
            partition=Partition(tuple(part_dims[i] for i in keep_blocks)),
            maps=tuple(maps_list[j] for j in keep_maps),
            c=datum.c[keep_maps],
            d=datum.d[keep_blocks],
        )

    p_dims = tuple(r - ti for r, ti in zip(datum.partition.blocks, U.block_dims))
    return child(U.block_dims, restricted, "U"), child(p_dims, quotient, "U_perp")


# ---------------------------------------------------------------------------
# recursive certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitTree:
    """Recursive decomposition of a finite datum.  A node whose maps are
    all square has, with C = sum_j c_j, the objective
    1/2 sum_i (d_i - C) log det Sigma_i - sum_j c_j log|det A_j|: an
    ``explicit`` leaf with that constant in nats, unless the blocks with
    d_i > C have positive slack.  ``irreducible`` leaves are those, nodes
    no critical subspace splits within budget, and nodes below the root
    with a violating subspace."""

    datum: Datum
    subspace: Optional[ProductSubspace] = None
    children: Optional[tuple["SplitTree", "SplitTree"]] = None
    leaf_kind: Optional[str] = None  # "explicit" | "irreducible"
    constant: Optional[float] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def leaves(self) -> list["SplitTree"]:
        if self.is_leaf:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]


def _scan(datum: Datum, budget):
    """One pass over the candidates: the first violating one as a
    ``ViolatingSubspace`` with its score (or None), and a builder for each
    proper critical candidate, in candidate order.  Each score is the one
    ``_scored_candidates`` yields, ``slack``'s own expression: the bulk
    score of a coordinate member, one ``slack`` call otherwise.  The zero
    and the whole space are skipped by their dimensions, and a coordinate
    member is built only when it is returned or its builder is called."""
    critical = []
    for dims, build, sr in _scored_candidates(datum, budget):
        if sr.violating:
            return ViolatingSubspace(subspace=build(), slack=sr.slack), critical
        if sr.critical and 0 < sum(dims) < datum.n:
            critical.append(build)
    return None, critical


def certify(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> SplitTree:
    """Recursively split along critical subspaces down to leaves.

    The root's verdict is ``check_finiteness``'s; an infinite one raises
    ViolationError with its witness.  A node with only square maps, the
    root included, is a leaf; every other node splits along its first
    critical candidate that splits (the root's from that same pass, each
    node below from one of its own), building a coordinate candidate only
    when it tries it, or is irreducible.  ``rng`` is not used.  An invalid
    datum raises ValueError.  The tree of the last datum object certified
    is kept and returned again for it.
    """
    return _tree(datum, budget)


@_last_datum
def _tree(datum: Datum, budget) -> SplitTree:
    """``certify``'s split tree, kept for the last datum object and budget."""
    verdict, critical = _root(datum, budget)
    if verdict.status == INFINITE:
        raise ViolationError(verdict.witness)
    return _certify(datum, budget, critical)


def _certify(datum: Datum, budget, critical: Optional[list] = None) -> SplitTree:
    """The split tree of a node; ``critical`` is the root's, from ``_root``."""
    if all(A.shape[0] == A.shape[1] for A in datum.maps):
        dims = np.where(datum.d > datum.c.sum(), datum.partition.blocks, 0)  # slack's maximizer
        if _slack_value(datum, dims, [dims.sum()] * datum.m) > CRITICAL_TOL:
            return SplitTree(datum=datum, leaf_kind="irreducible")
        # slogdet, as det underflows to 0 on a map like 1e-200 * I
        const = -sum(cj * np.linalg.slogdet(A)[1] for cj, A in zip(datum.c, datum.maps))
        return SplitTree(datum=datum, leaf_kind="explicit", constant=float(const))
    if critical is None:
        violating, critical = _scan(datum, budget)
        if violating is not None:
            return SplitTree(datum=datum, leaf_kind="irreducible", constant=None)
    for build in critical:
        U = build()
        try:
            child_u, child_perp = split_datum(datum, U)
        except SplitError:
            continue
        left = _certify(child_u, budget)
        right = _certify(child_perp, budget)
        return SplitTree(datum=datum, subspace=U, children=(left, right))
    return SplitTree(datum=datum, leaf_kind="irreducible", constant=None)
