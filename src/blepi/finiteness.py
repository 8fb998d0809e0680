"""Finiteness verdicts, infiniteness witnesses, and split certificates.

The optimal constant of a datum is finite iff (i) the total scaling
balance sum_i d_i r_i = sum_j c_j n_j holds and (ii) no product-form
subspace has positive slack (Bennett-Carbery-Christ-Tao).  Violations of
(i) are witnessed by the exact residual (the objective grows like
residual * log(scale) along the isotropic ray); violations of (ii) by a
concrete subspace.  The balance and ``slack`` decide every verdict: the
candidate search and the escape-ray probe (the full space and each
single block, scored in one bulk call with ``slack``'s expression) both
return a subspace witness, and the only unknown left is a truncated
coordinate family.

A finite datum can be decomposed along critical subspaces:
``split_datum`` restricts the maps to U, projects the rest onto the
orthocomplements, and returns the two child data, whose constants sum
to the parent's.  Recursing until dimension-one or single-square-map
base cases (whose constants are explicit log-determinants) produces a
:class:`SplitTree` certificate, along which ``gauss.solve_mg`` computes
the constant.  Each node makes one pass over its candidates, which
rejects a violating subspace and collects the critical ones, building
only the ones it splits along; ``check_finiteness`` reads the pass of
the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .datum import RESIDUAL_TOL, Datum, Partition, _unit_rows, scaling_residual, validate
from .gauss import divergence_probe
from .subspace import (
    ProductSubspace,
    SearchBudget,
    _scored_candidates,
    candidate_subspaces,  # noqa: F401  uncalled; perfbench's wiring self-test pins this name
    coordinate_family_size,
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


def check_finiteness(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> FinitenessVerdict:
    """Decide finiteness of the optimal constant, with witnesses.

    Infinite verdicts carry an independently re-checkable witness: the
    scaling residual, or a subspace with positive slack from the
    candidate search or the divergence probe, its slack recomputed with
    ``slack``.  The search is the scored pass ``certify`` makes at the
    root, so each candidate is scored once and only the witness is built.
    Finite requires a zero residual, neither of those subspaces, and a
    complete coordinate-axis enumeration; a truncated one is Unknown.
    ``rng`` is accepted for compatibility and not used; the verdict is
    deterministic.
    """
    report = validate(datum)
    if not report.ok:
        raise ValueError(f"invalid datum: {report.issues}")
    res = scaling_residual(datum)
    if abs(res) > RESIDUAL_TOL:
        return FinitenessVerdict(
            status=INFINITE,
            witness=ScalingResidual(res),
            notes="total scaling balance fails",
        )
    V = _scan(datum, budget)[0] or divergence_probe(datum)
    if V is not None:
        sr = slack(datum, V)
        return FinitenessVerdict(
            status=INFINITE,
            witness=ViolatingSubspace(subspace=V, slack=sr.slack),
            notes="product subspace with positive slack",
        )
    if coordinate_family_size(datum.partition) > budget.profile_cap:
        return FinitenessVerdict(
            status=UNKNOWN,
            notes="coordinate family truncated by the profile budget",
        )
    return FinitenessVerdict(status=FINITE, notes="search and probe both clean")


# ---------------------------------------------------------------------------
# splitting along a critical subspace
# ---------------------------------------------------------------------------


class SplitError(ValueError):
    pass


class ViolationError(ValueError):
    """certify found a subspace with positive slack at the root."""

    def __init__(self, subspace: ProductSubspace):
        super().__init__("certify requires a finite verdict (a subspace has positive slack)")
        self.subspace = subspace


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
    sr = slack(datum, U)
    if not sr.critical:
        raise SplitError(f"subspace is not critical: slack = {sr.slack:.3g}")
    if U.dim == 0 or U.dim == datum.n:
        raise SplitError("need a proper nontrivial critical subspace")

    E = U.embedding
    Eperp = U.orthocomplement().embedding
    restricted, quotient = [], []
    for A in datum.maps:
        AE = A @ E
        W, sv, _ = np.linalg.svd(AE, full_matrices=False)
        F = W[:, : int(np.sum(sv > rank_tol(A)))]
        restricted.append(F.T @ AE)
        quotient.append(null_space(F.T).T @ (A @ Eperp))

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
    """Recursive decomposition of a finite datum.

    Leaves are the explicit base cases (dimension one, or a single square
    map) with their constants in nats, or irreducible nodes where no
    proper critical subspace splits the datum within budget, or where a
    violating subspace turned up below the root.
    """

    datum: Datum
    subspace: Optional[ProductSubspace] = None
    children: Optional[tuple["SplitTree", "SplitTree"]] = None
    leaf_kind: Optional[str] = None  # "dim-1" | "single-map" | "irreducible"
    constant: Optional[float] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def leaves(self) -> list["SplitTree"]:
        if self.is_leaf:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]


def _scan(datum: Datum, budget):
    """One pass over the candidates: the first violating subspace (or
    None), and a builder for each proper critical candidate, in candidate
    order.  Each candidate's score is the one ``_scored_candidates``
    yields with it: the bulk score of a coordinate member, one ``slack``
    call otherwise.  The zero and the whole space are skipped by their
    dimensions, and a coordinate member is built only when it is
    returned or its builder is called."""
    critical = []
    for dims, build, sr in _scored_candidates(datum, budget):
        if sr.violating:
            return build(), critical
        if sr.critical and 0 < sum(dims) < datum.n:
            critical.append(build)
    return None, critical


def certify(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> SplitTree:
    """Recursively split along critical subspaces down to base cases.

    Each node above dimension one makes one pass over its candidates,
    the one ``check_finiteness`` makes at the root, and splits along the
    first critical one that splits; a critical coordinate candidate is
    built as a subspace only when the node tries to split along it.  The root must
    balance (ValueError).  A violating subspace of the root raises
    ViolationError: a violating candidate or, when the candidate pass
    finds none, the first escaping ray of the divergence probe, as in
    ``check_finiteness``.  Below the root, a violating candidate leaves
    its node irreducible (an infinite constant that no solve converges
    on).  ``rng`` is accepted for compatibility; the candidate search
    does not use it.
    """
    if abs(scaling_residual(datum)) > RESIDUAL_TOL:
        raise ValueError("certify requires a finite verdict (scaling balance fails)")
    return _certify(datum, budget, root=True)


def _certify(datum: Datum, budget, root: bool = False) -> SplitTree:
    if datum.n == 1:
        return SplitTree(datum=datum, leaf_kind="dim-1", constant=_unit_rows(datum)[1])
    violating, critical = _scan(datum, budget)
    if root:
        violating = violating or divergence_probe(datum)
    if violating is not None:
        if root:
            raise ViolationError(violating)
        return SplitTree(datum=datum, leaf_kind="irreducible", constant=None)
    if datum.m == 1 and datum.maps[0].shape[0] == datum.maps[0].shape[1]:
        # slogdet, as det underflows to 0 on a map like 1e-200 * I
        const = -float(datum.c[0]) * float(np.linalg.slogdet(datum.maps[0])[1])
        return SplitTree(datum=datum, leaf_kind="single-map", constant=const)
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

