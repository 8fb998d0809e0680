"""Finiteness verdicts, infiniteness witnesses, and split certificates.

The optimal constant of a datum is finite iff (i) the total scaling
balance sum_i d_i r_i = sum_j c_j n_j holds and (ii) no product-form
subspace has positive slack (Bennett-Carbery-Christ-Tao).  Violations of
(i) are witnessed by the exact residual (the objective grows like
residual * log(scale) along the isotropic ray); violations of (ii) by a
concrete subspace.  The balance and ``slack`` decide every verdict: the
candidate search and the escape-ray probe (the full space and each
single block, scored with ``slack``) both return a subspace witness, and
the only unknown left is a truncated coordinate family.

A finite datum can be decomposed along critical subspaces: restricting
the maps to U and projecting the rest onto the orthocomplements yields
two smaller data whose constants sum to the parent's.  Recursing until
dimension-one or single-square-map base cases (whose constants are
explicit log-determinants) produces a :class:`SplitTree` certificate,
along which ``gauss.solve_mg`` computes the constant.  Each node makes
one pass over its candidates, which rejects a violating subspace and
collects the critical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .datum import RESIDUAL_TOL, Datum, Partition, scaling_residual, validate
from .gauss import divergence_probe
from .subspace import (
    ProductSubspace,
    SearchBudget,
    candidate_subspaces,
    coordinate_family_size,
    embed,
    find_violating_subspace,
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
    "SplitChild",
    "SplitResult",
    "SplitError",
    "ViolationError",
    "SplitTree",
    "scaling_residual",
    "check_finiteness",
    "split_datum",
    "certify",
    "check_and_certify",
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
    certificate: Optional["SplitTree"] = None
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
        doc["certificate"] = self.certificate.to_dict() if self.certificate else None
        return doc


def check_finiteness(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> FinitenessVerdict:
    """Decide finiteness of the optimal constant, with witnesses.

    Infinite verdicts carry an independently re-checkable witness: the
    scaling residual, or a subspace with positive slack from the
    candidate search or the divergence probe.  Finite requires a zero
    residual, neither of those subspaces, and a complete coordinate-axis
    enumeration; a truncated one is Unknown.  ``rng`` is accepted for
    compatibility and not used; the verdict is deterministic.
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
    V = find_violating_subspace(datum, budget) or divergence_probe(datum)
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
    """certify's candidate pass found a subspace with positive slack."""

    def __init__(self, subspace: ProductSubspace):
        super().__init__("certify requires a finite verdict (a subspace has positive slack)")
        self.subspace = subspace


@dataclass(frozen=True)
class SplitChild:
    """Child datum plus the bookkeeping of which original blocks and maps
    survived (zero-dimensional ones are dropped; their entropy
    contribution is zero by convention)."""

    datum: Optional[Datum]
    block_index: tuple[int, ...]
    map_index: tuple[int, ...]


@dataclass(frozen=True)
class SplitResult:
    child_u: SplitChild
    child_perp: SplitChild
    u_basis: np.ndarray        # n x t, orthonormal, block-aligned
    perp_basis: np.ndarray     # n x (n - t)
    image_bases: tuple[np.ndarray, ...]     # F_j: basis of A_j U in R^{n_j}
    coimage_bases: tuple[np.ndarray, ...]   # G_j: basis of (A_j U)^perp
    restricted_maps: tuple[np.ndarray, ...]   # A_j on U, in bases (E, F_j)
    quotient_maps: tuple[np.ndarray, ...]     # projected A_j on U^perp, bases (E_perp, G_j)
    cross_maps: tuple[np.ndarray, ...]        # component of A_j U^perp inside A_j U


def split_datum(datum: Datum, U: ProductSubspace) -> SplitResult:
    """Split a datum along a critical product subspace U.

    The child on U restricts each map to U, expressed in orthonormal
    bases of U and A_j U (the singular vectors of A_j E above the cut
    rank_tol(A_j) that dim_image counts).  The child on the
    orthocomplement projects each map onto (A_j U)^perp.  The leftover
    component of A_j on U^perp that lands inside A_j U is returned as a
    cross map; together the three pieces reconstruct A_j exactly.
    Exponents carry over; blocks or images that collapse to dimension
    zero are dropped with the index maps recording the survivors.
    """
    sr = slack(datum, U)
    if not sr.critical:
        raise SplitError(f"subspace is not critical: slack = {sr.slack:.3g}")
    t = U.dim
    if t == 0 or t == datum.n:
        raise SplitError("need a proper nontrivial critical subspace")

    E = embed(U)
    Uperp = U.orthocomplement()
    Eperp = embed(Uperp)

    image_bases, coimage_bases = [], []
    restricted, quotient, cross = [], [], []
    for A in datum.maps:
        AE = A @ E
        W, sv, _ = scipy.linalg.svd(AE, full_matrices=False)
        F = W[:, : int(np.sum(sv > rank_tol(A)))]
        G = scipy.linalg.null_space(F.T) if F.shape[1] < A.shape[0] else np.zeros((A.shape[0], 0))
        image_bases.append(F)
        coimage_bases.append(G)
        restricted.append(F.T @ AE)
        quotient.append(G.T @ (A @ Eperp))
        cross.append(F.T @ (A @ Eperp))

    def build_child(part_dims, maps_list, side):
        keep_blocks = tuple(i for i, ti in enumerate(part_dims) if ti > 0)
        keep_maps = tuple(j for j, M in enumerate(maps_list) if M.shape[0] > 0)
        if not keep_maps:
            raise SplitError(f"split along U leaves the {side} child with no maps")
        child = Datum(
            partition=Partition(tuple(part_dims[i] for i in keep_blocks)),
            maps=tuple(maps_list[j] for j in keep_maps),
            c=datum.c[list(keep_maps)],
            d=datum.d[list(keep_blocks)],
            metadata={"split_side": side},
        )
        return SplitChild(datum=child, block_index=keep_blocks, map_index=keep_maps)

    t_dims = U.block_dims
    p_dims = tuple(r - ti for r, ti in zip(datum.partition.blocks, t_dims))
    child_u = build_child(t_dims, restricted, "U")
    child_perp = build_child(p_dims, quotient, "U_perp")

    return SplitResult(
        child_u=child_u,
        child_perp=child_perp,
        u_basis=E,
        perp_basis=Eperp,
        image_bases=tuple(image_bases),
        coimage_bases=tuple(coimage_bases),
        restricted_maps=tuple(restricted),
        quotient_maps=tuple(quotient),
        cross_maps=tuple(cross),
    )


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

    def to_dict(self) -> dict:
        doc: dict = {
            "n": self.datum.n,
            "m": self.datum.m,
            "leaf_kind": self.leaf_kind,
            "constant": self.constant,
        }
        if self.subspace is not None:
            doc["subspace"] = _subspace_to_dict(self.subspace)
        if self.children is not None:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc


def _dim1_constant(datum: Datum) -> float:
    # every map is a nonzero 1x1 scalar here
    return -float(
        sum(cj * math.log(abs(A[0, 0])) for cj, A in zip(datum.c, datum.maps))
    )


def _scan(datum: Datum, budget):
    """One pass over the candidates: the first violating subspace (or
    None), and the proper critical candidates in candidate order."""
    critical = []
    for V in candidate_subspaces(datum, budget):
        sr = slack(datum, V)
        if sr.violating:
            return V, critical
        if sr.critical and 0 < V.dim < datum.n:
            critical.append(V)
    return None, critical


def certify(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> SplitTree:
    """Recursively split along critical subspaces down to base cases.

    Each node above dimension one makes one pass over its candidates and
    splits along the first critical one that splits.  The root must
    balance (ValueError), and a violating candidate of the root raises
    ViolationError.  Below the root, one leaves its node irreducible (an
    infinite constant that no solve converges on).  ``rng`` is accepted
    for compatibility; the candidate search does not use it.
    """
    if abs(scaling_residual(datum)) > RESIDUAL_TOL:
        raise ValueError("certify requires a finite verdict (scaling balance fails)")
    return _certify(datum, budget, root=True)


def _certify(datum: Datum, budget, root: bool = False) -> SplitTree:
    if datum.n == 1:
        return SplitTree(datum=datum, leaf_kind="dim-1", constant=_dim1_constant(datum))
    violating, critical = _scan(datum, budget)
    if violating is not None:
        if root:
            raise ViolationError(violating)
        return SplitTree(datum=datum, leaf_kind="irreducible", constant=None)
    if datum.m == 1 and datum.maps[0].shape[0] == datum.maps[0].shape[1]:
        const = -float(datum.c[0]) * math.log(abs(np.linalg.det(datum.maps[0])))
        return SplitTree(datum=datum, leaf_kind="single-map", constant=const)
    for U in critical:
        try:
            parts = split_datum(datum, U)
        except SplitError:
            continue
        left = _certify(parts.child_u.datum, budget)
        right = _certify(parts.child_perp.datum, budget)
        return SplitTree(datum=datum, subspace=U, children=(left, right))
    return SplitTree(datum=datum, leaf_kind="irreducible", constant=None)


def check_and_certify(
    datum: Datum,
    budget: SearchBudget = SearchBudget(),
    rng: Optional[np.random.Generator] = None,
) -> FinitenessVerdict:
    """Finiteness check followed, on a finite verdict, by certification."""
    verdict = check_finiteness(datum, budget, rng)
    if verdict.status != FINITE:
        return verdict
    return replace(verdict, certificate=certify(datum, budget))
