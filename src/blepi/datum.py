"""Data model for block-partitioned entropy inequality problems.

A datum bundles the four ingredients of an inequality of the form

    sum_i d_i h(X_i)  <=  sum_j c_j h(A_j X) + M,

namely the linear maps ``A_j`` with exponents ``c_j``, and a block
partition ``r = (r_1, ..., r_k)`` of the ambient dimension with exponents
``d_i``.  The classical entropy power inequality, the subadditivity form
of the Brascamp-Lieb inequality, and the Zamir-Feder inequality all fit
this shape; dedicated constructors build each of them, plus the
three-variable "coupled sums" family (X1 + Y, X2 + Y).  ``doubled_datum``
builds the two-copy problem of the doubling trick, whose optimal
constant is twice the one-copy one.

All types are immutable after construction and safe to share across
threads.  Construction is deliberately lenient: semantic problems
(rank deficits, shape mismatches, negative exponents) are reported by
:func:`validate`, never raised, so that files describing broken data can
still be loaded and diagnosed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "Partition",
    "Datum",
    "Issue",
    "ValidationReport",
    "DatumParseError",
    "validate",
    "RESIDUAL_TOL",
    "scaling_residual",
    "make_epi_datum",
    "make_zamir_feder_datum",
    "make_coupled_sums_datum",
    "doubled_datum",
    "save",
    "load",
]

FORMAT_TAG = "blepi-datum/1"


def _orthonormal(M: np.ndarray, atol: float) -> bool:
    """Whether M has orthonormal columns: |M^T M - I| <= atol + 1e-5 I
    entrywise, which is ``np.allclose(M.T @ M, I, atol=atol)`` with its
    default rtol written out.  NaN and inf fail it without a warning."""
    eye = np.eye(M.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(np.all(np.abs(M.T @ M - eye) <= atol + 1e-5 * eye))


def _frozen_array(a, dtype=float, ndim=None) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Partition:
    """Ordered block sizes ``(r_1, ..., r_k)`` of an n-dimensional space."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if len(blocks) < 1:
            raise ValueError("partition needs at least one block")
        if any(b < 1 for b in blocks):
            raise ValueError(f"block sizes must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def offsets(self) -> list[tuple[int, int]]:
        """Half-open index range of each block inside R^n."""
        out, start = [], 0
        for b in self.blocks:
            out.append((start, start + b))
            start += b
        return out


@dataclass(frozen=True)
class Datum:
    """An inequality datum: partition, maps ``A_j``, exponents ``c_j`` and ``d_i``.

    ``maps[j]`` has shape ``(n_j, n)`` and is expected (but not required at
    construction time) to have full row rank; ``c`` has one nonnegative
    entry per map and ``d`` one per partition block.  Run :func:`validate`
    to check the expectations.
    """

    partition: Partition
    maps: tuple[np.ndarray, ...]
    c: np.ndarray
    d: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        maps = tuple(_frozen_array(A, ndim=2) for A in self.maps)
        if len(maps) < 1:
            raise ValueError("need at least one linear map")
        c = _frozen_array(self.c, ndim=1)
        d = _frozen_array(self.d, ndim=1)
        if len(c) != len(maps):
            raise ValueError(f"{len(maps)} maps but {len(c)} c-exponents")
        if len(d) != self.partition.k:
            raise ValueError(f"{self.partition.k} blocks but {len(d)} d-exponents")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def image_dims(self) -> tuple[int, ...]:
        return tuple(A.shape[0] for A in self.maps)

    def __eq__(self, other):
        if not isinstance(other, Datum):
            return NotImplemented
        return (
            self.partition == other.partition
            and len(self.maps) == len(other.maps)
            and all(
                A.shape == B.shape and np.array_equal(A, B)
                for A, B in zip(self.maps, other.maps)
            )
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.d, other.d)
        )

    def __hash__(self):
        return hash((self.partition, tuple(A.shape for A in self.maps)))


class Issue(NamedTuple):
    code: str
    message: str
    location: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[Issue, ...]

    @property
    def ok(self) -> bool:
        return len(self.issues) == 0

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "issues": [
                {"code": i.code, "message": i.message, "location": i.location}
                for i in self.issues
            ],
        }


# every function kept by ``_last_datum``, so tests can empty them all
_SLOTS: list = []


def _last_datum(fn):
    """Keep ``fn``'s result for the last datum it was called on.

    One slot: a call on the same datum object (``is``: the datum's ``==``
    costs an array compare and calls -0.0 and 0.0 equal) with equal
    further arguments returns the result of the call before; a call on
    another datum replaces it.  The slot holds its datum, so that datum's
    id cannot be reused while it is kept.  A raise is never kept.
    ``cache_clear()`` empties the slot.  The slot is one tuple, read and
    replaced whole, so threads that share it at worst compute again.
    """
    slot = None

    @functools.wraps(fn)
    def kept(datum, *args):
        nonlocal slot
        last = slot
        if last is not None and last[0] is datum and last[1] == args:
            return last[2]
        result = fn(datum, *args)
        slot = (datum, args, result)
        return result

    def cache_clear():
        nonlocal slot
        slot = None

    kept.cache_clear = cache_clear
    _SLOTS.append(kept)
    return kept


def validate(datum: Datum) -> ValidationReport:
    """Check every datum invariant and report all violations.

    Checks, per map: column count equals n (DIMENSION_MISMATCH), at least
    one output row (EMPTY_IMAGE), finite entries (NONFINITE_ENTRY), full
    numerical row rank (SURJECTIVITY).  Exponents must be finite
    (NONFINITE_ENTRY) and nonnegative (NEGATIVE_EXPONENT).  Rank uses the
    standard SVD tolerance max(shape) * eps * sigma_max.  The report of
    the last datum object validated is kept and returned again for it.
    """
    return _validate(datum)


# the kept body: ``validate``'s own code object then runs on every call,
# so a profiler counting its calls sees each one (the slot wrapper's code
# object is shared by every slot)
@_last_datum
def _validate(datum: Datum) -> ValidationReport:
    issues: list[Issue] = []
    n = datum.n
    for j, A in enumerate(datum.maps):
        loc = f"maps[{j}]"
        nj = A.shape[0]
        if A.shape[1] != n:
            issues.append(
                Issue(
                    "DIMENSION_MISMATCH",
                    f"map has {A.shape[1]} columns, partition total is {n}",
                    loc,
                )
            )
            continue
        if nj == 0:
            issues.append(Issue("EMPTY_IMAGE", "map has zero output dimension", loc))
            continue
        if not np.all(np.isfinite(A)):
            issues.append(Issue("NONFINITE_ENTRY", "map has non-finite entries", loc))
            continue
        if np.linalg.matrix_rank(A) < nj:
            issues.append(
                Issue(
                    "SURJECTIVITY",
                    f"map has numerical rank < {nj}, not surjective",
                    loc,
                )
            )
    for name, exponents in (("c", datum.c), ("d", datum.d)):
        for j, e in enumerate(exponents):
            loc = f"{name}[{j}]"
            if not math.isfinite(e):
                issues.append(Issue("NONFINITE_ENTRY", f"{loc} = {e} is not finite", loc))
            elif e < 0:
                issues.append(Issue("NEGATIVE_EXPONENT", f"{loc} = {e} < 0", loc))
    return ValidationReport(tuple(issues))


def _unit_rows(datum: Datum) -> tuple[Datum, float]:
    """The datum with each map row divided by its norm, and the shift
    -sum_j c_j sum_k log ||row_jk|| of M, as h(S A X) = h(A X) + log|det S|."""
    norms = [np.hypot.reduce(A, axis=1) for A in datum.maps]  # no over- or underflow
    shift = -sum(cj * sum(map(math.log, s)) for cj, s in zip(datum.c, norms))
    maps = tuple(A / s[:, None] for A, s in zip(datum.maps, norms))
    return replace(datum, maps=maps), float(shift)


RESIDUAL_TOL = 1e-9


def scaling_residual(datum: Datum) -> float:
    """sum_i d_i r_i - sum_j c_j n_j; must vanish for a finite constant."""
    return float(
        np.dot(datum.d, datum.partition.blocks) - np.dot(datum.c, datum.image_dims)
    )


# ---------------------------------------------------------------------------
# constructors for the named families
# ---------------------------------------------------------------------------


def make_epi_datum(lam: float, dim: int) -> Datum:
    """Datum whose optimal constant expresses the entropy power inequality.

    Two independent dim-dimensional blocks with exponents (lam, 1-lam) and
    the single map [sqrt(lam) I | sqrt(1-lam) I] with exponent 1.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in the open interval (0, 1), got {lam}")
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    eye = np.eye(dim)
    A = np.hstack([math.sqrt(lam) * eye, math.sqrt(1.0 - lam) * eye])
    return Datum(
        partition=Partition((dim, dim)),
        maps=(A,),
        c=np.array([1.0]),
        d=np.array([lam, 1.0 - lam]),
        metadata={"family": "epi", "lambda": lam, "dim": dim},
    )


_ZF_ORTHO_TOL = 1e-9


def make_zamir_feder_datum(A) -> Datum:
    """Datum for the Zamir-Feder inequality: h(AX) >= sum_j alpha_j^2 h(X_j).

    Requires orthonormal rows, by the package's one orthonormality test at
    atol = 1e-9: ``A A^T = I`` within 1e-9 off the diagonal and
    1e-9 + 1e-5 on it.  Each coordinate is its own block and the block
    exponent is the squared norm of the matching column of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d matrix")
    if not _orthonormal(A.T, _ZF_ORTHO_TOL):
        raise ValueError("rows of A are not orthonormal (A A^T != I)")
    alpha_sq = np.sum(A * A, axis=0)
    return Datum(
        partition=Partition((1,) * A.shape[1]),
        maps=(A,),
        c=np.array([1.0]),
        d=alpha_sq,
        metadata={"family": "zamir_feder"},
    )


def make_coupled_sums_datum(
    alpha: float, beta: float, delta1: float, delta2: float
) -> Datum:
    """Datum for lower-bounding h(X1 + Y, X2 + Y) with (X1, X2) independent of Y.

    Blocks are the pair (X1, X2) in R^2 with exponent alpha and the scalar
    Y with exponent beta.  The maps are the coupled sum [X1+Y, X2+Y] with
    exponent 1 and the two coordinate projections onto X1 and X2 with
    exponents delta1, delta2.  Maps with zero exponent are retained:
    whether an exponent is zero matters for the finiteness boundary
    analysis, so they are not silently dropped.

    Feasibility of (alpha, beta, delta1, delta2) is a separate question,
    answered by :func:`blepi.closed_forms.coupled_sums_feasible`.
    """
    vals = {"alpha": alpha, "beta": beta, "delta1": delta1, "delta2": delta2}
    for name, v in vals.items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")
    A1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    A2 = np.array([[1.0, 0.0, 0.0]])
    A3 = np.array([[0.0, 1.0, 0.0]])
    return Datum(
        partition=Partition((2, 1)),
        maps=(A1, A2, A3),
        c=np.array([1.0, float(delta1), float(delta2)]),
        d=np.array([float(alpha), float(beta)]),
        metadata={"family": "coupled_sums", **{k: float(v) for k, v in vals.items()}},
    )


def doubled_datum(datum: Datum) -> Datum:
    """The datum of two copies (X_1, X_2) of ``datum``'s inputs.

    Block i becomes the 2r_i-dimensional joint block of the two copies,
    copy 1's r_i coordinates then copy 2's, and each map becomes
    Diag(A_j, A_j) in those coordinates, sending (copy 1, copy 2) to
    (A_j X_1, A_j X_2); c and d are kept.  A covariance of its partition
    is the joint law of a two-copy pair, so the two-copy perturbed
    objective is ``objective_perturbed(doubled_datum(datum), J, p)``.
    """
    eye2 = np.eye(2)
    return Datum(
        partition=Partition(tuple(2 * r for r in datum.partition.blocks)),
        maps=tuple(
            np.hstack([np.kron(eye2, A[:, a:b]) for a, b in datum.partition.offsets()])
            for A in datum.maps
        ),
        c=datum.c,
        d=datum.d,
    )


# ---------------------------------------------------------------------------
# serialization: a single JSON document, matrices row-major with shape
# ---------------------------------------------------------------------------


class DatumParseError(ValueError):
    """Raised when a datum file is syntactically or structurally malformed."""


def datum_to_dict(datum: Datum) -> dict:
    return {
        "format": FORMAT_TAG,
        "partition": list(datum.partition.blocks),
        "maps": [
            {"shape": list(A.shape), "data": [float(x) for x in A.ravel(order="C")]}
            for A in datum.maps
        ],
        "c": [float(x) for x in datum.c],
        "d": [float(x) for x in datum.d],
        "metadata": datum.metadata,
    }


def _whole_numbers(value) -> tuple[int, ...]:
    """A JSON list of whole numbers (2 or 2.0) as ints; a bool, a string
    or a fractional entry raises ValueError instead of being truncated."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of sizes, got {type(value).__name__}")
    for x in value:  # type(True) is bool, not int
        if type(x) is not int and not (type(x) is float and x.is_integer()):
            raise ValueError(f"size {x!r} is not a whole number")
    return tuple(int(x) for x in value)


def _numbers(value, name: str) -> np.ndarray:
    """A JSON list of numbers (ints or floats) as a float array; a bool or
    a string entry raises ValueError instead of being read as 1, 0 or its
    digits, and so does an int past the float range."""
    if not isinstance(value, list):
        raise ValueError(f"'{name}' must be a list of numbers, got {type(value).__name__}")
    for x in value:  # type(True) is bool, not int
        if type(x) is not int and type(x) is not float:
            raise ValueError(f"'{name}' entry {x!r} is not a number")
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"'{name}' entry out of the float range: {exc}") from exc


def datum_from_dict(doc: dict) -> Datum:
    if not isinstance(doc, dict):
        raise DatumParseError("top-level document must be an object")
    for key in ("partition", "maps", "c", "d"):
        if key not in doc:
            raise DatumParseError(f"missing required field '{key}'")
    try:
        partition = Partition(_whole_numbers(doc["partition"]))
    except (TypeError, ValueError) as exc:
        raise DatumParseError(f"bad 'partition' field: {exc}") from exc
    if not isinstance(doc["maps"], list):
        raise DatumParseError(f"'maps' must be a list, got {type(doc['maps']).__name__}")
    maps = []
    for j, entry in enumerate(doc["maps"]):
        try:
            rows, cols = _whole_numbers(entry["shape"])
            if rows < 0 or cols < 0:  # reshape would read -1 as "the rest"
                raise ValueError(f"shape {[rows, cols]} has a negative size")
            maps.append(_numbers(entry["data"], "data").reshape(rows, cols))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatumParseError(f"bad 'maps[{j}]' entry: {exc}") from exc
    try:
        c = _numbers(doc["c"], "c")
        d = _numbers(doc["d"], "d")
    except ValueError as exc:
        raise DatumParseError(f"bad exponent list: {exc}") from exc
    try:
        return Datum(
            partition=partition,
            maps=tuple(maps),
            c=c,
            d=d,
            metadata=doc.get("metadata", {}),
        )
    except ValueError as exc:
        raise DatumParseError(str(exc)) from exc


def save(datum: Datum, path) -> None:
    """Write a datum as a human-diffable JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(datum_to_dict(datum), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path) -> Datum:
    """Read a datum file.  Parse problems raise :class:`DatumParseError`;
    semantic problems (negative exponents, rank deficits) do not -- run
    :func:`validate` on the result to collect those."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatumParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return datum_from_dict(doc)
