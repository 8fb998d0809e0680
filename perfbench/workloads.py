"""Seeded inputs, the calls each datum goes through, and reference checks.

Every library call goes through the ``blepi`` package namespace at call
time, so a tracer installed by ``tracing.Tracer`` sees it.  Reference
checks use functions bound here at import, before any tracer is
installed, so they are never traced or timed as part of a call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import blepi
import reference
from blepi import estimate
from blepi.datum import Datum, Partition
from blepi.finiteness import FINITE, INFINITE, RESIDUAL_TOL, ScalingResidual, ViolatingSubspace
from blepi.finiteness import scaling_residual as reference_residual
from blepi.subspace import slack as reference_slack

MG_TOL = 1e-6          # solver value against the closed form
ORACLE_TOL = 1e-4      # brute-force oracle against the closed form
VERIFY_SAMPLES = 50_000
VERIFY_K = 3
VERIFY_MODELS = (estimate.uniform_model, estimate.laplace_model, estimate.mixture_model)
CS_BOUNDARY = (1.0, 0.8, 0.4)   # alpha = 1, rho = 1: the solve stalls here
RANDOM_DRAWS = 40
RANDOM_MAX_N = 6                # ambient dimension of a random datum, as in the ROADMAP recipe
RANDOM_UNBALANCED_EVERY = 5     # every fifth draw skips the scaling balance


@dataclass(frozen=True)
class Item:
    """One datum and what its reference is.

    ``reference`` is ("epi", lam, dim), ("coupled_sums", alpha, beta, delta),
    ("zero",) for Zamir-Feder, or None where no value is checked.
    """

    label: str
    datum: Datum
    reference: Optional[tuple] = None


# ---------------------------------------------------------------------------
# input generation (deterministic in the seed)
# ---------------------------------------------------------------------------


def _zamir_feder(rng: np.random.Generator, n: int, k: int) -> Datum:
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return blepi.make_zamir_feder_datum(Q[:, :k].T)


def _coupled_sums_interior(rng: np.random.Generator) -> tuple[float, float, float]:
    """Feasible (alpha, beta, delta): balance exact, 0 < beta < min(1, 2 delta)."""
    delta = rng.uniform(0.3, 1.0)
    beta = rng.uniform(0.1, min(0.9, 1.9 * delta))
    return 1.0 + delta - beta / 2.0, beta, delta


def _coupled_sums_item(params: tuple[float, float, float]) -> Item:
    a, b, dl = params
    return Item(
        f"coupled_sums({a:.4f},{b:.4f},{dl:.4f})",
        blepi.make_coupled_sums_datum(a, b, dl, dl),
        ("coupled_sums", a, b, dl),
    )


def random_datum(rng: np.random.Generator, balanced: bool = False) -> Datum:
    """Generic datum: up to 3 blocks of width <= 2, 1-3 full-row-rank Gaussian
    maps.  With ``balanced`` the c exponents are rescaled so the total
    scaling balance holds exactly."""
    while True:
        k = int(rng.integers(1, 4))
        part = Partition(tuple(int(rng.integers(1, 3)) for _ in range(k)))
        if part.n <= RANDOM_MAX_N:
            break
    n = part.n
    maps = []
    for _ in range(int(rng.integers(1, 4))):
        nj = int(rng.integers(1, n + 1))
        while True:
            A = rng.standard_normal((nj, n))
            if np.linalg.matrix_rank(A) == nj:
                break
        maps.append(A)
    c = rng.uniform(0.2, 1.5, len(maps))
    d = rng.uniform(0.2, 1.5, part.k)
    if balanced:
        image_total = sum(cj * A.shape[0] for cj, A in zip(c, maps))
        c = c * (float(np.dot(d, part.blocks)) / image_total)
    return Datum(partition=part, maps=tuple(maps), c=c, d=d)


def families_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    items = [
        Item(f"epi({lam},{dim})", blepi.make_epi_datum(lam, dim), ("epi", lam, dim))
        for lam, dim in ((0.3, 1), (0.5, 2), (0.3, 3))
    ]
    items += [_coupled_sums_item(_coupled_sums_interior(rng)) for _ in range(3)]
    items.append(_coupled_sums_item(CS_BOUNDARY))
    items += [
        Item(f"zamir_feder({n}x{k})", _zamir_feder(rng, n, k), ("zero",))
        for n, k in ((4, 2), (6, 3))
    ]
    return items


def wide_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    return [
        Item(f"zamir_feder({n}x{k})", _zamir_feder(rng, n, k))
        for n, k in ((8, 3), (9, 4))
    ]


def random_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 3])
    items = []
    for i in range(RANDOM_DRAWS):
        balanced = (i + 1) % RANDOM_UNBALANCED_EVERY != 0
        items.append(
            Item(f"draw{i}{'' if balanced else '-unbalanced'}", random_datum(rng, balanced=balanced))
        )
    return items


def verify_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 4])
    lam = float(rng.uniform(0.2, 0.8))
    return [
        _coupled_sums_item(_coupled_sums_interior(rng)),
        Item(f"epi({lam:.4f},2)", blepi.make_epi_datum(lam, 2), ("epi", lam, 2)),
        Item("zamir_feder(5x2)", _zamir_feder(rng, 5, 2), ("zero",)),
    ]


def input_hash(items: list[Item]) -> str:
    """SHA-256 over the exact bits of every datum, in order."""
    h = hashlib.sha256()
    for item in items:
        d = item.datum
        doc = {
            "label": item.label,
            "blocks": d.partition.blocks,
            "maps": [[[x.hex() for x in row] for row in A.tolist()] for A in d.maps],
            "c": [x.hex() for x in d.c.tolist()],
            "d": [x.hex() for x in d.d.tolist()],
            "reference": item.reference,
        }
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one pass: every item through its calls, timed, then checked
# ---------------------------------------------------------------------------


def cli_rng(stream: int) -> np.random.Generator:
    """The generator `blepi check` (stream 0) and `blepi verify` (stream 1)
    use at their default --seed 0.  The program's own randomness is fixed;
    the benchmark's seed only chooses the data."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(0, spawn_key=(stream,))))


@dataclass
class PassResult:
    wall_s: float = 0.0       # elapsed, reference-kernel runs included
    raw_call_s: float = 0.0   # the library calls as timed, not rescaled
    # per datum, its library calls in order as (kind, milliseconds at the
    # reference host speed; see reference.py)
    call_ms: list[list[tuple[str, float]]] = field(default_factory=list)
    reference_ms: list[float] = field(default_factory=list)
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    solves: int = 0           # solve attempts on data whose verdict is not infinite
    unconverged: int = 0      # of those, neither converged nor unbounded
    outcomes: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def calls(self) -> Counter:
        return Counter(kind for datum in self.call_ms for kind, _ in datum)

    @property
    def attempted(self) -> int:
        return sum(len(datum) for datum in self.call_ms)

    @property
    def pass_s(self) -> float:
        """The pass's library calls at the reference host speed."""
        return sum(ms for datum in self.call_ms for _, ms in datum) / 1e3


_FAILED = object()


class _Pass:
    def __init__(self, traced: bool):
        self.res = PassResult()
        # a traced pass runs the kernel only between calls, so that its
        # spans hold library time only
        self.sampler = reference.Sampler(during=not traced)
        # per datum, its calls as (kind, start, end)
        self._timed: list[list[tuple[str, float, float]]] = []
        self._datum: list[tuple[str, float, float]] = []

    def call(self, kind: str, label: str, fn: Callable, *args, **kwargs):
        """Time one library call; a raise counts as a failure, never aborts."""
        r = self.res
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a crash on a valid datum is a measured outcome
            out = _FAILED
            r.failed += 1
            r.problems.append(f"{label}: {kind} raised {type(exc).__name__}: {exc}"[:200])
        self._datum.append((kind, t0, time.perf_counter()))
        self.sampler.between_calls()
        return out

    def finish(self) -> PassResult:
        r = self.res
        for datum in self._timed:
            calls = []
            for kind, t0, t1 in datum:
                own_s, scaled_s = self.sampler.rescale(t0, t1)
                r.raw_call_s += own_s
                calls.append((kind, 1e3 * scaled_s))
            r.call_ms.append(calls)
        r.reference_ms = [ms for _, _, ms in self.sampler.runs]
        return r

    def check(self, ok: bool, label: str, what: str) -> None:
        self.res.checked += 1
        if not ok:
            self.res.wrong += 1
            self.res.problems.append(f"{label}: {what}")

    def end_datum(self, outcome: list) -> None:
        self._timed.append(self._datum)
        self.res.outcomes.append(outcome)
        self._datum = []


def _reference_value(p: _Pass, item: Item):
    kind = item.reference[0]
    if kind == "zero":
        return 0.0
    if kind == "epi":
        return p.call("constant", item.label, blepi.epi_mg, item.reference[1], item.reference[2])
    out = p.call("constant", item.label, blepi.coupled_sums_constant, *item.reference[1:])
    return out if out is _FAILED else out[0]


def _validate(p: _Pass, item: Item) -> bool:
    report = p.call("validate", item.label, blepi.validate, item.datum)
    ok = report is not _FAILED and report.ok
    p.check(ok, item.label, "generated datum does not validate")
    return ok


def _solve_digest(res) -> list:
    return [repr(res.mg_value), res.converged, res.unbounded, res.starts_used, repr(res.gradient_norm)]


def _verdict_digest(v) -> list:
    w = v.witness
    if isinstance(w, ScalingResidual):
        return [v.status, "residual", repr(w.value)]
    if isinstance(w, ViolatingSubspace):
        return [v.status, "subspace", repr(w.slack)]
    return [v.status, None]


def _tree_digest(tree) -> list:
    return [(leaf.leaf_kind, repr(leaf.constant), leaf.datum.n) for leaf in tree.leaves()]


def _families(p: _Pass, item: Item) -> list:
    d, label = item.datum, item.label
    if not _validate(p, item):
        return ["invalid"]
    ref = _reference_value(p, item)
    verdict = p.call("check", label, blepi.check_finiteness, d, rng=cli_rng(0))
    outcome: list = ["failed" if verdict is _FAILED else _verdict_digest(verdict)]
    if verdict is not _FAILED:
        p.check(verdict.status == FINITE, label, f"verdict {verdict.status}, expected finite")
        if verdict.status == FINITE:
            tree = p.call("certify", label, blepi.certify, d, rng=cli_rng(0))
            outcome.append("failed" if tree is _FAILED else _tree_digest(tree))
    res = p.call("solve", label, blepi.solve_mg, d, blepi.SolverOptions())
    p.res.solves += 1
    if res is _FAILED:
        outcome.append("failed")
    else:
        outcome.append(_solve_digest(res))
        p.res.unconverged += not (res.converged or res.unbounded)
        if ref is not _FAILED:
            err = abs(res.mg_value - ref)
            p.check(
                not res.unbounded and err <= MG_TOL,
                label,
                f"mg_value {res.mg_value!r} is {err:.3g} from the closed form {ref!r}",
            )
    if item.reference[0] == "coupled_sums":
        bf = p.call("oracle", label, blepi.coupled_sums_bruteforce, *item.reference[1:])
        outcome.append("failed" if bf is _FAILED else repr(bf))
        if bf is not _FAILED and ref is not _FAILED:
            p.check(abs(bf - ref) <= ORACLE_TOL, label, f"oracle {bf!r} vs closed form {ref!r}")
    return outcome


def _wide(p: _Pass, item: Item) -> list:
    if not _validate(p, item):
        return ["invalid"]
    verdict = p.call("check", item.label, blepi.check_finiteness, item.datum, rng=cli_rng(0))
    if verdict is _FAILED:
        return ["failed"]
    p.check(verdict.status == FINITE, item.label, f"verdict {verdict.status}, expected finite")
    outcome = [_verdict_digest(verdict)]
    if verdict.status == FINITE:
        tree = p.call("certify", item.label, blepi.certify, item.datum, rng=cli_rng(0))
        outcome.append("failed" if tree is _FAILED else _tree_digest(tree))
    return outcome


def _witness_holds(d: Datum, w) -> bool:
    if isinstance(w, ScalingResidual):
        return abs(reference_residual(d)) > RESIDUAL_TOL and reference_residual(d) == w.value
    recomputed = reference_slack(d, w.subspace)
    return recomputed.violating and math.isclose(recomputed.slack, w.slack, abs_tol=1e-9)


def _random(p: _Pass, item: Item) -> list:
    d, label = item.datum, item.label
    if not _validate(p, item):
        return ["invalid"]
    # check and solve run independently, as `blepi check` and `blepi solve` would
    verdict = p.call("check", label, blepi.check_finiteness, d, rng=cli_rng(0))
    res = p.call("solve", label, blepi.solve_mg, d, blepi.SolverOptions())
    outcome = [
        "failed" if verdict is _FAILED else _verdict_digest(verdict),
        "failed" if res is _FAILED else _solve_digest(res),
    ]
    if verdict is _FAILED:
        return outcome
    if verdict.status == INFINITE:
        p.check(_witness_holds(d, verdict.witness), label, "infinite witness does not re-check")
        if res is not _FAILED:
            p.check(
                res.unbounded,
                label,
                f"solve returns finite mg_value {res.mg_value!r} on a witnessed infinite datum",
            )
        return outcome
    p.res.solves += 1
    if res is not _FAILED:
        p.res.unconverged += not (res.converged or res.unbounded)
    return outcome


def _verify(p: _Pass, item: Item) -> list:
    if not _validate(p, item):
        return ["invalid"]
    mg = _reference_value(p, item)
    if mg is _FAILED:
        return ["failed"]
    outcome = []
    for build in VERIFY_MODELS:
        model = build(item.datum.partition)
        reports = p.call(
            "verify",
            item.label,
            blepi.verify_inequality,
            item.datum,
            [model],
            mg,
            n_samples=VERIFY_SAMPLES,
            k=VERIFY_K,
            rng=cli_rng(1),
        )
        if reports is _FAILED:
            outcome.append("failed")
            continue
        rep = reports[0]
        outcome.append([rep.model, repr(rep.margin), repr(rep.z_score), rep.passed])
        p.check(rep.passed, item.label, f"{rep.model} report fails (z = {rep.z_score:.3g})")
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Item]]
    run_item: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "families",
            "named families with closed forms: check, certify, solve and the brute-force oracle",
            families_items,
            _families,
        ),
        Workload(
            "wide",
            "Zamir-Feder with 8-9 scalar blocks: candidate enumeration and slack dominate",
            wide_items,
            _wide,
        ),
        Workload(
            "random",
            "generic seeded data: ill-conditioned and infinite draws drive the solver",
            random_items,
            _random,
        ),
        Workload(
            "verify",
            "Monte Carlo verification against closed forms: k-NN entropy dominates",
            verify_items,
            _verify,
        ),
    )
}


def run_pass(workload: Workload, items: list[Item], traced: bool = False) -> PassResult:
    """One pass over ``items``; ``traced`` when a tracer is installed."""
    t0 = time.perf_counter()
    p = _Pass(traced)
    with p.sampler:
        for item in items:
            p.end_datum(workload.run_item(p, item))
    res = p.finish()
    res.wall_s = time.perf_counter() - t0
    return res
