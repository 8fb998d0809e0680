"""In-memory span tracing of blepi's public functions, from outside the package.

``Tracer.install`` wraps the traced functions of each blepi module and
rebinds every wrapper wherever the original is bound, so calls made
through ``from .x import y`` names inside the package are traced too.
Each span records its name, start, end, parent span, operation id and an
integer note (candidates yielded, points queried, starts used, ...).
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

import blepi

# (module, function, span name); the span name is "<layer>.<operation>"
TRACED = (
    ("datum", "validate", "datum.validate"),
    ("subspace", "candidate_subspaces", "subspace.candidates"),
    ("subspace", "slack", "subspace.slack"),
    ("subspace", "find_violating_subspace", "subspace.search"),
    ("finiteness", "check_finiteness", "finiteness.check"),
    ("finiteness", "certify", "finiteness.certify"),
    ("finiteness", "split_datum", "finiteness.split"),
    ("gauss", "divergence_probe", "gauss.probe"),
    ("gauss", "ray_covariance", "gauss.ray_covariance"),
    ("gauss", "objective", "gauss.objective"),
    ("gauss", "solve_mg", "gauss.solve"),
    ("closed_forms", "coupled_sums_bruteforce", "closed_forms.bruteforce"),
    ("closed_forms", "coupled_sums_constant", "closed_forms.constant"),
    ("closed_forms", "epi_mg", "closed_forms.constant"),
    ("estimate", "sample", "estimate.sample"),
    ("estimate", "knn_entropy", "estimate.knn"),
    ("estimate", "exact_entropy", "estimate.exact_entropy"),
    ("estimate", "verify_inequality", "estimate.verify"),
)

# span fields, stored as lists for speed: name, start, end, parent, op, note, error
NAME, START, END, PARENT, OP, NOTE, ERROR = range(7)


def blepi_modules() -> list:
    """The blepi package and every one of its submodules, imported."""
    mods = [blepi]
    for info in pkgutil.iter_modules(blepi.__path__):
        mods.append(importlib.import_module(f"blepi.{info.name}"))
    return mods


def bindings(func) -> list[tuple[object, str]]:
    """Every (module, attribute) of blepi that is bound to ``func``."""
    return [
        (mod, attr)
        for mod in blepi_modules()
        for attr, value in vars(mod).items()
        if value is func
    ]


def _note_for(name: str, args, kwargs, result) -> int:
    if name == "gauss.solve":
        return result.starts_used
    if name == "estimate.knn":
        return len(args[0] if args else kwargs["samples"])
    if name == "subspace.search":
        return int(result is not None)
    return 1


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0
        self._saved: list[tuple[object, str, object]] = []
        self.unwired: list[tuple[object, str]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        if not self._stack:
            self._ops += 1
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._ops, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                tracer._close(span)
                raise
            tracer._close(span)
            span[NOTE] = _note_for(name, args, kwargs, result)
            return result

        return traced

    def _wrap_iterator(self, name: str, func):
        tracer = self

        # one span per ``next``; note is 1 when the call yielded a value
        @functools.wraps(func)
        def traced(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    value = next(it)
                except StopIteration:
                    tracer._close(span)
                    return
                except BaseException:
                    span[ERROR] = True
                    tracer._close(span)
                    raise
                tracer._close(span)
                span[NOTE] = 1
                yield value

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind it across blepi."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = []
        for module, func_name, span_name in TRACED:
            original = getattr(importlib.import_module(f"blepi.{module}"), func_name)
            wrap = self._wrap_iterator if span_name == "subspace.candidates" else self._wrap
            wrapper = wrap(span_name, original)
            for owner, attr in bindings(original):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            originals.append(original)
        # bindings that still reach an original; empty when the wiring is complete
        self.unwired = [binding for original in originals for binding in bindings(original)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the durations of its children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time, summed notes, errors."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(
                span[NAME], {"calls": 0, "self_s": 0.0, "notes": 0, "errors": 0}
            )
            agg["calls"] += 1
            agg["self_s"] += own
            agg["notes"] += span[NOTE]
            agg["errors"] += span[ERROR]
        return out
