"""Benchmark of blepi's check, certify, solve and verify paths.

Run from the repository root:

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0

One process, single-threaded BLAS, one client in a closed loop: the
workload's input list, generated from ``--seed``, goes through the
library in passes until the next pass would overrun ``--seconds`` (at
least one pass).  The program's own randomness is that of its CLI at the
default seed.  Every output is checked against a reference; a failed
check or a raising call is counted, never dropped.  The full report is
printed first; the last line of stdout is the JSON result.

``--trace 0`` gives the end-to-end metrics.  ``wall_s`` is the median
over the run's passes of one pass's library calls, each rescaled to the
reference host speed by the runs of the fixed kernel of ``reference.py``
inside it and just before and after it; other tenants slow the host by
tens of percent for seconds to minutes at a time, and the rescaling
keeps that out of the figure.  The
untraced passes' times as measured are in the report.  ``setup_s`` is
the median over fresh processes of importing blepi and building the
inputs, each rescaled in the same way by a reference process.  ``--trace 1`` alternates untraced and traced
passes, gives the per-layer metrics, checks the trace wiring on its own
passes and writes the spans under ``.perfbench/``.

Workloads: families, wide and verify, which ``BENCHMARK.json`` names, and
random, whose crashing and contradicting draws are kept (see
``workloads.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# names the metrics of the result line: end_to_end untraced, per_layer traced
DECLARED = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# per-call latencies in the report; a tail is given for the last three
REPORTED = ("certify", "oracle", "check", "solve", "verify")
TAILED = REPORTED[2:]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the library calls whose latency is reported, and the span each call opens
CALL_SPANS = {
    "validate": "datum.validate",
    "constant": "closed_forms.constant",
    "check": "finiteness.check",
    "certify": "finiteness.certify",
    "solve": "gauss.solve",
    "oracle": "closed_forms.bruteforce",
    "verify": "estimate.verify",
}

# per-layer metrics are named "<span>.<statistic>" in BENCHMARK.json;
# the statistic's name -> what it reads from the span's per-pass summary
LAYER_STATISTICS = {
    "calls": "calls",
    "self_s": "self_s",
    "failed": "errors",
    # the span's integer notes: candidates yielded, starts used, points queried
    "count": "notes",
    "starts_used": "notes",
    "points": "notes",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


# ---------------------------------------------------------------------------
# set-up and environment
# ---------------------------------------------------------------------------


def setup_seconds(args) -> tuple[float, dict]:
    """Median over fresh processes that import blepi and build the inputs
    of their wall time, each rescaled by the reference processes just
    before and after it (see reference.py); and the times as measured."""
    import reference

    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    raw, refs = [], [reference.spawn_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        refs.append(reference.spawn_s())
    scaled = [s * reference.NOMINAL_SPAWN_S * 2 / (a + b) for s, a, b in zip(raw, refs, refs[1:])]
    return statistics.median(scaled), {"setup_s": raw, "reference_s": refs}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _proc_field(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "process_threads": _proc_field("/proc/self/status", "Threads"),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]):
    """Highest ladder percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return {"value": float(np.percentile(values, pct)), "percentile": pct, "samples": n}
    return None


def share(num: int, den: int):
    return num / den if den else None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(workload, items, seconds: float, traced: bool):
    """Run passes until the next one would overrun ``seconds``.

    With ``traced`` every cycle is an untraced pass followed by a traced
    one; returns the untraced passes, the traced passes and their tracers.
    """
    import tracing
    from workloads import run_pass

    plain, traced_passes, tracers = [], [], []
    t0 = time.perf_counter()
    while True:
        res = run_pass(workload, items)
        plain.append(res)
        cycle = res.wall_s
        if traced:
            tracer = tracing.Tracer()
            with tracer:
                tres = run_pass(workload, items, traced=True)
            traced_passes.append(tres)
            tracers.append(tracer)
            cycle += tres.wall_s
        if time.perf_counter() - t0 + cycle > seconds:
            return plain, traced_passes, tracers


def datum_ms(passes) -> list[list[float]]:
    """Per datum, its time in each pass: the sum of its calls."""
    return [[sum(ms for _, ms in calls) for calls in datums] for datums in zip(*(r.call_ms for r in passes))]


def end_to_end(passes, setup_s: float) -> dict:
    lat: dict[str, list[float]] = {}
    for r in passes:
        for kind, ms in itertools.chain.from_iterable(r.call_ms):
            lat.setdefault(kind, []).append(ms)
    attempted = sum(r.attempted for r in passes)
    solves = sum(r.solves for r in passes)
    m: dict = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r.pass_s for r in passes), "unit": "s", "samples": len(passes)},
        "datum_ms.p50": {
            "value": statistics.median(itertools.chain.from_iterable(datum_ms(passes))),
            "unit": "ms",
        },
    }
    for kind in REPORTED:
        values = lat.get(kind)
        if not values:
            continue
        m[f"{kind}_ms.p50"] = {"value": statistics.median(values), "unit": "ms", "samples": len(values)}
        t = tail(values) if kind in TAILED else None
        if t:
            m[f"{kind}_ms.tail"] = {**t, "unit": "ms"}
    m["failed_share"] = {"value": share(sum(r.failed for r in passes), attempted), "unit": "ratio"}
    m["wrong_share"] = {
        "value": share(sum(r.wrong for r in passes), sum(r.checked for r in passes)),
        "unit": "ratio",
    }
    if solves:
        m["unconverged_share"] = {
            "value": share(sum(r.unconverged for r in passes), solves),
            "unit": "ratio",
        }
    m["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return m


def per_layer(declared, passes, tracers) -> tuple[dict, dict]:
    """Per-pass means over the traced passes of the ``declared`` per-layer
    metrics, and the full per-span summary for the report."""
    import tracing

    names = sorted({span for _, _, span in tracing.TRACED})
    sums = {name: {"calls": 0.0, "self_s": 0.0, "notes": 0.0, "errors": 0.0} for name in names}
    calls_s = sum(r.raw_call_s for r in passes)
    for tracer in tracers:
        for name, agg in tracer.summary().items():
            for key, value in agg.items():
                sums[name][key] += value
    k = len(tracers)
    per_pass = {name: {key: v / k for key, v in agg.items()} for name, agg in sums.items()}
    split = per_pass["finiteness.split"]
    candidates = per_pass["subspace.candidates"]["notes"]
    useful = per_pass["subspace.search"]["notes"] + split["calls"] - split["errors"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name == "subspace.useful_ratio":
            value = useful / candidates if candidates else 0.0
        else:
            span, stat = name.rsplit(".", 1)
            value = per_pass[span][LAYER_STATISTICS[stat]]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    self_pct = {name: 100.0 * agg["self_s"] / calls_s for name, agg in sums.items()}
    return metrics, {"per_pass": per_pass, "self_pct_of_traced_calls": self_pct}


def repeat_problems(passes) -> list[str]:
    """Every pass must give the same outputs: the program is deterministic
    in its inputs, and per-datum times pair data across passes."""
    if any(r.outcomes != passes[0].outcomes for r in passes[1:]):
        return ["outcomes differ between passes"]
    return []


def trace_problems(traced, tracers) -> list[str]:
    """Self-checks of the trace wiring on this run's own traced passes."""
    import tracing

    problems = []
    for res, tracer in zip(traced, tracers):
        for owner, attr in tracer.unwired:
            problems.append(f"{owner.__name__}.{attr} was not rebound to its wrapper")
        roots: dict[str, int] = {}
        for span in tracer.spans:
            if span[tracing.PARENT] < 0:
                roots[span[tracing.NAME]] = roots.get(span[tracing.NAME], 0) + 1
        expected: dict[str, int] = {}
        for kind, count in res.calls.items():
            expected[CALL_SPANS[kind]] = expected.get(CALL_SPANS[kind], 0) + count
        if roots != expected:
            problems.append(f"root spans {roots} do not match the calls made {expected}")
        own = tracer.self_times()
        if min(own, default=0.0) < -1e-9:
            problems.append(f"negative self time {min(own):.3g} s")
        if sum(own) > res.raw_call_s:
            problems.append(f"self times sum to {sum(own):.6f} s > calls {res.raw_call_s:.6f} s")
    return problems


def write_spans(args, tracers) -> Path:
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["pass", "name", "start", "end", "parent", "op", "note", "error"]}) + "\n")
        for k, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps([k, *s[: tracing.ERROR + 1]]) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads OpenBLAS
    if not (SRC / "blepi" / "__init__.py").is_file():
        return fail(f"no blepi sources at {SRC.relative_to(ROOT)}/blepi; run from a checkout")
    if not DECLARED.is_file():
        return fail(f"no {DECLARED.name} at the checkout root")
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import warnings

    import blepi
    import workloads

    if Path(blepi.__file__).resolve().parent != SRC / "blepi":
        return fail(f"imported blepi from {blepi.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    items = workload.build(args.seed)
    digest = workloads.input_hash(items)
    if args.setup_only:
        return 0

    setup_s, setup_measured = setup_seconds(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numerical warnings from ill-conditioned draws
        plain, traced, tracers = measure(workload, items, args.seconds, bool(args.trace))
    passes = plain + traced
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"items": len(items), "sha256": digest, "labels": [it.label for it in items]},
        "setup_as_measured": setup_measured,
        "passes": {
            "untraced_pass_s": [r.pass_s for r in plain],
            "untraced_raw_call_s": [r.raw_call_s for r in plain],
            "traced_pass_s": [r.pass_s for r in traced],
            "reference_kernel_ms": [statistics.median(r.reference_ms) for r in passes],
            "median_datum_ms": {
                it.label: statistics.median(ms) for it, ms in zip(items, datum_ms(plain))
            },
        },
        "environment": environment(),
        "end_to_end": end_to_end(plain, setup_s),
    }
    wrong = sum(r.wrong for r in passes)
    problems = sorted({p for r in passes for p in r.problems})
    inconsistent = repeat_problems(passes)
    report["repeat_self_check"] = inconsistent or "ok"
    if args.trace:
        layer_metrics, layer_detail = per_layer(declared["per_layer"], traced, tracers)
        wiring = trace_problems(traced, tracers)
        overhead = statistics.median(r.pass_s for r in traced) / statistics.median(r.pass_s for r in plain)
        report.update(
            per_layer=layer_metrics,
            per_layer_detail=layer_detail,
            trace_overhead={"traced_wall_over_untraced_wall": overhead},
            trace_self_checks=wiring or "ok",
            spans_file=str(write_spans(args, tracers).relative_to(ROOT)),
        )
        metrics = layer_metrics
        correct = wrong == 0 and not wiring and not inconsistent
    else:
        e2e = report["end_to_end"]
        metrics = {m["name"]: e2e[m["name"]] for m in declared["end_to_end"]}
        correct = wrong == 0 and not inconsistent
    report["problems"] = problems[:40]
    print(json.dumps(report, indent=1, default=str))
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
