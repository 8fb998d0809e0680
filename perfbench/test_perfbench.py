"""Self-tests of the benchmark's trace wiring and result format.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import sys
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import importlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import blepi  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def originals():
    return [
        (getattr(importlib.import_module(f"blepi.{mod}"), name), span)
        for mod, name, span in tracing.TRACED
    ]


def small_families():
    items = workloads.families_items(0)
    keep = {"epi(0.3,1)", "zamir_feder(4x2)"}
    return [it for it in items if it.label in keep] + [
        it for it in items if it.reference[0] == "coupled_sums"
    ][:1]


def test_every_import_of_a_traced_function_is_rebound():
    funcs = [f for f, _ in originals()]
    before = {id(f): tracing.bindings(f) for f in funcs}
    # the names blepi modules import with ``from .x import y``
    for mod, name in [
        ("finiteness", "validate"),
        ("finiteness", "divergence_probe"),
        ("finiteness", "candidate_subspaces"),
        ("finiteness", "slack"),
        ("finiteness", "find_violating_subspace"),
        ("cli", "validate"),
        ("cli", "solve_mg"),
    ]:
        module = importlib.import_module(f"blepi.{mod}")
        assert any(owner is module and attr == name for b in before.values() for owner, attr in b)
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.unwired == []
        for f in funcs:
            assert tracing.bindings(f) == []
            for owner, attr in before[id(f)]:
                assert getattr(owner, attr).__wrapped__ is f
    for f in funcs:
        assert tracing.bindings(f) == before[id(f)]


def test_span_counts_equal_the_calls_made():
    """Every call of a traced function, counted by the profiler on the
    original code object, appears as exactly one span."""
    codes = {
        f.__code__: span
        for f, span in originals()
        if span != "subspace.candidates"  # a generator: counted below
    }
    items = small_families() + workloads.verify_items(0)[1:2]
    profiled: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    tracer = tracing.Tracer()
    with tracer:
        sys.setprofile(profile)
        try:
            fam = workloads.run_pass(workloads.WORKLOADS["families"], items[:3], traced=True)
            ver = workloads.run_pass(workloads.WORKLOADS["verify"], items[3:], traced=True)
        finally:
            sys.setprofile(None)
    summary = tracer.summary()
    spans = Counter({name: agg["calls"] for name, agg in summary.items()})
    del spans["subspace.candidates"]
    assert +spans == +profiled
    assert spans["gauss.solve"] == fam.calls["solve"] == 3
    assert spans["estimate.verify"] == ver.calls["verify"] == 3
    assert summary["gauss.solve"]["notes"] == 3 * blepi.SolverOptions().starts


def test_candidate_count_is_the_number_yielded():
    datum = blepi.make_zamir_feder_datum(np.array([[0.6, 0.8, 0.0]]))
    expected = len(list(blepi.candidate_subspaces(datum, blepi.SearchBudget(), np.random.default_rng(5))))
    tracer = tracing.Tracer()
    with tracer:
        assert blepi.find_violating_subspace(datum, blepi.SearchBudget(), np.random.default_rng(5)) is None
    summary = tracer.summary()
    assert summary["subspace.candidates"]["notes"] == expected
    assert summary["subspace.candidates"]["calls"] == expected + 1  # the exhausting next
    assert summary["subspace.slack"]["calls"] == expected


def test_raising_calls_are_counted_as_errors():
    tracer = tracing.Tracer()
    with tracer:
        with pytest.raises(ValueError):
            blepi.coupled_sums_constant(1.0, 1.2, 0.6)  # infeasible
    assert tracer.summary()["closed_forms.constant"]["errors"] == 1
    assert tracer._stack == []


def test_self_times_and_outcomes_of_a_traced_pass():
    workload = workloads.WORKLOADS["families"]
    items = small_families()
    plain = workloads.run_pass(workload, items)
    tracer = tracing.Tracer()
    with tracer:
        traced = workloads.run_pass(workload, items, traced=True)
    assert traced.outcomes == plain.outcomes
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert sum(own) <= traced.raw_call_s
    assert run.trace_problems([traced], [tracer]) == []
    assert run.repeat_problems([plain, traced]) == []
    names = set(tracer.summary())
    assert not any(n.startswith("estimate.") for n in names)


def test_wide_pipeline_runs_no_solve_and_verify_no_subspace_or_gauss():
    tracer = tracing.Tracer()
    wide_item = workloads.Item("zamir_feder(4x2)", workloads.families_items(0)[-2].datum)
    with tracer:
        workloads.run_pass(workloads.WORKLOADS["wide"], [wide_item], traced=True)
    names = set(tracer.summary())
    assert "gauss.solve" not in names and "gauss.probe" in names
    assert not any(n.startswith("estimate.") for n in names)
    tracer = tracing.Tracer()
    with tracer:
        workloads.run_pass(workloads.WORKLOADS["verify"], workloads.verify_items(0)[1:2], traced=True)
    names = set(tracer.summary())
    assert not any(n.startswith(("subspace.", "gauss.", "finiteness.")) for n in names)


def test_rescale_leaves_out_kernel_runs_inside_a_call():
    sampler = reference.Sampler(during=False)
    nominal = reference.NOMINAL_KERNEL_MS
    # (start, end, kernel ms): one before the call, two inside, one after
    sampler.runs = [(0.0, 0.1, nominal), (1.0, 1.1, 2 * nominal), (2.0, 2.1, 2 * nominal), (3.5, 3.6, 3 * nominal)]
    own, scaled = sampler.rescale(0.5, 3.0)
    assert own == pytest.approx(2.3)
    assert scaled == pytest.approx(2.3 / 2.0)
    own, scaled = sampler.rescale(0.2, 0.4)  # no run inside: the two neighbours
    assert own == pytest.approx(0.2)
    assert scaled == pytest.approx(0.2 / 1.5)


def test_input_hash_is_frozen_in_the_seed():
    for w in workloads.WORKLOADS.values():
        assert workloads.input_hash(w.build(3)) == workloads.input_hash(w.build(3))
        assert workloads.input_hash(w.build(3)) != workloads.input_hash(w.build(4))


def _last_line(capsys, argv):
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    report = json.loads("\n".join(out[:-1]))
    return report, json.loads(out[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(capsys, trace):
    report, result = _last_line(
        capsys, ["--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert report["trace_self_checks"] == "ok"
        assert report["trace_overhead"]["traced_wall_over_untraced_wall"] > 0
        metrics = result["metrics"]
        for absent in ("gauss.probe.calls", "gauss.solve.calls", "subspace.slack.calls"):
            assert metrics[absent]["value"] == 0
        assert metrics["estimate.knn.calls"]["value"] > 0
