"""The audit command (tools/audit.py) on a small slice of its sets.

Claims:
    - it runs without raising and writes strict JSON (no NaN or
      Infinity) with every audit set, whose counts add up: the verdicts
      and the raised draws to the draw count, the converged and
      unconverged solves to the finite verdicts
    - the digests are SHA-256 hex strings, and each draw's three output
      digests are kept
    - a file compares equal to itself (exit 0), and a moved count or
      draw digest is named; --compare exits 1 on any moved count or digest
    - each set's wall time and its counts of the matrices passed to
      np.linalg.svd, qr, cholesky, eigh and lstsq go to stderr and not
      into the file, so two runs write byte-identical files; the counts
      are the same on both runs, and every set takes SVDs
    - --compare runs in a fresh interpreter with no PYTHONPATH, as it
      reads the two files only
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "audit.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("audit", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _strict(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _run_slice(audit, out):
    assert audit.main(["slice", "--limit", "3", "--out", str(out)]) == 0
    return (out / "AUDIT_slice.json").read_bytes()


@pytest.fixture(scope="module")
def slice_bytes(audit, tmp_path_factory):
    return _run_slice(audit, tmp_path_factory.mktemp("audit"))


@pytest.fixture(scope="module")
def slice_doc(slice_bytes):
    return _strict(slice_bytes.decode())


def test_every_set_is_audited(audit, slice_doc):
    kinds = [f"wider-{kind}" for kind in ("gaussian", "integer", "zeroed-columns", "row-scaled", "axis")]
    assert list(slice_doc["sets"]) == ["suite", "large", *kinds, "mixed", "truncated"]
    assert slice_doc["label"] == "slice" and slice_doc["limit"] == 3


def test_counts_add_up(slice_doc):
    for name, s in slice_doc["sets"].items():
        assert s["draws"] == 3, name
        assert s["raised"] == len(s["raises"]) == 0, s["raises"]
        assert s["finite"] + s["infinite"] + s["unknown"] + s["raised"] == s["draws"]
        assert s["converged"] + s["not_converged"] == s["finite"]
        for key in ("nan", "false_finite_zero_exponents", "dropped_subroot_violations"):
            assert 0 <= s[key] <= s["draws"]


def test_digests_are_sha256_and_kept_per_draw(audit, slice_doc):
    for s in slice_doc["sets"].values():
        assert set(s["digests"]) == set(audit.OUTPUTS)
        assert all(len(h) == 64 and int(h, 16) >= 0 for h in s["digests"].values())
        assert len(s["draws_digests"]) == s["draws"]
        assert all(len(row) == len(audit.OUTPUTS) for row in s["draws_digests"])


def test_a_slice_compares_equal_to_itself(audit, slice_doc, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(slice_doc))
    assert audit.main(["--compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out == "no difference\n"
    moved = json.loads(json.dumps(slice_doc))
    finite = moved["sets"]["suite"]["finite"]
    moved["sets"]["suite"]["finite"] += 1
    moved["sets"]["suite"]["draws_digests"][1][2] = "0" * 16
    assert audit.compare(slice_doc, moved) == [
        f"suite: finite {finite} -> {finite + 1}",
        "suite: draw 1: solve",
    ]


@pytest.mark.parametrize("key", ["count", "digest"])
def test_compare_exits_1_on_any_difference(audit, slice_doc, key, tmp_path, capsys):
    moved = json.loads(json.dumps(slice_doc))
    if key == "count":
        nan = slice_doc["sets"]["mixed"]["nan"]
        moved["sets"]["mixed"]["nan"] = nan + 1
        expected = f"mixed: nan {nan} -> {nan + 1}\n"
    else:
        moved["sets"]["truncated"]["digests"]["certify"] = "0" * 64
        expected = "truncated: certify digest differs\n"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(slice_doc))
    b.write_text(json.dumps(moved))
    assert audit.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == expected


def _stderr_lines(audit, capsys):
    """(set, seconds, matrix counts by factorization) of each line a run
    printed to stderr."""
    lines = []
    for line in capsys.readouterr().err.splitlines():
        name, rest = line.split(": ", 1)
        seconds, matrices = rest.split(", matrices: ")
        assert seconds.endswith(" s")
        counts = [item.split(" ") for item in matrices.split(", ")]
        assert [factor for _, factor in counts] == list(audit.FACTORIZATIONS)
        lines.append((name, float(seconds[:-2]), {f: int(c) for c, f in counts}))
    return lines


def test_two_runs_write_the_same_bytes_and_report_each_set_on_stderr(
    audit, slice_doc, slice_bytes, tmp_path, capsys
):
    capsys.readouterr()
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        out.mkdir()
        assert _run_slice(audit, out) == slice_bytes
        runs.append(_stderr_lines(audit, capsys))
    for lines in runs:
        assert [name for name, _, _ in lines] == list(slice_doc["sets"])
        assert all(seconds >= 0 and counts["svd"] > 0 for _, seconds, counts in lines)
    assert [counts for _, _, counts in runs[0]] == [counts for _, _, counts in runs[1]]


def test_compare_runs_without_pythonpath(slice_bytes, tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes(slice_bytes)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(_PATH), "--compare", str(path), str(path)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "no difference\n", "")
