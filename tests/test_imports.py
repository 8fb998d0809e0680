"""Import paths: scipy stays out, and every exported name exists.

Claims:
    - a fresh ``import blepi, blepi.cli`` loads no scipy module, and
      neither does the coupled-sums oracle, nor, through the command
      line, ``check`` and ``solve`` on the entropy power datum, the solve
      of a split datum (one covariance per leaf) and of an all-square one
      (-sum_j c_j log|det A_j|), ``check`` on Zamir-Feder 9x4 (finite) and
      13x4 (past the profile cap: unknown, exit 4), and a coupled-sums
      sweep: scipy.optimize is never loaded
    - ``verify`` with the mixture model loads no scipy module: every
      mixture entropy, block or image, is a numpy quadrature
    - every scipy import in the package sits inside
      ``estimate._kth_neighbor_distances`` or ``estimate.knn_entropy``
    - every name in a blepi module's ``__all__`` exists, once, and
      ``from blepi.<module> import *`` binds exactly those names
    - the modules' relative imports, at any depth, form no cycle, and
      the divergence probe is one function, defined in ``subspace`` and
      bound in ``blepi``, ``gauss`` and ``finiteness``
"""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import blepi
from test_cli import _ONE_SPLIT
from test_gauss import _SQUARE_DRAWS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# runs each argv through blepi.cli.main in one fresh process and records,
# after each, the scipy modules loaded so far
_SCRIPT = """
import contextlib, io, json, sys
import blepi, blepi.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules(), "runs": []}
blepi.coupled_sums_bruteforce(1.25, 0.5, 0.5)
seen["oracle"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = blepi.cli.main(argv)
    seen["runs"].append({"code": code, "out": out.getvalue(), "scipy": scipy_modules()})
print(json.dumps(seen))
"""


def _zamir_feder(n):
    Q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((n, 4)))
    return blepi.make_zamir_feder_datum(Q.T)


def test_import_check_and_solve_load_no_scipy(tmp_path):
    data = {
        "epi": blepi.make_epi_datum(0.5, 1),
        "one_split": _ONE_SPLIT,
        "square": _SQUARE_DRAWS["row-scaled-1745"],
        "zf_9x4": _zamir_feder(9),
        "zf_13x4": _zamir_feder(13),
    }
    path = {}
    for name, datum in data.items():
        path[name] = str(tmp_path / f"{name}.json")
        blepi.save(datum, path[name])
    commands = {
        "check": ["check", path["epi"]],
        "solve": ["solve", path["epi"]],
        "verify": ["verify", path["epi"], "--models", "mixture", "--samples", "2000"],
        "split": ["solve", path["one_split"]],
        "square": ["solve", path["square"]],
        "zf_9x4": ["check", path["zf_9x4"]],
        "zf_13x4": ["check", path["zf_13x4"]],
        "sweep": ["closed-form", "coupled-sums", "--sweep-beta", "0.1:0.9:5",
                  "--alpha", "1.25", "--delta", "0.5"],
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(list(commands.values()))],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen["import"] == [] and seen["oracle"] == []
    runs = dict(zip(commands, seen["runs"]))
    assert {name: run["scipy"] for name, run in runs.items()} == {name: [] for name in commands}
    codes = {name: run["code"] for name, run in runs.items()}
    assert codes == dict.fromkeys(commands, 0) | {"zf_13x4": 4}
    out = {name: run["out"] for name, run in runs.items()}
    # every mixture image entropy is a quadrature, never a k-NN estimate
    [report] = json.loads(out["verify"])["reports"]
    images = [t for t in report["terms"] if t["term"].startswith("h(map")]
    assert images and {t["method"] for t in images} == {"quadrature"}
    # a split datum reports one covariance per leaf
    assert isinstance(json.loads(out["split"])["sigma_star"], list)
    # an all-square datum is one explicit leaf: -sum_j c_j log|det A_j|
    doc = json.loads(out["square"])
    square = data["square"]
    M = -sum(cj * np.linalg.slogdet(A)[1] for cj, A in zip(square.c, square.maps))
    assert isinstance(doc["sigma_star"], dict)
    assert abs(doc["mg_value"] - M) <= 1e-12 * (1 + abs(M))
    # 2^9 coordinate members decide; 2^13 are past the profile cap
    assert json.loads(out["zf_9x4"])["status"] == "finite"
    assert json.loads(out["zf_13x4"])["status"] == "unknown"
    lines = out["sweep"].splitlines()
    assert lines[0] == "alpha,beta,delta,feasible,C,D" and len(lines) == 6


def _scipy_import_sites(path: pathlib.Path) -> list[str]:
    """The enclosing function (dotted, or "<module>") of each scipy import
    in a source file."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            else:
                names = []
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


def test_scipy_is_imported_only_by_the_knn_estimator():
    """Every scipy import in the package sits inside one of the two k-NN
    calls README "Install" names, and each of them has one."""
    sites = {
        f"{path.stem}.{site}"
        for path in sorted((SRC / "blepi").glob("*.py"))
        for site in _scipy_import_sites(path)
    }
    assert sites == {"estimate._kth_neighbor_distances", "estimate.knn_entropy"}


_EXPORTING = sorted(
    info.name
    for info in pkgutil.iter_modules(blepi.__path__)
    if hasattr(importlib.import_module(f"blepi.{info.name}"), "__all__")
)


def test_the_library_modules_declare_their_exports():
    assert {"closed_forms", "datum", "estimate", "finiteness", "gauss", "subspace"} <= set(_EXPORTING)


@pytest.mark.parametrize("name", _EXPORTING)
def test_every_exported_name_exists(name):
    exported = importlib.import_module(f"blepi.{name}").__all__
    assert len(set(exported)) == len(exported)
    namespace: dict = {}
    exec(f"from blepi.{name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(exported)


def _relative_imports(path: pathlib.Path) -> set[str]:
    """The blepi modules a source file imports with a relative import,
    at module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x, y
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_the_module_imports_form_no_cycle():
    package = SRC / "blepi"
    graph = {
        path.stem: _relative_imports(path) - {"__init__"}
        for path in package.glob("*.py")
        if path.stem != "__init__"
    }
    assert {"datum", "subspace", "finiteness", "gauss"} <= set(graph)
    # depth-first search; a module met again while on the path closes a cycle
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        for target in sorted(graph[module]):
            visit(target, path + [module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_the_divergence_probe_is_one_function():
    from blepi import finiteness, gauss, subspace

    probe = subspace.divergence_probe
    assert probe.__module__ == "blepi.subspace"
    assert blepi.divergence_probe is gauss.divergence_probe is probe
    assert finiteness.divergence_probe is probe
    assert "divergence_probe" in gauss.__all__
