"""Import paths: scipy stays out, and every exported name exists.

Claims:
    - a fresh ``import blepi, blepi.cli`` loads no scipy module, and
      neither do ``check`` and ``solve`` on the entropy power datum, nor
      the coupled-sums oracle after them: scipy.optimize is never loaded
    - ``verify`` with the mixture model loads no scipy module: every
      mixture entropy, block or image, is a numpy quadrature
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

import pytest

import blepi

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import contextlib, io, json, sys
import blepi, blepi.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules(), "codes": []}
with contextlib.redirect_stdout(io.StringIO()):
    for cmd in ("check", "solve"):
        seen["codes"].append(blepi.cli.main([cmd, sys.argv[1]]))
seen["cli"] = scipy_modules()
blepi.coupled_sums_bruteforce(1.25, 0.5, 0.5)
seen["oracle"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    seen["codes"].append(
        blepi.cli.main(["verify", sys.argv[1], "--models", "mixture", "--samples", "2000"])
    )
seen["verify"] = scipy_modules()
print(json.dumps(seen))
"""


def test_import_check_and_solve_load_no_scipy(tmp_path):
    path = tmp_path / "epi.json"
    blepi.save(blepi.make_epi_datum(0.5, 1), path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert seen["codes"] == [0, 0, 0]
    assert seen["cli"] == []
    assert seen["oracle"] == []
    assert seen["verify"] == []


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
