"""Import paths: scipy stays out, and every exported name exists.

Claims:
    - a fresh ``import blepi, blepi.cli`` loads no scipy module, and
      neither do ``check`` and ``solve`` on the entropy power datum, nor
      the coupled-sums oracle after them: scipy.optimize is never loaded
    - ``verify`` with the mixture model loads no scipy.integrate: every
      mixture entropy is a numpy quadrature
    - every name in a blepi module's ``__all__`` exists, once, and
      ``from blepi.<module> import *`` binds exactly those names
"""

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
seen["integrate"] = "scipy.integrate" in sys.modules
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
    assert seen["integrate"] is False


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
