"""scipy stays out of the import path.

Claims:
    - a fresh ``import blepi, blepi.cli`` loads no scipy module, and
      neither do ``check`` and ``solve`` on the entropy power datum
    - the coupled-sums oracle loads scipy.optimize on its first call, so
      the lazy import is the path that runs
"""

import json
import os
import pathlib
import subprocess
import sys

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
seen["oracle"] = "scipy.optimize" in sys.modules
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
    assert seen["codes"] == [0, 0]
    assert seen["cli"] == []
    assert seen["oracle"] is True
