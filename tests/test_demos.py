"""The narrative demos run to completion against the public API.

Claims:
    - every script in demos/ runs as __main__ without raising
    - the finiteness demo calls the EPI datum finite in other units too
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# the Monte Carlo demo estimates entropies by k-NN, which needs scipy
_SCIPY_DEMOS = {"monte_carlo_check"}


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(p, id=p.stem, marks=pytest.mark.scipy if p.stem in _SCIPY_DEMOS else ())
        for p in DEMOS
    ],
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_finiteness_demo_is_unit_free(capsys):
    path = next(p for p in DEMOS if p.stem == "finiteness_and_splitting")
    runpy.run_path(str(path), run_name="__main__")
    assert "EPI, X2 in 1e-3 units: finite\n" in capsys.readouterr().out
