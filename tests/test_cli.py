"""Command-line interface: exit codes, report formats, determinism.

Claims:
    - exit codes are the documented total function of the verdicts
    - parse failures and I/O failures exit 1; semantic validation exits 2,
      a non-finite exponent included, and so do verify sample sizes the
      k-NN estimator cannot use
    - --samples, --knn-k and --confidence are options of verify alone:
      any other subcommand rejects them as an argparse error (exit 2);
      so do the subcommands that do not read --tol, --format, --bits or
      --seed (only verify reads --seed), and solve and verify reject
      --starts: the solver runs one ascent per irreducible leaf
    - an uncaught exception prints its traceback and exits 7, not 1
    - an --out path that cannot be written exits 1 with one error line
      and no traceback, on every subcommand and as a process
    - reports are byte-identical across repeated runs with one seed
    - the parsed namespace of every subcommand holds its documented
      defaults and no other option
    - the bits flag rescales reported values by 1/log(2)
    - closed forms print 12-significant-digit decimals and sweeps emit CSV;
      a matrix file is a list of equal-length lists of finite numbers (no
      bool, no object) or a domain error (exit 2)
    - JSON reports are strict JSON: an unbounded solve's infinite value
      and gradient norm print as null, never as Infinity or NaN
    - a split datum's solve exits 0 and reports sigma_star as one SPD
      covariance per leaf, on the two data whose one assembled covariance
      was not positive definite (exit 7) too; on data of the mixed recipe,
      check, certify and solve raise nothing and the report is strict JSON
    - validate validates once, and so do check and solve in total (the
      library reads the report the CLI printed); verify refuses a reference solve that did
      not converge (exit 4) unless --tol accepts it, and an empty --models
      list (exit 2) before solving
    - --tol must be finite and > 0 and --confidence finite and >= 0: any
      other value, inf included, is an argparse error (exit 2) naming the
      range, a negative one such as -1e-3 or -inf given as its own token
      too, after the option's name or an abbreviation of it (--conf);
      --seed must be an int >= 0, or it is an argparse error (exit 2)
      before any solve
    - verify's mixture reports are quadratures that draw no samples, so
      the uniform and laplace reports do not depend on whether it is run
    - a partition or map shape that is not a list of whole numbers is a
      parse error (exit 1), never truncated to other sizes, and so is a
      bool or a string among the exponents or a map's entries
"""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import blepi
import blepi.cli
from blepi.cli import build_parser, main
from blepi.datum import Datum, Partition, datum_to_dict
from blepi.finiteness import ViolationError
from blepi.gauss import BlockCovariance, SolverOptions
from conftest import mixed_data, random_datum


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _integer_datum(partition, maps, c, d):
    return Datum(
        partition=Partition(partition),
        maps=tuple(np.array(A, dtype=float) for A in maps),
        c=np.array(c, dtype=float),
        d=np.array(d, dtype=float),
    )


# valid split data on which solve exited 7 while it assembled one
# covariance from its leaves: the d = 0 block of the first ends at
# variance 1.7e-11 and vanished below rounding at lam = 2**-20; the
# second (draw 7527 of the mixed recipe) is infinite, but check calls it
# finite, and its quotient leaf's ascent diverges
_ONE_SPLIT = _integer_datum(
    (2, 2, 2, 2),
    [
        [[-2, -1, 2, 2, -2, 1, -1, 2], [-1, -1, -1, 0, -2, -2, 1, -1],
         [0, 1, 1, -2, -1, 1, -1, 0], [1, 1, 1, 2, -2, 0, -1, 0]],
        [[0, -2, -2, -2, -1, -2, 1, 2], [-1, -1, -2, 2, -2, -1, -2, -1],
         [-1, -2, 1, 1, 1, 0, 2, -2]],
        [[-1, -1, 2, 0, -2, -1, 1, -2], [1, -2, 0, 1, 2, 1, -1, 0]],
    ],
    c=(0, 0, 1.25),
    d=(0.25, 0.5, 0, 0.5),
)
_DRAW_7527 = _integer_datum(
    (1, 3, 3, 2),
    [
        [[2, -2, 0, -1, -2, 1, -2, 0, 2], [0, -2, -1, -2, 0, 1, 1, 0, 0]],
        [[2, -1, 2, -2, 0, -2, 0, -2, 1]],
    ],
    c=(2, 2),
    d=(0.75, 0.75, 0.5, 0.75),
)


@pytest.fixture
def epi_file(tmp_path):
    path = tmp_path / "epi.json"
    blepi.save(blepi.make_epi_datum(0.5, 1), path)
    return str(path)


@pytest.fixture
def unbalanced_file(tmp_path):
    d = Datum(
        partition=Partition((1,)),
        maps=(np.array([[1.0]]),),
        c=np.array([0.5]),
        d=np.array([1.0]),
    )
    path = tmp_path / "unbalanced.json"
    blepi.save(d, path)
    return str(path)


class TestValidateCommand:
    def test_valid_file(self, epi_file, capsys):
        assert main(["validate", epi_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_validates_once(self, epi_file, capsys, monkeypatch):
        calls = []
        validate = blepi.cli.validate
        monkeypatch.setattr(blepi.cli, "validate", lambda d: calls.append(d) or validate(d))
        assert main(["validate", epi_file]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "validate",
            "ok": True,
            "issues": [],
        }

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_check_and_solve_validate_once_in_total(self, command, epi_file, capsys, monkeypatch):
        """The report _load_valid prints is the one the library reads:
        validate keeps the last datum's report."""
        reports = []
        report = blepi.datum.ValidationReport
        monkeypatch.setattr(
            blepi.datum, "ValidationReport", lambda issues: reports.append(issues) or report(issues)
        )
        assert main([command, epi_file]) == 0
        assert len(reports) == 1

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"partition": [1, 1]}')
        assert main(["validate", str(path)]) == 1

    def test_negative_map_shape_is_a_parse_error(self, epi_file, capsys):
        # the shape [-1, 2] used to load as the 1 x 2 map and print "ok": true
        with open(epi_file) as fh:
            doc = json.load(fh)
        doc["maps"][0]["shape"] = [-1, 2]
        with open(epi_file, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", epi_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative size" in captured.err

    def test_surjectivity_violation(self, tmp_path, capsys):
        d = blepi.make_epi_datum(0.5, 1)
        bad = Datum(
            partition=d.partition,
            maps=(np.vstack([d.maps[0], np.zeros((1, 2))]),),
            c=d.c,
            d=d.d,
        )
        path = tmp_path / "bad.json"
        blepi.save(bad, path)
        assert main(["validate", str(path)]) == 2
        assert "SURJECTIVITY" in capsys.readouterr().out


class TestCheckCommand:
    def test_finite(self, epi_file):
        assert main(["check", epi_file]) == 0

    def test_infinite_with_residual(self, unbalanced_file, capsys):
        assert main(["check", unbalanced_file]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"]["kind"] == "scaling_residual"
        assert doc["witness"]["value"] == pytest.approx(0.5)

    def test_infinite_with_subspace(self, tmp_path, capsys):
        # balanced, but the second block alone has slack 0.5; solve reads
        # the same root decision and exits 5
        d = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[1.0, 0.0]]),),
            c=np.array([1.0]),
            d=np.array([0.5, 0.5]),
        )
        path = str(tmp_path / "infinite.json")
        blepi.save(d, path)
        assert main(["check", path]) == 3
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness["kind"] == "violating_subspace"
        assert witness["slack"] == pytest.approx(0.5)
        assert main(["solve", path]) == 5

    def test_nan_exponent_is_invalid(self, tmp_path, capsys):
        # a NaN c used to be reported finite with exit 0
        doc = datum_to_dict(blepi.make_epi_datum(0.5, 1))
        doc["c"] = [math.nan]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        issues = json.loads(capsys.readouterr().out)["issues"]
        assert [(i["code"], i["location"]) for i in issues] == [("NONFINITE_ENTRY", "c[0]")]

    def test_maps_that_are_not_a_list_is_a_parse_error(self, tmp_path):
        doc = datum_to_dict(blepi.make_epi_datum(0.5, 1))
        doc["maps"] = 5
        path = tmp_path / "maps.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("partition", "11"), ("partition", [1.7, 1.2]), ("partition", [True, 1]),
         ("shape", "12"), ("shape", [1.9, 2.2])],
    )
    def test_a_size_that_is_not_a_whole_number_is_a_parse_error(self, tmp_path, capsys,
                                                                  field, value):
        # each of these used to be truncated or split into the sizes (1, 1)
        # or (1, 2) of the entropy power datum and checked as finite
        doc = datum_to_dict(blepi.make_epi_datum(0.5, 1))
        if field == "partition":
            doc["partition"] = value
        else:
            doc["maps"][0]["shape"] = value
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize(
        "field, value", [("c", [True]), ("d", [True, False]), ("d", ["0.5", 0.5]),
                         ("data", ["1", "1"])],
    )
    def test_an_entry_that_is_not_a_number_is_a_parse_error(self, tmp_path, capsys,
                                                             field, value):
        # each of these used to load as numbers and be checked
        doc = datum_to_dict(blepi.make_epi_datum(0.5, 1))
        if field == "data":
            doc["maps"][0]["data"] = value
        else:
            doc[field] = value
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and f"'{field}' entry" in err


class TestSolveCommand:
    def test_epi_reports_zero(self, epi_file, capsys):
        assert main(["solve", epi_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["mg_value"]) <= 1e-6
        assert doc["converged"] is True
        assert doc["unit"] == "nats"

    def test_unbounded_exit(self, unbalanced_file):
        assert main(["solve", unbalanced_file]) == 5

    def test_unbounded_solve_prints_strict_json(self, tmp_path, capsys):
        d = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[1.0, 1.0]]),),
            c=np.array([1.0]),
            d=np.array([1.0, 1.0]),
        )
        path = tmp_path / "unbounded.json"
        blepi.save(d, path)
        assert main(["solve", str(path)]) == 5
        doc = _strict_json(capsys.readouterr().out)
        assert doc["unbounded"] is True
        assert doc["mg_value"] is None and doc["gradient_norm"] is None

    @pytest.mark.parametrize(
        "d, value",
        [
            (blepi.make_epi_datum(0.5, 2), 0.0),
            (_ONE_SPLIT, -2.2864504627096527),
            (_DRAW_7527, None),
        ],
        ids=["epi(0.5,2)", "one-split", "draw-7527"],
    )
    def test_split_datum_reports_one_covariance_per_leaf(self, d, value, tmp_path, capsys):
        leaves = blepi.certify(d).leaves()
        assert len(leaves) > 1
        res = blepi.solve_mg(d)
        assert not res.unbounded and res.converged == (value is not None)
        if value is not None:
            assert res.mg_value == pytest.approx(value, abs=1e-12)
        path = tmp_path / "split.json"
        blepi.save(d, path)
        assert main(["solve", str(path)]) == 0
        doc = _strict_json(capsys.readouterr().out)
        assert len(doc["sigma_star"]) == len(leaves)
        for S, leaf in zip(doc["sigma_star"], leaves):
            assert BlockCovariance(tuple(np.array(B) for B in S["blocks"])).partition == (
                leaf.datum.partition
            )

    def test_bits_flag(self, epi_file, capsys):
        assert main(["solve", epi_file, "--bits"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unit"] == "bits"

    def test_crash_exits_internal_error(self, epi_file, capsys, monkeypatch):
        def crash(datum, opts):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(blepi.cli, "solve_mg", crash)
        assert main(["solve", epi_file]) == 7
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: solver exploded" in err


class TestVerifyCommand:
    @pytest.mark.scipy
    def test_three_families_pass(self, epi_file, capsys):
        code = main(["verify", epi_file, "--samples", "5000", "--seed", "7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["model"] for r in doc["reports"]} == {"uniform", "laplace", "mixture"}

    @pytest.mark.scipy
    def test_mixture_leaves_the_sampled_reports_alone(self, tmp_path, capsys):
        # the mixture draws no samples, so uniform and laplace read the
        # same stream with and without it
        path = tmp_path / "cs.json"
        blepi.save(blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), path)
        reports = []
        for models in ("uniform,laplace,mixture", "uniform,laplace"):
            assert main(["verify", str(path), "--samples", "3000", "--models", models]) == 0
            reports.append(json.loads(capsys.readouterr().out)["reports"])
        with_mixture, without = reports
        assert [json.dumps(r, sort_keys=True) for r in with_mixture[:2]] == [
            json.dumps(r, sort_keys=True) for r in without
        ]
        mixture = with_mixture[2]
        assert mixture["empirical_f"]["method"] == "quadrature"
        assert {t["method"] for t in mixture["terms"][2:]} == {"quadrature"}

    @pytest.mark.scipy
    def test_corrupted_reference_fails(self, epi_file, monkeypatch):
        solve = blepi.cli.solve_mg

        def corrupted(datum, opts):
            return dataclasses.replace(solve(datum, opts), mg_value=-1.0)

        monkeypatch.setattr(blepi.cli, "solve_mg", corrupted)
        code = main(["verify", epi_file, "--samples", "5000", "--models", "gaussian"])
        assert code == 6

    @pytest.mark.scipy
    def test_csv_format(self, epi_file, capsys):
        code = main(
            ["verify", epi_file, "--samples", "4000", "--models", "uniform",
             "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("model,record,term")
        assert any(",summary," in line for line in lines)

    @pytest.fixture
    def draw17_file(self, tmp_path):
        # draw 17 of the 150-draw random suite is infinite through a
        # subspace the search misses, so its solve stops at gradient norm
        # 0.025
        rng = np.random.default_rng(7)
        d = [random_datum(rng, balanced=True) for _ in range(18)][17]
        path = tmp_path / "draw17.json"
        blepi.save(d, path)
        return str(path)

    def test_unconverged_reference_is_refused(self, draw17_file, capsys, monkeypatch):
        # verify used to compare the models against the unconverged value
        # and exit 0 with every model passing
        def no_verify(*args, **kwargs):
            raise AssertionError("verified against an unconverged solve")

        monkeypatch.setattr(blepi.estimate, "verify_inequality", no_verify)
        assert main(["verify", draw17_file, "--samples", "20000"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"command": "verify", "error": "solve did not converge"}

    @pytest.mark.scipy
    def test_tol_accepts_the_looser_solve(self, draw17_file, capsys):
        code = main(["verify", draw17_file, "--samples", "2000", "--tol", "0.1"])
        assert code in (0, 6)
        assert json.loads(capsys.readouterr().out)["solver_converged"] is True

    def test_unknown_model_rejected(self, epi_file):
        assert main(["verify", epi_file, "--models", "cauchy"]) == 2

    @pytest.mark.parametrize("models", ["", ",", " , "])
    def test_empty_model_list_rejected_before_solving(self, epi_file, models, capsys,
                                                      monkeypatch):
        # an empty list used to solve, report no model and exit 0 (all pass)
        def no_solve(datum, opts):
            raise AssertionError("solved with no model to verify")

        monkeypatch.setattr(blepi.cli, "solve_mg", no_solve)
        assert main(["verify", epi_file, "--models", models]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--models names no model family" in captured.err

    @pytest.mark.parametrize(
        "options", [["--samples", "3"], ["--samples", "8"], ["--knn-k", "0"], ["--knn-k", "-2"]]
    )
    def test_bad_knn_options_rejected_before_solving(self, epi_file, options, capsys,
                                                     monkeypatch):
        def no_solve(datum, opts):
            raise AssertionError("solved before validating the k-NN options")

        monkeypatch.setattr(blepi.cli, "solve_mg", no_solve)
        assert main(["verify", epi_file, *options]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "samples" in err

    @pytest.mark.parametrize("command", ["validate", "check", "solve"])
    @pytest.mark.parametrize(
        "options", [["--samples", "3"], ["--knn-k", "0"], ["--confidence", "2.0"]]
    )
    def test_verify_options_belong_to_verify_only(self, epi_file, command, options, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, epi_file, *options])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--tol", "inf"],
            ["solve", "--tol", "nan"],
            ["solve", "--tol", "0"],
            ["solve", "--tol", "-1"],
            ["verify", "--tol", "inf"],
            ["verify", "--tol", "nan"],
            ["verify", "--confidence", "nan"],
            ["verify", "--confidence", "-5"],
            ["verify", "--confidence", "inf"],
            # argparse reads these values as options unless they are joined
            ["solve", "--tol", "-1e-3"],
            ["verify", "--tol", "-1e-3"],
            ["verify", "--tol", "-inf"],
            ["verify", "--confidence", "-inf"],
            ["verify", "--confidence", "-2.5e-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_a_tolerance_or_threshold_that_decides_nothing_is_rejected(
        self, epi_file, argv, capsys, monkeypatch
    ):
        """--tol inf calls any ascent converged (a degenerate start's NaN
        value too) and NaN, 0 or -1 none; --confidence inf passes every
        model, NaN none, and -5 fails a bound that holds.  Each is an
        argparse error (exit 2) before any solve."""

        def no_solve(datum, opts):
            raise AssertionError("solved with an option that decides nothing")

        monkeypatch.setattr(blepi.cli, "solve_mg", no_solve)
        command, option, value = argv
        with pytest.raises(SystemExit) as exc:
            main([command, epi_file, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be finite and" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["closed-form", "epi", "--lambda", "-1e-3"], "lambda must lie in (0, 1)"),
            (["closed-form", "epi", "--lam", "-1e-3"], "lambda must lie in (0, 1)"),
            (["closed-form", "coupled-sums", "--alpha", "-inf", "--beta", "0.5", "--delta", "0.5"],
             "alpha must be nonnegative"),
        ],
    )
    def test_a_negative_closed_form_parameter_reaches_its_domain_check(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--conf", "-inf"], "argument --confidence: must be finite and >= 0"),
            (["solve", "--to", "-1e-3"], "argument --tol: must be finite and > 0"),
        ],
    )
    def test_an_abbreviated_option_gets_its_range_message(self, epi_file, argv, message, capsys):
        # --conf -inf used to exit 2 with "expected one argument"
        command, option, value = argv
        with pytest.raises(SystemExit) as exc:
            main([command, epi_file, option, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_a_joined_negative_value_leaves_other_tokens_alone(self):
        argv = ["verify", "d.json", "--tol", "-1e-3", "--models", "-x", "--confidence=-1", "--out", "-"]
        assert blepi.cli._join_float_values(argv) == [
            "verify", "d.json", "--tol=-1e-3", "--models", "-x", "--confidence=-1", "--out", "-"
        ]

    def test_an_abbreviation_is_joined_and_a_bare_double_dash_is_not(self):
        argv = ["--conf", "-inf", "--", "-1", "--d", "-2", "--dim", "-3", "--lam=-1", "-4"]
        assert blepi.cli._join_float_values(argv) == [
            "--conf=-inf", "--", "-1", "--d=-2", "--dim", "-3", "--lam=-1", "-4"
        ]

    @pytest.mark.parametrize("value", ["-1", "-7", "1.5"])
    def test_a_seed_that_is_not_a_nonnegative_int_is_rejected(
        self, epi_file, value, capsys, monkeypatch
    ):
        # -1 used to reach SeedSequence after the solve and exit 7 with a traceback
        def no_solve(datum, opts):
            raise AssertionError("solved with a seed SeedSequence rejects")

        monkeypatch.setattr(blepi.cli, "solve_mg", no_solve)
        with pytest.raises(SystemExit) as exc:
            main(["verify", epi_file, "--seed", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed:" in err and "Traceback" not in err

    def test_the_edges_of_tol_and_confidence_are_accepted(self, epi_file, monkeypatch):
        seen = []
        monkeypatch.setattr(blepi.cli, "cmd_verify", lambda args: seen.append(args))
        main(["verify", epi_file, "--tol", "1e-300", "--confidence", "0"])
        assert [(a.tol, a.confidence) for a in seen] == [(1e-300, 0.0)]

    def test_verify_reads_its_own_options(self, epi_file, monkeypatch):
        seen = []
        monkeypatch.setattr(blepi.cli, "cmd_verify", lambda args: seen.append(args))
        argv = ["verify", epi_file, "--samples", "123", "--knn-k", "4", "--confidence", "2.5"]
        main(argv)
        assert [(a.samples, a.knn_k, a.confidence) for a in seen] == [(123, 4, 2.5)]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{datum}", "--format", "csv"],
        ["check", "{datum}", "--bits"],
        ["validate", "{datum}", "--starts", "0", "--tol", "-1"],
        ["closed-form", "epi", "--lambda", "0.5", "--starts", "-3", "--seed", "4"],
        ["closed-form", "zf-coeffs", "{datum}", "--bits"],
        ["check", "{datum}", "--seed", "1"],
        ["solve", "{datum}", "--seed", "1"],
        ["solve", "{datum}", "--starts", "8"],
        ["verify", "{datum}", "--starts", "8"],
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(epi_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(datum=epi_file) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_WRITING = [
    ["validate", "{datum}"],
    ["check", "{datum}"],
    ["solve", "{datum}"],
    ["verify", "{datum}", "--models", "mixture"],
    ["closed-form", "epi", "--lambda", "0.5"],
]


@settings(max_examples=60, deadline=None)
@given(d=mixed_data())
def test_every_mixed_datum_gets_a_strict_report(d, tmp_path_factory):
    """On data of the mixed recipe (zero and quarter-rounded exponents,
    integer, axis, zeroed-column and row-scaled maps), check, certify
    (bar a violating subspace) and solve raise nothing; the solve report
    is strict JSON, and a split datum's sigma_star holds one SPD
    covariance per leaf of its split tree."""
    blepi.check_finiteness(d)
    try:
        leaves = blepi.certify(d).leaves()
    except ViolationError:
        leaves = None
    path = tmp_path_factory.mktemp("mixed") / "d.json"
    blepi.save(d, path)
    out = path.with_name("report.json")
    assert main(["solve", str(path), "--out", str(out)]) in (0, 5)
    doc = _strict_json(out.read_text())
    if isinstance(doc["sigma_star"], list):
        assert leaves is not None and len(doc["sigma_star"]) == len(leaves) > 1
        for S in doc["sigma_star"]:
            BlockCovariance(tuple(np.array(B) for B in S["blocks"]))


@pytest.mark.parametrize("argv", _WRITING, ids=[a[0] for a in _WRITING])
def test_unwritable_out_is_an_io_error(epi_file, tmp_path, argv, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main([a.format(datum=epi_file) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_unwritable_out_exits_1_as_a_process(epi_file, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "blepi.cli", "solve", epi_file, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestClosedFormCommand:
    def test_epi(self, capsys):
        assert main(["closed-form", "epi", "--lambda", "0.5", "--dim", "2"]) == 0
        assert "epi_mg = 0" in capsys.readouterr().out

    def test_zf_coeffs(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[0.7071067811865476, 0.7071067811865476]]))
        assert main(["closed-form", "zf-coeffs", str(path)]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_coupled_sums_value(self, capsys):
        code = main(
            ["closed-form", "coupled-sums", "--alpha", "1.25", "--beta", "0.5",
             "--delta", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C = -0.454454367449" in out

    def test_coupled_sums_infeasible_names_condition(self, capsys):
        code = main(
            ["closed-form", "coupled-sums", "--alpha", "0.5", "--beta", "0.5",
             "--delta", "0.5"]
        )
        assert code == 2

    def test_coupled_sums_sweep_csv(self, capsys):
        code = main(
            ["closed-form", "coupled-sums", "--sweep-alpha", "1.05:1.25:3",
             "--beta", "0.5", "--delta", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,delta,feasible,C,D"
        # only the balanced grid point is feasible
        assert sum(",true," in line for line in lines) == 1
        assert "1.25,0.5,0.5,true,-0.454454367449" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--alpha", "1.25", "--sweep-alpha", "1:2:3", "--beta", "0.5", "--delta", "0.5"],
             "argument --sweep-alpha: not allowed with argument --alpha"),
            (["--alpha", "1.25", "--beta", "0.5"],
             "one of the arguments --delta --sweep-delta is required"),
            (["--sweep-beta", "0.1:0.9:5", "--delta", "0.5"],
             "one of the arguments --alpha --sweep-alpha is required"),
        ],
        ids=["both", "missing", "missing-with-sweep"],
    )
    def test_coupled_sums_takes_one_of_each_pair(self, argv, message, capsys):
        # both used to let the sweep silently win
        with pytest.raises(SystemExit) as exc:
            main(["closed-form", "coupled-sums", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_coupled_sums_sweeps_the_product_of_the_grids(self, capsys):
        argv = ["closed-form", "coupled-sums", "--sweep-alpha", "1:1.5:3", "--sweep-beta",
                "0.1:0.9:3", "--sweep-delta", "0.4:0.6:2"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        points = [(float(a), float(b), float(d)) for a, b, d, *_ in rows]
        # alpha slowest, delta fastest
        assert points == [(a, b, d) for a in (1, 1.25, 1.5) for b in (0.1, 0.5, 0.9)
                          for d in (0.4, 0.6)]

    @pytest.mark.parametrize("form", ["zf-coeffs", "cauchy-binet"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": 1}', "a matrix file holds a list of rows, got dict"),
            ('[[1, {"x": 1}]]', "'row 0' entry {'x': 1} is not a number"),
            ("[[1, 0], [true, 0]]", "'row 1' entry True is not a number"),
            ("[[1e400, 0]]", "matrix has a non-finite entry"),
            ("[[1, 0], [0]]", "matrix rows differ in length"),
            ("[]", "a matrix file holds at least one row"),
        ],
        ids=["object", "object-entry", "bool", "overflow", "ragged", "empty"],
    )
    def test_a_malformed_matrix_file_is_a_domain_error(self, tmp_path, capsys, form, text, message):
        """Matrix files take the datum files' number rule.  An object used to
        exit 7 with a TypeError, a bool was read as 1.0, 1e400 reached
        det as inf, and [] failed cauchy-binet's shape unpacking."""
        path = tmp_path / "mat.json"
        path.write_text(text)
        assert main(["closed-form", form, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"domain error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_zf_f_takes_finite_positive_lambdas(self, tmp_path, capsys, value):
        """A NaN entry passed the old positivity test, and the run printed
        F = nan nats with a RuntimeWarning and exited 0."""
        path = tmp_path / "a.json"
        path.write_text(json.dumps([[0.6, 0.8]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["closed-form", "zf-f", str(path), "--lambdas", f"1,{value}"]) == 2
        captured = capsys.readouterr()
        assert "domain error: diagonal entries must be finite and positive" in captured.err
        assert captured.out == ""

    def test_cauchy_binet(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps([[1.0, 1.0]]))
        assert main(["closed-form", "cauchy-binet", str(path)]) == 0
        assert "2" in capsys.readouterr().out


class TestDeterminism:
    def test_check_is_byte_identical(self, epi_file, capsys):
        main(["check", epi_file])
        first = capsys.readouterr().out
        main(["check", epi_file])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.scipy
    def test_verify_is_byte_identical(self, epi_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["verify", epi_file, "--samples", "3000", "--seed", "5", "--out", str(out1)])
        capsys.readouterr()
        main(["verify", epi_file, "--samples", "3000", "--seed", "5", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.scipy
    def test_verify_with_threaded_tree_is_byte_identical(self, tmp_path, capsys):
        # coupled sums has a 2-D image (k-d tree on all cores) and 1-D
        # images (sorted path)
        path = tmp_path / "cs.json"
        blepi.save(blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), path)
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            argv = ["verify", str(path), "--samples", "20000", "--seed", "5", "--out", str(out)]
            assert main(argv) == 0
            capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.scipy
    def test_different_seeds_differ(self, epi_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["verify", epi_file, "--samples", "3000", "--seed", "5", "--out", str(out1)])
        capsys.readouterr()
        main(["verify", epi_file, "--samples", "3000", "--seed", "6", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() != out2.read_bytes()


_TOL = SolverOptions.tol


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["validate", "d.json"], {"out": None}),
        (["check", "d.json"], {"out": None}),
        (["solve", "d.json"], {"tol": _TOL, "out": None, "bits": False}),
        (
            ["verify", "d.json"],
            {"models": "uniform,laplace,mixture", "samples": 50_000, "knn_k": 3,
             "confidence": 3.0, "seed": 0, "tol": _TOL, "fmt": "structured-text",
             "out": None, "bits": False},
        ),
        (["closed-form", "epi", "--lambda", "0.5"],
         {"form": "epi", "lam": 0.5, "dim": 1, "out": None, "bits": False}),
    ],
    ids=["validate", "check", "solve", "verify", "closed-form-epi"],
)
def test_parsed_defaults_are_the_documented_defaults(argv, parsed):
    """Each subcommand's namespace holds its documented defaults, its
    positional argument and its handler, and no other option."""
    args = vars(build_parser().parse_args(argv))
    command = argv[0]
    handler = getattr(blepi.cli, "cmd_" + command.replace("-", "_"))
    assert args.pop("run") is handler and args.pop("command") == command
    args.pop("datum", None)
    args.pop("evaluate", None)
    assert args == parsed


# the bytes this run printed while the CSV converted each value to bits
# itself; reading the JSON report's converted dicts keeps them
_BITS_CSV = """\
model,record,term,weight,value,std_error,method,margin,z_score,passed
uniform,term,h(block[0]),0.5,0,0,closed_form,,,
uniform,term,h(block[1]),0.5,0,0,closed_form,,,
uniform,term,h(map[0] X),-1,0.218012975435,0.0400352948249,knn,,,
uniform,summary,f,,-0.218012975435,0.0400352948249,knn,-0.218012975435,-5.44551941951,True
laplace,term,h(block[0]),0.5,2.44269504089,0,closed_form,,,
laplace,term,h(block[1]),0.5,2.44269504089,0,closed_form,,,
laplace,term,h(map[0] X),-1,2.50714146274,0.0407969250175,knn,,,
laplace,summary,f,,-0.0644464218544,0.0407969250175,knn,-0.0644464218544,-1.57968821981,True
"""


@pytest.mark.scipy
def test_verify_csv_in_bits_is_pinned(epi_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["verify", epi_file, "--samples", "2000", "--models", "uniform,laplace", "--bits",
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == _BITS_CSV
    assert out.read_text() == _BITS_CSV


def test_json_report_writes_nonfinite_values_as_null():
    text = blepi.cli._json_report({"z": math.inf, "v": [-math.inf, (math.nan, 1.5)], "n": 2})
    assert json.loads(text) == {"n": 2, "v": [None, [None, 1.5]], "z": None}
