"""Command-line interface: exit codes, report formats, determinism.

Claims:
    - exit codes are the documented total function of the verdicts
    - parse failures and I/O failures exit 1; semantic validation exits 2,
      and so do verify sample sizes the k-NN estimator cannot use
    - --samples, --knn-k and --confidence are options of verify alone:
      any other subcommand rejects them as an argparse error (exit 2);
      so do the subcommands that do not read --starts, --tol, --format,
      --bits or --seed
    - an uncaught exception prints its traceback and exits 7, not 1
    - reports are byte-identical across repeated runs with one seed
    - the parsed defaults of every subcommand are RunConfig's defaults
    - the bits flag rescales reported values by 1/log(2)
    - closed forms print 12-significant-digit decimals and sweeps emit CSV
"""

import dataclasses
import json

import numpy as np
import pytest

import blepi
import blepi.cli
from blepi.cli import RunConfig, _config, build_parser, main
from blepi.datum import Datum, Partition


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

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"partition": [1, 1]}')
        assert main(["validate", str(path)]) == 1

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


class TestSolveCommand:
    def test_epi_reports_zero(self, epi_file, capsys):
        assert main(["solve", epi_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["mg_value"]) <= 1e-6
        assert doc["converged"] is True
        assert doc["unit"] == "nats"

    def test_unbounded_exit(self, unbalanced_file):
        assert main(["solve", unbalanced_file]) == 5

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
    def test_three_families_pass(self, epi_file, capsys):
        code = main(["verify", epi_file, "--samples", "5000", "--seed", "7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["model"] for r in doc["reports"]} == {"uniform", "laplace", "mixture"}

    def test_corrupted_reference_fails(self, epi_file, monkeypatch):
        solve = blepi.cli.solve_mg

        def corrupted(datum, opts):
            return dataclasses.replace(solve(datum, opts), mg_value=-1.0)

        monkeypatch.setattr(blepi.cli, "solve_mg", corrupted)
        code = main(["verify", epi_file, "--samples", "5000", "--models", "gaussian"])
        assert code == 6

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

    def test_unknown_model_rejected(self, epi_file):
        assert main(["verify", epi_file, "--models", "cauchy"]) == 2

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

    def test_verify_reads_its_own_options(self, epi_file, monkeypatch):
        seen = []
        monkeypatch.setattr(blepi.cli, "cmd_verify", lambda path, cfg, names: seen.append(cfg))
        argv = ["verify", epi_file, "--samples", "123", "--knn-k", "4", "--confidence", "2.5"]
        main(argv)
        assert [(c.samples, c.knn_k, c.confidence) for c in seen] == [(123, 4, 2.5)]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{datum}", "--format", "csv"],
        ["check", "{datum}", "--bits"],
        ["validate", "{datum}", "--starts", "0", "--tol", "-1"],
        ["closed-form", "epi", "--lambda", "0.5", "--starts", "-3", "--seed", "4"],
        ["closed-form", "zf-coeffs", "{datum}", "--bits"],
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(epi_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(datum=epi_file) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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

    def test_cauchy_binet(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps([[1.0, 1.0]]))
        assert main(["closed-form", "cauchy-binet", str(path)]) == 0
        assert "2" in capsys.readouterr().out


class TestDeterminism:
    def test_check_is_byte_identical(self, epi_file, capsys):
        main(["check", epi_file, "--seed", "11"])
        first = capsys.readouterr().out
        main(["check", epi_file, "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    def test_verify_is_byte_identical(self, epi_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["verify", epi_file, "--samples", "3000", "--seed", "5", "--out", str(out1)])
        capsys.readouterr()
        main(["verify", epi_file, "--samples", "3000", "--seed", "5", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_different_seeds_differ(self, epi_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["verify", epi_file, "--samples", "3000", "--seed", "5", "--out", str(out1)])
        capsys.readouterr()
        main(["verify", epi_file, "--samples", "3000", "--seed", "6", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["validate", "d.json"], ["check", "d.json"], ["solve", "d.json"], ["verify", "d.json"],
     ["closed-form", "epi", "--lambda", "0.5"]],
)
def test_parsed_defaults_are_run_config_defaults(argv):
    assert _config(build_parser().parse_args(argv)) == RunConfig()
