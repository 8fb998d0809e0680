"""Command-line entry point.

Subcommands: validate, check, solve, verify, closed-form.  ``build_parser``
is the one table of options, defaults and handlers: each subcommand binds
its handler (``run``, and ``evaluate`` for a closed form), which reads the
parsed namespace.  Reports are deterministic for a fixed command line:
check and solve use no randomness, verify draws its samples from
counter-based generators keyed on ``--seed`` (a model whose every term is
a quadrature draws none), and output contains no timing information.
Exit codes:
0 success / finite / all pass, 1 I/O error (reading an input or
writing ``--out``; no traceback) or parse error, 2 validation or
domain failure, 3 infinite, 4 unknown (a check verdict, or a verify
whose reference solve did not converge), 5 unbounded solve, 6 verification
failure, 7 internal error (an uncaught exception; its traceback goes to
stderr).  JSON reports are strict JSON: an infinite or NaN value, such
as the objective of an unbounded solve, is written as ``null``.  Each
subcommand takes only the options it reads (``--out`` everywhere); any
other is an argparse error, exit 2.  ``closed-form coupled-sums`` takes
each of alpha, beta and delta as a value or as a ``--sweep-*`` grid,
exactly one of the two.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import traceback
from typing import Optional

import numpy as np

from . import closed_forms, estimate, finiteness
from .datum import Datum, DatumParseError, _numbers, load, validate
from .gauss import SolverOptions, solve_mg
from .subspace import SearchBudget

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INFINITE = 3
EXIT_UNKNOWN = 4
EXIT_UNBOUNDED = 5
EXIT_VERIFY_FAIL = 6
EXIT_INTERNAL = 7

_LN2 = math.log(2.0)


def _rng(seed: int, stream: int) -> np.random.Generator:
    # Philox is counter-based; each task gets its own spawn key.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def _unit(args) -> str:
    return "bits" if args.bits else "nats"


def _conv(x: float, args) -> float:
    if not args.bits or x is None:
        return x
    return x / _LN2


def _emit(text: str, args) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _json_report(doc: dict) -> str:
    """Strict (RFC 8259) JSON: a non-finite value is written as null."""
    strict = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load_valid(args, report_ok: bool = False) -> tuple[Optional[Datum], int]:
    try:
        datum = load(args.datum)
    except DatumParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return None, EXIT_IO
    report = validate(datum)
    if report_ok or not report.ok:
        _emit(_json_report({"command": "validate", **report.to_dict()}), args)
    if not report.ok:
        return None, EXIT_INVALID
    return datum, EXIT_OK


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed namespace and returns the exit code
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    return _load_valid(args, report_ok=True)[1]


def cmd_check(args) -> int:
    datum, code = _load_valid(args)
    if datum is None:
        return code
    verdict = finiteness.check_finiteness(datum, SearchBudget())
    _emit(_json_report({"command": "check", **verdict.to_dict()}), args)
    return {
        finiteness.FINITE: EXIT_OK,
        finiteness.INFINITE: EXIT_INFINITE,
        finiteness.UNKNOWN: EXIT_UNKNOWN,
    }[verdict.status]


def cmd_solve(args) -> int:
    datum, code = _load_valid(args)
    if datum is None:
        return code
    result = solve_mg(datum, SolverOptions(tol=args.tol))
    doc = result.to_dict()
    doc["mg_value"] = _conv(doc["mg_value"], args)
    doc.update({"command": "solve", "unit": _unit(args)})
    _emit(_json_report(doc), args)
    if result.unbounded:
        return EXIT_UNBOUNDED
    return EXIT_OK


_MODEL_BUILDERS = {
    "uniform": estimate.uniform_model,
    "laplace": estimate.laplace_model,
    "mixture": estimate.mixture_model,
    "gaussian": estimate.gaussian_model,
}


def cmd_verify(args) -> int:
    datum, code = _load_valid(args)
    if datum is None:
        return code
    names = [s.strip() for s in args.models.split(",") if s.strip()]
    try:
        models = [_MODEL_BUILDERS[name](datum.partition) for name in names]
    except KeyError as exc:
        sys.stderr.write(f"unknown model family {exc}; choose from {sorted(_MODEL_BUILDERS)}\n")
        return EXIT_INVALID
    if not models:
        sys.stderr.write(f"--models names no model family; choose from {sorted(_MODEL_BUILDERS)}\n")
        return EXIT_INVALID
    try:
        estimate.check_knn_size(args.samples, args.knn_k)
    except ValueError as exc:
        sys.stderr.write(f"invalid --samples/--knn-k: {exc}\n")
        return EXIT_INVALID
    result = solve_mg(datum, SolverOptions(tol=args.tol))
    if result.unbounded:
        _emit(_json_report({"command": "verify", "error": "solve is unbounded"}), args)
        return EXIT_UNBOUNDED
    if not result.converged:
        # verify_inequality needs the value of a converged solve
        _emit(_json_report({"command": "verify", "error": "solve did not converge"}), args)
        return EXIT_UNKNOWN
    mg = result.mg_value
    reports = estimate.verify_inequality(
        datum,
        models,
        mg,
        n_samples=args.samples,
        k=args.knn_k,
        z_crit=args.confidence,
        rng=_rng(args.seed, 1),
    )
    docs = [_convert_report(r, args) for r in reports]
    if args.fmt == "csv":
        _emit(_verify_csv(docs), args)
    else:
        doc = {
            "command": "verify",
            "seed": args.seed,
            "unit": _unit(args),
            "mg_reference": _conv(mg, args),
            "solver_converged": result.converged,
            "reports": docs,
        }
        _emit(_json_report(doc), args)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def _convert_report(r: estimate.VerificationReport, args) -> dict:
    """``r.to_dict()`` with every entropy-valued number in the report's unit."""
    doc = r.to_dict()
    for entry in (doc, doc["empirical_f"], *doc["terms"]):
        for key in ("margin", "mg_reference", "value", "std_error"):
            if key in entry:
                entry[key] = _conv(entry[key], args)
    return doc


def _verify_csv(docs: list[dict]) -> str:
    """CSV of converted reports: one row per term, then the model's summary."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["model", "record", "term", "weight", "value", "std_error", "method", "margin", "z_score", "passed"]
    )
    for r in docs:
        for t in r["terms"]:
            w.writerow(
                [r["model"], "term", t["term"], f"{t['weight']:.12g}", f"{t['value']:.12g}",
                 f"{t['std_error']:.12g}", t["method"], "", "", ""]
            )
        f = r["empirical_f"]
        w.writerow(
            [r["model"], "summary", "f", "", f"{f['value']:.12g}", f"{f['std_error']:.12g}",
             f["method"], f"{r['margin']:.12g}", f"{r['z_score']:.12g}", str(r["passed"])]
        )
    return buf.getvalue()


def _read_matrix(path) -> np.ndarray:
    """The rows of a JSON matrix file by the datum files' number rule: a
    nonempty list of equal-length lists of finite numbers, else ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError(f"a matrix file holds a list of rows, got {type(doc).__name__}")
    if not doc:
        raise ValueError("a matrix file holds at least one row")
    rows = [_numbers(row, f"row {i}") for i, row in enumerate(doc)]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    M = np.array(rows, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry")
    return M


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ValueError(f"bad sweep grid {text!r}; expected START:STOP:COUNT") from exc


def cmd_closed_form(args) -> int:
    """Run the form's ``evaluate``; a ValueError (a bad matrix file among
    them) is a domain error, exit 2."""
    try:
        text = args.evaluate(args)
    except ValueError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_INVALID
    _emit(text, args)
    return EXIT_OK


def _epi(args) -> str:
    value = closed_forms.epi_mg(args.lam, args.dim)
    return f"epi_mg = {_conv(value, args):.12g} {_unit(args)}\n"


def _zf_coeffs(args) -> str:
    coeffs = closed_forms.zf_coefficients(_read_matrix(args.matrix))
    return "".join(f"alpha_sq[{j}] = {v:.12g}\n" for j, v in enumerate(coeffs))


def _zf_f(args) -> str:
    lambdas = [float(x) for x in args.lambdas.split(",")]
    value = closed_forms.zf_F(_read_matrix(args.matrix), lambdas)
    return f"F = {_conv(value, args):.12g} {_unit(args)}\n"


def _cauchy_binet(args) -> str:
    lhs, rhs = closed_forms.cauchy_binet_check(_read_matrix(args.matrix))
    return f"det(BB^T) = {lhs:.12g}\nminor_sum = {rhs:.12g}\n"


def _coupled_sums(args) -> str:
    """C and D at one point, or a CSV over the grid of the swept
    parameters (argparse gives each parameter a value or a sweep)."""
    values = (args.alpha, args.beta, args.delta)
    sweeps = (args.sweep_alpha, args.sweep_beta, args.sweep_delta)
    if all(s is None for s in sweeps):
        C, D = closed_forms.coupled_sums_constant(*values)
        return f"C = {_conv(C, args):.12g} {_unit(args)}\nD = {_conv(D, args):.12g} {_unit(args)}\n"
    grids = [[v] if s is None else _parse_sweep(s) for v, s in zip(values, sweeps)]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["alpha", "beta", "delta", "feasible", "C", "D"])
    for point in itertools.product(*grids):
        row = [f"{x:.12g}" for x in point]
        try:
            C, D = closed_forms.coupled_sums_constant(*point)
        except ValueError:
            w.writerow(row + ["false", "", ""])
        else:
            w.writerow(row + ["true", f"{_conv(C, args):.12g}", f"{_conv(D, args):.12g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument wiring: the one table of options, defaults and handlers
# ---------------------------------------------------------------------------


def _tol(text: str) -> float:
    """``--tol``: finite and > 0.  At inf any ascent is converged, a
    degenerate start's NaN value too; at NaN or <= 0 none is."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return x


def _seed(text: str) -> int:
    """``--seed``: an int >= 0, as ``SeedSequence`` takes."""
    x = int(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {text!r}")
    return x


def _confidence(text: str) -> float:
    """``--confidence``: finite and >= 0.  At inf every model passes, at
    NaN none does, and below 0 a bound that holds can fail."""
    x = float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return x


def _add_options(p: argparse.ArgumentParser, solver=False, fmt=False, bits=False) -> None:
    """``--out`` plus the options the subcommand reads: ``--tol`` (solver),
    ``--format`` and ``--bits``."""
    if solver:
        p.add_argument(
            "--tol", type=_tol, default=SolverOptions.tol,
            help="converged at scale-free gradient norm <= this",
        )
    if fmt:
        p.add_argument(
            "--format", dest="fmt", choices=["structured-text", "csv"], default="structured-text"
        )
    p.add_argument("--out")
    if bits:
        p.add_argument("--bits", action="store_true", help="report in bits instead of nats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blepi",
        description="entropy inequality toolkit: validate, check finiteness, solve, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a datum file")
    p.add_argument("datum")
    _add_options(p)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("check", help="decide finiteness of the optimal constant")
    p.add_argument("datum")
    _add_options(p)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("solve", help="maximize the Gaussian objective")
    p.add_argument("datum")
    _add_options(p, solver=True, bits=True)
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser(
        "verify",
        help="check the bound for non-Gaussian inputs: k-NN estimates from samples, "
        "quadrature for the mixture model's images of dimension <= 2",
    )
    p.add_argument("datum")
    p.add_argument(
        "--models",
        default="uniform,laplace,mixture",
        help="comma-separated families: uniform,laplace,mixture,gaussian",
    )
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--knn-k", type=int, default=3)
    p.add_argument("--confidence", type=_confidence, default=3.0, help="one-sided z threshold")
    p.add_argument("--seed", type=_seed, default=0, help="seeds the Monte Carlo samples")
    _add_options(p, solver=True, fmt=True, bits=True)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("closed-form", help="evaluate a named closed form")
    p.set_defaults(run=cmd_closed_form)
    forms = p.add_subparsers(dest="form", required=True)

    q = forms.add_parser("epi")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--dim", type=int, default=1)
    _add_options(q, bits=True)
    q.set_defaults(evaluate=_epi)

    q = forms.add_parser("zf-coeffs")
    q.add_argument("matrix", help="JSON file holding the matrix rows")
    _add_options(q)  # unitless output
    q.set_defaults(evaluate=_zf_coeffs)

    q = forms.add_parser("zf-f")
    q.add_argument("matrix")
    q.add_argument("--lambdas", required=True, help="comma-separated finite positive diagonal")
    _add_options(q, bits=True)
    q.set_defaults(evaluate=_zf_f)

    q = forms.add_parser("cauchy-binet")
    q.add_argument("matrix")
    _add_options(q)  # unitless output
    q.set_defaults(evaluate=_cauchy_binet)

    q = forms.add_parser("coupled-sums")
    for name in ("alpha", "beta", "delta"):
        pair = q.add_mutually_exclusive_group(required=True)
        pair.add_argument(f"--{name}", type=float)
        pair.add_argument(
            f"--sweep-{name}",
            help="START:STOP:COUNT grid for CSV output" if name == "alpha" else None,
        )
    _add_options(q, bits=True)
    q.set_defaults(evaluate=_coupled_sums)

    return parser


_FLOAT_OPTIONS = ("--tol", "--confidence", "--lambda", "--alpha", "--beta", "--delta")


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float option, or an abbreviation of one (3 or more
    characters, as ``--conf``), and a following ``-``-token that
    ``float()`` accepts (``-1e-3``, ``-inf``) joined as ``--opt=value``.
    argparse takes such a token for an option and exits with "expected one
    argument" instead of the option's own range message."""
    out: list[str] = []
    for token in argv:
        if (
            out
            and len(out[-1]) >= 3
            and any(opt.startswith(out[-1]) for opt in _FLOAT_OPTIONS)
            and token.startswith("-")
        ):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_float_values(argv))
    try:
        return args.run(args)
    except OSError as exc:  # reading an input or writing --out
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
