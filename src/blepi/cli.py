"""Command-line entry point.

Subcommands: validate, check, solve, verify, closed-form.  Reports are
deterministic for a fixed (command, config): check and solve use no
randomness, verify draws its samples from counter-based generators keyed
on ``--seed`` (a model whose every term is a quadrature draws none), and
output contains no timing information.  Exit codes:
0 success / finite / all pass, 1 I/O error (reading an input or
writing ``--out``; no traceback) or parse error, 2 validation or
domain failure, 3 infinite, 4 unknown (a check verdict, or a verify
whose reference solve did not converge), 5 unbounded solve, 6 verification
failure, 7 internal error (an uncaught exception; its traceback goes to
stderr).  JSON reports are strict JSON: an infinite or NaN value, such
as the objective of an unbounded solve, is written as ``null``.  Each
subcommand takes only the options it reads (``--out`` everywhere); any
other is an argparse error, exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import closed_forms, estimate, finiteness
from .datum import Datum, DatumParseError, load, validate
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


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol: float = SolverOptions.tol
    samples: int = 50_000
    knn_k: int = 3
    confidence: float = 3.0
    fmt: str = "structured-text"
    out: Optional[str] = None
    bits: bool = False

    @property
    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol=self.tol)


def _rng(cfg: RunConfig, stream: int) -> np.random.Generator:
    # Philox is counter-based; each task gets its own spawn key.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(stream,)))
    )


def _unit(cfg: RunConfig) -> str:
    return "bits" if cfg.bits else "nats"


def _conv(x: float, cfg: RunConfig) -> float:
    if not cfg.bits or x is None:
        return x
    return x / _LN2


def _emit(text: str, cfg: RunConfig) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _json_report(doc: dict) -> str:
    """Strict (RFC 8259) JSON: a non-finite value is written as null."""
    strict = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load_valid(path, cfg: RunConfig, report_ok: bool = False) -> tuple[Optional[Datum], int]:
    try:
        datum = load(path)
    except DatumParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return None, EXIT_IO
    report = validate(datum)
    if report_ok or not report.ok:
        _emit(_json_report({"command": "validate", **report.to_dict()}), cfg)
    if not report.ok:
        return None, EXIT_INVALID
    return datum, EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(path, cfg: RunConfig) -> int:
    return _load_valid(path, cfg, report_ok=True)[1]


def cmd_check(path, cfg: RunConfig) -> int:
    datum, code = _load_valid(path, cfg)
    if datum is None:
        return code
    verdict = finiteness.check_finiteness(datum, SearchBudget())
    _emit(_json_report({"command": "check", **verdict.to_dict()}), cfg)
    return {
        finiteness.FINITE: EXIT_OK,
        finiteness.INFINITE: EXIT_INFINITE,
        finiteness.UNKNOWN: EXIT_UNKNOWN,
    }[verdict.status]


def cmd_solve(path, cfg: RunConfig) -> int:
    datum, code = _load_valid(path, cfg)
    if datum is None:
        return code
    result = solve_mg(datum, cfg.solver_options)
    doc = result.to_dict()
    doc["mg_value"] = _conv(doc["mg_value"], cfg)
    doc.update({"command": "solve", "unit": _unit(cfg)})
    _emit(_json_report(doc), cfg)
    if result.unbounded:
        return EXIT_UNBOUNDED
    return EXIT_OK


_MODEL_BUILDERS = {
    "uniform": estimate.uniform_model,
    "laplace": estimate.laplace_model,
    "mixture": estimate.mixture_model,
    "gaussian": estimate.gaussian_model,
}


def cmd_verify(path, cfg: RunConfig, model_names: list[str]) -> int:
    datum, code = _load_valid(path, cfg)
    if datum is None:
        return code
    try:
        models = [_MODEL_BUILDERS[name](datum.partition) for name in model_names]
    except KeyError as exc:
        sys.stderr.write(f"unknown model family {exc}; choose from {sorted(_MODEL_BUILDERS)}\n")
        return EXIT_INVALID
    if not models:
        sys.stderr.write(f"--models names no model family; choose from {sorted(_MODEL_BUILDERS)}\n")
        return EXIT_INVALID
    try:
        estimate.check_knn_size(cfg.samples, cfg.knn_k)
    except ValueError as exc:
        sys.stderr.write(f"invalid --samples/--knn-k: {exc}\n")
        return EXIT_INVALID
    result = solve_mg(datum, cfg.solver_options)
    if result.unbounded:
        _emit(_json_report({"command": "verify", "error": "solve is unbounded"}), cfg)
        return EXIT_UNBOUNDED
    if not result.converged:
        # verify_inequality needs the value of a converged solve
        _emit(_json_report({"command": "verify", "error": "solve did not converge"}), cfg)
        return EXIT_UNKNOWN
    mg = result.mg_value
    reports = estimate.verify_inequality(
        datum,
        models,
        mg,
        n_samples=cfg.samples,
        k=cfg.knn_k,
        z_crit=cfg.confidence,
        rng=_rng(cfg, 1),
    )
    if cfg.fmt == "csv":
        _emit(_verify_csv(reports, cfg), cfg)
    else:
        doc = {
            "command": "verify",
            "seed": cfg.seed,
            "unit": _unit(cfg),
            "mg_reference": _conv(mg, cfg),
            "solver_converged": result.converged,
            "reports": [_convert_report(r, cfg) for r in reports],
        }
        _emit(_json_report(doc), cfg)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def _convert_report(r: estimate.VerificationReport, cfg: RunConfig) -> dict:
    doc = r.to_dict()
    doc["margin"] = _conv(doc["margin"], cfg)
    doc["mg_reference"] = _conv(doc["mg_reference"], cfg)
    doc["empirical_f"]["value"] = _conv(doc["empirical_f"]["value"], cfg)
    doc["empirical_f"]["std_error"] = _conv(doc["empirical_f"]["std_error"], cfg)
    for t in doc["terms"]:
        t["value"] = _conv(t["value"], cfg)
        t["std_error"] = _conv(t["std_error"], cfg)
    return doc


def _verify_csv(reports, cfg: RunConfig) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["model", "record", "term", "weight", "value", "std_error", "method", "margin", "z_score", "passed"]
    )
    for r in reports:
        for t in r.terms:
            w.writerow(
                [
                    r.model,
                    "term",
                    t.term,
                    f"{t.weight:.12g}",
                    f"{_conv(t.estimate.value, cfg):.12g}",
                    f"{_conv(t.estimate.std_error, cfg):.12g}",
                    t.estimate.method,
                    "",
                    "",
                    "",
                ]
            )
        w.writerow(
            [
                r.model,
                "summary",
                "f",
                "",
                f"{_conv(r.empirical_f.value, cfg):.12g}",
                f"{_conv(r.empirical_f.std_error, cfg):.12g}",
                r.empirical_f.method,
                f"{_conv(r.margin, cfg):.12g}",
                f"{r.z_score:.12g}",
                str(r.passed),
            ]
        )
    return buf.getvalue()


def _read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.array(doc, dtype=float)


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ValueError(f"bad sweep grid {text!r}; expected START:STOP:COUNT") from exc


def cmd_closed_form(args, cfg: RunConfig) -> int:
    sub = args.form
    try:
        if sub == "epi":
            value = closed_forms.epi_mg(args.lam, args.dim)
            _emit(f"epi_mg = {_conv(value, cfg):.12g} {_unit(cfg)}\n", cfg)
        elif sub == "zf-coeffs":
            coeffs = closed_forms.zf_coefficients(_read_matrix(args.matrix))
            lines = [f"alpha_sq[{j}] = {v:.12g}" for j, v in enumerate(coeffs)]
            _emit("\n".join(lines) + "\n", cfg)
        elif sub == "zf-f":
            lambdas = [float(x) for x in args.lambdas.split(",")]
            value = closed_forms.zf_F(_read_matrix(args.matrix), lambdas)
            _emit(f"F = {_conv(value, cfg):.12g} {_unit(cfg)}\n", cfg)
        elif sub == "cauchy-binet":
            lhs, rhs = closed_forms.cauchy_binet_check(_read_matrix(args.matrix))
            _emit(f"det(BB^T) = {lhs:.12g}\nminor_sum = {rhs:.12g}\n", cfg)
        elif sub == "coupled-sums":
            sweeping = any((args.sweep_alpha, args.sweep_beta, args.sweep_delta))
            if not sweeping:
                C, D = closed_forms.coupled_sums_constant(args.alpha, args.beta, args.delta)
                _emit(
                    f"C = {_conv(C, cfg):.12g} {_unit(cfg)}\n"
                    f"D = {_conv(D, cfg):.12g} {_unit(cfg)}\n",
                    cfg,
                )
            else:
                grids = {
                    "alpha": _parse_sweep(args.sweep_alpha) if args.sweep_alpha else [args.alpha],
                    "beta": _parse_sweep(args.sweep_beta) if args.sweep_beta else [args.beta],
                    "delta": _parse_sweep(args.sweep_delta) if args.sweep_delta else [args.delta],
                }
                buf = io.StringIO()
                w = csv.writer(buf, lineterminator="\n")
                w.writerow(["alpha", "beta", "delta", "feasible", "C", "D"])
                for a in grids["alpha"]:
                    for b in grids["beta"]:
                        for dl in grids["delta"]:
                            try:
                                C, D = closed_forms.coupled_sums_constant(a, b, dl)
                                w.writerow(
                                    [f"{a:.12g}", f"{b:.12g}", f"{dl:.12g}", "true",
                                     f"{_conv(C, cfg):.12g}", f"{_conv(D, cfg):.12g}"]
                                )
                            except ValueError:
                                w.writerow(
                                    [f"{a:.12g}", f"{b:.12g}", f"{dl:.12g}", "false", "", ""]
                                )
                _emit(buf.getvalue(), cfg)
        else:  # pragma: no cover - argparse restricts choices
            sys.stderr.write(f"unknown closed form {sub}\n")
            return EXIT_INVALID
    except (ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _tol(text: str) -> float:
    """``--tol``: finite and > 0.  At inf any ascent is converged, a
    degenerate start's NaN value too; at NaN or <= 0 none is."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
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
    cfg = RunConfig()
    if solver:
        p.add_argument(
            "--tol", type=_tol, default=cfg.tol, help="converged at scale-free gradient norm <= this"
        )
    if fmt:
        p.add_argument("--format", dest="fmt", choices=["structured-text", "csv"], default=cfg.fmt)
    p.add_argument("--out", default=cfg.out)
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

    p = sub.add_parser("check", help="decide finiteness of the optimal constant")
    p.add_argument("datum")
    _add_options(p)

    p = sub.add_parser("solve", help="maximize the Gaussian objective")
    p.add_argument("datum")
    _add_options(p, solver=True, bits=True)

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
    cfg = RunConfig()
    p.add_argument("--samples", type=int, default=cfg.samples)
    p.add_argument("--knn-k", type=int, default=cfg.knn_k)
    p.add_argument(
        "--confidence", type=_confidence, default=cfg.confidence, help="one-sided z threshold"
    )
    p.add_argument("--seed", type=int, default=cfg.seed, help="seeds the Monte Carlo samples")
    _add_options(p, solver=True, fmt=True, bits=True)

    p = sub.add_parser("closed-form", help="evaluate a named closed form")
    forms = p.add_subparsers(dest="form", required=True)

    q = forms.add_parser("epi")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--dim", type=int, default=1)
    _add_options(q, bits=True)

    q = forms.add_parser("zf-coeffs")
    q.add_argument("matrix", help="JSON file holding the matrix rows")
    _add_options(q)  # unitless output

    q = forms.add_parser("zf-f")
    q.add_argument("matrix")
    q.add_argument("--lambdas", required=True, help="comma-separated positive diagonal")
    _add_options(q, bits=True)

    q = forms.add_parser("cauchy-binet")
    q.add_argument("matrix")
    _add_options(q)  # unitless output

    q = forms.add_parser("coupled-sums")
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--beta", type=float, default=None)
    q.add_argument("--delta", type=float, default=None)
    q.add_argument("--sweep-alpha", default=None, help="START:STOP:COUNT grid for CSV output")
    q.add_argument("--sweep-beta", default=None)
    q.add_argument("--sweep-delta", default=None)
    _add_options(q, bits=True)

    return parser


def _config(args) -> RunConfig:
    """The parsed options; a field the subcommand does not take keeps its default."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(**given)


_FLOAT_OPTIONS = ("--tol", "--confidence", "--lambda", "--alpha", "--beta", "--delta")


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float option and a following ``-``-token that
    ``float()`` accepts (``-1e-3``, ``-inf``) joined as ``--opt=value``.
    argparse takes such a token for an option and exits with "expected one
    argument" instead of the option's own range message."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and token.startswith("-"):
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
    cfg = _config(args)
    try:
        return _run(args, cfg)
    except OSError as exc:  # reading an input or writing --out
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(args, cfg: RunConfig) -> int:
    if args.command == "validate":
        return cmd_validate(args.datum, cfg)
    if args.command == "check":
        return cmd_check(args.datum, cfg)
    if args.command == "solve":
        return cmd_solve(args.datum, cfg)
    if args.command == "verify":
        names = [s.strip() for s in args.models.split(",") if s.strip()]
        return cmd_verify(args.datum, cfg, names)
    if args.command == "closed-form":
        for name in ("alpha", "beta", "delta"):
            sweep = getattr(args, f"sweep_{name}", None) if args.form == "coupled-sums" else None
            if args.form == "coupled-sums" and getattr(args, name) is None and not sweep:
                sys.stderr.write(f"closed-form coupled-sums requires --{name} or --sweep-{name}\n")
                return EXIT_INVALID
        return cmd_closed_form(args, cfg)
    return EXIT_INVALID  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
