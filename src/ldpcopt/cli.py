"""Command-line front end.

Subcommands: optimize-lambda, optimize-rho, threshold, verify, sweep.
Reports are JSON on stdout (CSV via --output csv); diagnostics go to stderr.
Exit codes: 0 optimal/feasible, 1 input error, 2 infeasible, 3 numerical
failure.

Degree distributions are JSON objects keyed by NODE degree, e.g.
'{"6": 1.0}' is the check polynomial x^5 in edge perspective. An ensemble
file bundles {"lambda": {...}, "rho": {...}, "epsilon": e}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import de as de_mod
from .ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    capacity_gap,
    check_de_feasible,
    design_rate,
    stability_lambda2_bound,
)
from .poly import de_polynomial
from .solver import solve
from . import sos

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

_STATUS_EXIT = {
    "optimal": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "unbounded": EXIT_INFEASIBLE,
    "numerical-failure": EXIT_NUMERICAL,
}


class InputError(Exception):
    """Malformed command input; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _parse_distribution(raw: str, field: str) -> DegreeDistribution:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"field '{field}': invalid JSON ({exc})") from None
    try:
        dist = DegreeDistribution.from_json_dict(data, normalize=True)
    except ValueError as exc:
        raise InputError(f"field '{field}': {exc}") from None
    total = sum(float(v) for v in data.values())
    if abs(total - 1.0) > 1e-9:
        print(f"note: {field} coefficients sum to {total}; renormalized",
              file=sys.stderr)
    return dist


def _parse_epsilon(value: float, field: str = "epsilon",
                   allow_one: bool = False) -> float:
    eps = float(value)
    hi_ok = eps <= 1.0 if allow_one else eps < 1.0
    if not (0.0 <= eps and hi_ok):
        rng = "[0, 1]" if allow_one else "[0, 1)"
        raise InputError(f"field '{field}': must lie in {rng}, got {eps}")
    return eps


def _load_spec(args) -> EnsembleSpec:
    if args.spec is not None:
        try:
            with open(args.spec) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"field 'spec': cannot read {args.spec}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"field 'spec': invalid JSON ({exc})") from None
        for key in ("lambda", "rho", "epsilon"):
            if key not in data:
                raise InputError(f"field '{key}': missing from ensemble spec")
        lam = _parse_distribution(json.dumps(data["lambda"]), "lambda")
        rho = _parse_distribution(json.dumps(data["rho"]), "rho")
        eps = _parse_epsilon(data["epsilon"], allow_one=True)
        return EnsembleSpec(lam, rho, eps)
    if args.lam is None or args.rho is None or args.epsilon is None:
        raise InputError(
            "field 'spec': provide --spec FILE or all of --lambda, --rho, --epsilon")
    lam = _parse_distribution(args.lam, "lambda")
    rho = _parse_distribution(args.rho, "rho")
    eps = _parse_epsilon(args.epsilon, allow_one=True)
    return EnsembleSpec(lam, rho, eps)


def _emit(report: dict, output: str) -> None:
    if output == "csv":
        for key, value in sorted(_flatten(report).items()):
            print(f"{key},{value}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _flatten(data, prefix=""):
    out = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        else:
            out[name] = value
    return out


def _build(fields: str, builder, *args):
    """Run an SOS problem builder; a Gram block over ``sos.MAX_GRAM_DIM`` is
    an input error blamed on the degree fields that set its size."""
    try:
        return builder(*args)
    except sos.GramTooLarge as exc:
        raise InputError(f"{fields}: {exc}; lower the maximum degree") from None


def _taps_from_solution(solution, degrees) -> dict:
    # Interior-point outputs can overshoot the box by ~1e-9; clip before the
    # distribution invariants are enforced.
    values = np.clip(solution.x[: len(degrees)], 0.0, 1.0)
    taps = {d: float(v) for d, v in zip(degrees, values) if v > 1e-12}
    return taps


def _certificate_report(problem, solution, target_poly) -> dict:
    cert = sos.certificate_from_solution(problem, solution)
    rep = sos.verify_certificate(cert, target_poly)
    return {
        "psd_ok": rep.psd_ok,
        "reconstruction_ok": rep.reconstruction_ok,
        "min_eig": rep.min_eig,
        "max_residual": rep.max_residual,
    }


def _de_report(spec: EnsembleSpec) -> dict:
    rep = check_de_feasible(spec, mode="minimum")
    return {
        "feasible": rep.feasible,
        "worst_x": rep.worst_x,
        "worst_value": rep.worst_value,
        "endpoint_value": de_polynomial(spec.lam, spec.rho, spec.epsilon).evaluate(1.0),
    }


def _optimize_common(args, kind: str) -> int:
    t0 = time.perf_counter()
    if kind == "lambda":
        fixed = _parse_distribution(args.rho, "rho")
        eps = _parse_epsilon(args.epsilon)
        max_degree = args.max_var_degree
        if max_degree < 2:
            raise InputError("field 'max-var-degree': must be at least 2")
        problem = _build("field 'max-var-degree'", sos.build_lambda_problem,
                         fixed, eps, max_degree)
    else:
        fixed = _parse_distribution(args.lam, "lambda")
        eps = _parse_epsilon(args.epsilon)
        max_degree = args.max_check_degree
        if max_degree < 2:
            raise InputError("field 'max-check-degree': must be at least 2")
        problem = _build("field 'max-check-degree'", sos.build_rho_problem,
                         fixed, eps, max_degree)

    solution = solve(problem, tol=args.tol)
    report = {
        "command": f"optimize-{kind}",
        "inputs": {
            ("rho" if kind == "lambda" else "lambda"): fixed.to_json_dict(),
            "epsilon": eps,
            "max_degree": max_degree,
            "tol": args.tol,
        },
        "status": solution.status,
        "iterations": solution.iterations,
        "degenerate_epsilon": sos.is_degenerate_epsilon(eps),
    }
    if solution.message:
        report["message"] = solution.message
    if solution.status != "optimal":
        report["duration_seconds"] = time.perf_counter() - t0
        _emit(report, args.output)
        return _STATUS_EXIT[solution.status]

    degrees = list(range(2, max_degree + 1))
    taps = _taps_from_solution(solution, degrees)
    opt = DegreeDistribution(taps, normalize=True)
    if kind == "lambda":
        lam, rho = opt, fixed
    else:
        lam, rho = fixed, opt
    spec = EnsembleSpec(lam, rho, eps)
    rate = max(design_rate(lam, rho), 0.0)
    target = sos.lift_to_real_line(
        _constraint_poly(kind, lam, rho, eps, max_degree), problem.psd_dim - 1)
    report.update({
        "objective": solution.objective,
        "ensemble": spec.to_json_dict(),
        "rate": rate,
        "capacity": 1.0 - eps,
        "delta": capacity_gap(rate, eps),
        "stability_lambda2_bound": stability_lambda2_bound(rho, eps) if eps > 0 else None,
        "certificate": _certificate_report(problem, solution, target),
        "de_check": _de_report(spec),
        "duality_gap": solution.duality_gap,
        "eq_residual": solution.eq_residual,
    })
    report["duration_seconds"] = time.perf_counter() - t0
    verified = report["certificate"]["psd_ok"] and \
        report["certificate"]["reconstruction_ok"] and report["de_check"]["feasible"]
    if not verified:
        report["status"] = "verification-failed"
        _emit(report, args.output)
        print("error: optimal solution failed independent verification",
              file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(report, args.output)
    return EXIT_OK


def _constraint_poly(kind, lam, rho, eps, max_degree):
    if kind == "lambda":
        return de_polynomial(lam, rho, eps)
    # Check-side constraint polynomial: rho(1 - eps*lam(x)) - 1 + x.
    fam = sos.rho_constraint_family(lam, eps, max_degree)
    values = [rho.get(j, 0.0) for j in range(2, max_degree + 1)]
    return fam.at(values)


def cmd_optimize_lambda(args) -> int:
    return _optimize_common(args, "lambda")


def cmd_optimize_rho(args) -> int:
    return _optimize_common(args, "rho")


def cmd_threshold(args) -> int:
    t0 = time.perf_counter()
    lam = _parse_distribution(args.lam, "lambda")
    rho = _parse_distribution(args.rho, "rho")
    report = {
        "command": "threshold",
        "inputs": {"lambda": lam.to_json_dict(), "rho": rho.to_json_dict(),
                   "method": args.method, "tol": args.tol},
    }
    exit_code = EXIT_OK
    if args.method in ("sdp", "both"):
        problem = _build("fields 'lambda', 'rho'", sos.build_threshold_problem,
                         lam, rho)
        solution = solve(problem, tol=args.tol)
        sdp_rep = {"status": solution.status, "iterations": solution.iterations}
        if solution.message:
            sdp_rep["message"] = solution.message
        if solution.status == "optimal":
            t_star = float(solution.x[0])
            sdp_rep["t"] = t_star
            sdp_rep["epsilon"] = 1.0 / t_star
            fam = sos.threshold_constraint_family(lam, rho)
            target = sos.lift_to_real_line(fam.at([t_star]), problem.psd_dim - 1)
            cert = _certificate_report(problem, solution, target)
            sdp_rep["certificate"] = cert
            if not (cert["psd_ok"] and cert["reconstruction_ok"]):
                sdp_rep["status"] = "verification-failed"
                exit_code = EXIT_NUMERICAL
                print("error: SDP threshold failed certificate verification",
                      file=sys.stderr)
        else:
            exit_code = _STATUS_EXIT[solution.status]
        report["sdp"] = sdp_rep
    if args.method in ("bisect", "both"):
        report["bisect"] = {"epsilon": de_mod.bisect_threshold(lam, rho)}
    if args.method == "both" and "epsilon" in report.get("sdp", {}):
        report["agreement"] = abs(report["sdp"]["epsilon"] - report["bisect"]["epsilon"])
    report["duration_seconds"] = time.perf_counter() - t0
    _emit(report, args.output)
    return exit_code


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    spec = _load_spec(args)
    rate = design_rate(spec.lam, spec.rho)
    grid = check_de_feasible(spec, mode="grid")
    minimum = check_de_feasible(spec, mode="minimum")
    threshold = de_mod.bisect_threshold(spec.lam, spec.rho)
    report = {
        "command": "verify",
        "ensemble": spec.to_json_dict(),
        "rate": rate,
        "capacity": 1.0 - spec.epsilon if spec.epsilon < 1.0 else 0.0,
        "delta": capacity_gap(rate, spec.epsilon) if spec.epsilon < 1.0 else None,
        "stability": {
            "lambda2": spec.lam.get(2, 0.0),
            "bound": stability_lambda2_bound(spec.rho, spec.epsilon)
            if spec.epsilon > 0 else None,
        },
        "de_grid": {"feasible": grid.feasible, "worst_x": grid.worst_x,
                    "worst_value": grid.worst_value},
        "de_minimum": {"feasible": minimum.feasible, "worst_x": minimum.worst_x,
                       "worst_value": minimum.worst_value},
        "threshold": threshold,
        "threshold_margin": threshold - spec.epsilon,
        "duration_seconds": time.perf_counter() - t0,
    }
    _emit(report, args.output)
    return EXIT_OK if minimum.feasible else EXIT_INFEASIBLE


def cmd_sweep(args) -> int:
    lam_degrees = args.max_var_degree
    rho = _parse_distribution(args.rho, "rho")
    eps = _parse_epsilon(args.epsilon)
    if lam_degrees < 2:
        raise InputError("field 'max-var-degree': must be at least 2")
    try:
        sizes = [int(tok) for tok in args.grid_sizes.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"field 'grid-sizes': {exc}") from None
    if any(n < 1 for n in sizes):
        raise InputError("field 'grid-sizes': entries must be >= 1")

    # Reference row from the exact program (written with the N = inf sentinel),
    # built first so that an oversized program is refused before the sweep.
    problem = _build("field 'max-var-degree'", sos.build_lambda_problem,
                     rho, eps, lam_degrees)
    rows = de_mod.lp_baseline_sweep(rho, eps, lam_degrees, sizes, tol=args.tol)
    solution = solve(problem, tol=args.tol)
    degrees = list(range(2, lam_degrees + 1))
    if solution.status == "optimal":
        taps = _taps_from_solution(solution, degrees)
        lam = DegreeDistribution(taps, normalize=True)
        ref = de_mod.LpSweepRow("inf", "optimal", float(solution.objective),
                                float(design_rate(lam, rho)), taps)
    else:
        ref = de_mod.LpSweepRow("inf", solution.status, None, None, None)

    all_rows = rows + [ref]
    if args.output == "json":
        payload = [
            {"N": row.n_points, "status": row.status, "rate": row.rate,
             "objective": row.objective, "lambda": row.lam}
            for row in all_rows
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        de_mod.sweep_rows_to_csv(all_rows, lam_degrees, sys.stdout)
    succeeded = sum(1 for row in all_rows if row.status == "optimal")
    return EXIT_OK if succeeded else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ldpcopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--tol", type=float, default=1e-8,
                       help="solver tolerance (default 1e-8)")
        p.add_argument("--output", choices=("json", "csv"), default="json",
                       help="report format on stdout")

    p = sub.add_parser("optimize-lambda",
                       help="maximize the design rate over variable-side distributions")
    p.add_argument("--rho", required=True, help="check distribution, JSON by node degree")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-var-degree", type=int, required=True)
    add_shared(p)
    p.set_defaults(func=cmd_optimize_lambda)

    p = sub.add_parser("optimize-rho",
                       help="minimize check-side edge mass at fixed lambda")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="variable distribution, JSON by node degree")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-check-degree", type=int, required=True)
    add_shared(p)
    p.set_defaults(func=cmd_optimize_rho)

    p = sub.add_parser("threshold", help="maximum tolerable erasure probability")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--method", choices=("sdp", "bisect", "both"), default="both")
    add_shared(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("verify", help="verify an ensemble spec end to end")
    p.add_argument("--spec", help="ensemble JSON file")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--rho")
    p.add_argument("--epsilon", type=float)
    add_shared(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="discretized-LP baseline over grid sizes")
    p.add_argument("--rho", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-var-degree", type=int, required=True)
    p.add_argument("--grid-sizes", required=True,
                   help="comma-separated list of grid sizes")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="solver tolerance (default 1e-8)")
    p.add_argument("--output", choices=("json", "csv"), default="csv",
                   help="table format on stdout (default csv)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Anything else is a defect or a numerical breakdown, not bad input:
        # report it on one line and exit as a numerical failure.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
