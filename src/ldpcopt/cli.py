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
import functools
import json
import os
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
    parse_epsilon,
    read_taps,
    stability_lambda2_bound,
)
from .solver import DEFAULT_TOL, solve
from . import sos

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

# Largest accepted --tol. At 0.7 the (3, 6) threshold program already ends
# "infeasible", and at 10 the README optimize-lambda ends "unbounded"; 1e-2
# keeps a 70x margin below the first wrong certificate seen.
MAX_TOL = 1e-2

_STATUS_EXIT = {
    "optimal": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "unbounded": EXIT_INFEASIBLE,
    "numerical-failure": EXIT_NUMERICAL,
    "verification-failed": EXIT_NUMERICAL,
}

# The working rung of optimize-lambda (``_solve_lambda``): the degrees
# 2..FIRST_RUNG, solved before the full program. The optima at rho = x^5,
# eps = 0.48 and rho = x^3, eps = 0.6 sit on degrees 2..8 and 2..5 at
# every Dv. Rung 8 answers them in one solve of about 16 ms (Gram blocks
# 18 and 17 at rho = x^5) and a Newton pricing of about 0.4 ms, where the
# full programs take 64-88 ms at Dv = 14 and 20 and 0.57 s at Dv = 52
# (2 vCPUs). An optimum on higher degrees pays the rung on top of the full
# program: 100 ms against 71 ms at rho = x^10, eps = 0.3, Dv = 12, and 520
# against 483 ms at Dv = 26. At rho = x^5, eps = 0.5, Dv = 52 (480 against
# 477 ms) the optimum takes degrees up to 9, and no measured rung of 16
# answered it; so one rung is tried, not a doubling ladder.
FIRST_RUNG = 8


class InputError(Exception):
    """Malformed command input; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _tolerance(raw: str) -> float:
    """argparse type of --tol: a finite float in (0, MAX_TOL]."""
    try:
        tol = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {raw!r}") from None
    if not 0.0 < tol <= MAX_TOL:   # false for nan too
        raise argparse.ArgumentTypeError(
            f"must lie in (0, {MAX_TOL:g}], got {raw!r}")
    return tol


def _parse_distribution(raw: str, field: str) -> DegreeDistribution:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"field '{field}': invalid JSON ({exc})") from None
    return _distribution(data, field)


def _distribution(data, field: str) -> DegreeDistribution:
    """Validate a decoded distribution object, from a flag or a spec file."""
    if not isinstance(data, dict):
        raise InputError(f"field '{field}': must be a JSON object, got {data!r}")
    try:
        dist = DegreeDistribution.from_json_dict(data, normalize=True)
    except ValueError as exc:
        raise InputError(f"field '{field}': {exc}") from None
    total = sum(float(v) for v in data.values())
    if abs(total - 1.0) > 1e-9:
        print(f"note: {field} coefficients sum to {total}; renormalized",
              file=sys.stderr)
    return dist


def _parse_epsilon(value, allow_one: bool = False) -> float:
    try:
        return parse_epsilon(value, allow_one=allow_one)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_spec(args) -> EnsembleSpec:
    if args.spec is not None:
        try:
            with open(args.spec) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"field 'spec': cannot read {args.spec}: {exc}") from None
        except ValueError as exc:   # JSON or UTF-8 decoding
            raise InputError(f"field 'spec': invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise InputError("field 'spec': must be a JSON object")
        for key in ("lambda", "rho", "epsilon"):
            if key not in data:
                raise InputError(f"field '{key}': missing from ensemble spec")
        lam = _distribution(data["lambda"], "lambda")
        rho = _distribution(data["rho"], "rho")
        eps = data["epsilon"]
    elif args.lam is None or args.rho is None or args.epsilon is None:
        raise InputError(
            "field 'spec': provide --spec FILE or all of --lambda, --rho, --epsilon")
    else:
        lam = _parse_distribution(args.lam, "lambda")
        rho = _parse_distribution(args.rho, "rho")
        eps = args.epsilon
    return EnsembleSpec(lam, rho, _parse_epsilon(eps, allow_one=True))


def _emit(report: dict, output: str) -> None:
    if output == "csv":
        # A value that is not a string goes out as its JSON literal (true,
        # null), so that it reads as in the JSON report.
        for key, value in sorted(_flatten(report).items()):
            print(f"{key},{value if isinstance(value, str) else json.dumps(value)}")
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


def _solve_verified(kind: str, fields: str, tol: float, *args) -> tuple:
    """Build and solve the ``kind`` program of ``sos`` ("lambda", "rho" or
    "threshold") on ``args``, then verify an optimal answer.

    The Gram certificate is checked against the program's constraint family
    at the solver's values. A design's taps are read back into an ensemble,
    which the DE check tests. Returns (status, solution, checks, spec): the
    solver's status, or "verification-failed" when an optimal answer fails a
    check; the check reports; and the design's ensemble. ``checks`` holds
    no check report and ``spec`` is None unless the solve was optimal. The
    lambda program is solved on a working set of degrees first
    (``_solve_lambda``), whose ``working_set`` block joins ``checks`` when
    Dv is above the first rung, as does an ``infeasibility`` witness when
    it fails. A Gram block over ``sos.MAX_GRAM_DIM`` is an input error
    blamed on ``fields``.
    """
    try:
        if kind == "lambda":
            return _solve_lambda(tol, *args)
        return _solve_program(kind, tol, *args)[:4]
    except sos.GramTooLarge as exc:
        raise InputError(f"{fields}: {exc}; lower the maximum degree") from None


def _solve_program(kind: str, tol: float, *args) -> tuple:
    """One program of ``_solve_verified``: its four results, then the DE
    check's report (None unless a design's solve was optimal)."""
    # The sos builders and the checks are looked up when this runs, so that
    # wrappers set on their modules (perfbench's tracer) take effect. The
    # constraint family is built once, for the program and the certificate.
    family = getattr(sos, f"{kind}_constraint_family")(*args)
    problem = getattr(sos, f"build_{kind}_problem")(*args, family)
    solution = solve(problem, tol=tol)
    if solution.status != "optimal":
        return solution.status, solution, {}, None, None
    values = solution.x[: family.shape[1] - 1]
    cert = sos.verify_certificate(solution.psd_matrices(problem),
                                  family @ np.concatenate(([1.0], values)))
    checks = {"certificate": {
        "psd_ok": cert.psd_ok,
        "reconstruction_ok": cert.reconstruction_ok,
        "min_eig": cert.min_eig,
        "max_residual": cert.max_residual,
    }}
    verified, spec, de = cert.ok, None, None
    if kind != "threshold":
        fixed, eps, _ = args
        design = read_taps(values)
        spec = (EnsembleSpec(design, fixed, eps) if kind == "lambda"
                else EnsembleSpec(fixed, design, eps))
        de = check_de_feasible(spec)
        checks["de_check"] = {
            "feasible": de.feasible,
            "worst_x": de.worst_x,
            "worst_value": de.worst_value,
            "endpoint_value": de.endpoint_value,
        }
        verified = verified and de.feasible
    status = "optimal" if verified else "verification-failed"
    return status, solution, checks, spec, de


def _solve_lambda(tol: float, rho: DegreeDistribution, eps: float,
                  max_degree: int) -> tuple:
    """The lambda program of ``_solve_verified``, solved on the degrees
    2..FIRST_RUNG when ``max_degree`` is above FIRST_RUNG, and otherwise, or
    when that rung does not answer, on all of them.

    A verified first rung is priced by ``de.price_working_set``: a few
    Newton steps on the KKT system of the rung design's active set give
    multipliers, and weak duality at them an upper bound UB on every
    DE-feasible design with degrees up to ``max_degree``. The rung answers
    when UB <= obj + tol (1 + |obj|), obj its objective. Any other outcome
    of the rung moves on to the full program, the last rung. The
    ``working_set`` block gives each rung's status and iterations, and for
    a verified first rung its objective, UB and the ``pricing`` block
    (support, touching points, multipliers, Newton steps and residual); then
    the accepted rung and its UB (None for the full program, which leaves no
    degree to price).

    When the last program ends short of optimal and
    ``de.infeasibility_witness`` proves that no design with degrees up to
    ``max_degree`` decodes at ``eps``, the status is "infeasible" and the
    witness joins ``checks`` as ``infeasibility``.
    """
    # An oversized full program, the rung the others fall back to, is
    # refused before any rung is solved.
    sos.constraint_degree(max_degree, rho.max_degree)
    rungs = {}
    if FIRST_RUNG < max_degree:
        status, solution, checks, spec, de = _solve_program("lambda", tol, rho, eps, FIRST_RUNG)
        rungs[FIRST_RUNG] = rung = {"status": status, "iterations": solution.iterations,
                                    "upper_bound": None}
        if status == "optimal":
            pricing = de_mod.price_working_set(rho, eps, max_degree, spec.lam, de)
            bound = pricing.upper_bound
            rung.update(objective=solution.objective, upper_bound=bound,
                        pricing=pricing.report())
            if bound <= solution.objective + tol * (1.0 + abs(solution.objective)):
                checks["working_set"] = {"rungs": rungs, "accepted": FIRST_RUNG,
                                         "upper_bound": bound}
                return status, solution, checks, spec
    status, solution, checks, spec, _ = _solve_program("lambda", tol, rho, eps, max_degree)
    if rungs:
        rungs[max_degree] = {"status": status, "iterations": solution.iterations}
        checks["working_set"] = {
            "rungs": rungs, "accepted": max_degree if status == "optimal" else None,
            "upper_bound": None}
    if status != "optimal":
        witness = de_mod.infeasibility_witness(rho, eps, max_degree)
        if witness is not None:
            status, checks["infeasibility"] = "infeasible", witness
    return status, solution, checks, spec


def _exit_code(status: str) -> int:
    """The exit code of a final status; a failed verification is named on
    stderr."""
    if status == "verification-failed":
        print("error: optimal solution failed independent verification",
              file=sys.stderr)
    return _STATUS_EXIT[status]


def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    kind = args.side
    fixed_field, degree_field = (("rho", "max-var-degree") if kind == "lambda"
                                 else ("lambda", "max-check-degree"))
    fixed = _parse_distribution(args.fixed, fixed_field)
    eps = _parse_epsilon(args.epsilon)
    if args.max_degree < 2:
        raise InputError(f"field '{degree_field}': must be at least 2")
    status, solution, checks, spec = _solve_verified(
        kind, f"field '{degree_field}'", args.tol, fixed, eps, args.max_degree)
    report = {
        "command": f"optimize-{kind}",
        "inputs": {
            fixed_field: fixed.to_json_dict(),
            "epsilon": eps,
            "max_degree": args.max_degree,
            "tol": args.tol,
        },
        "status": status,
        "iterations": solution.iterations,
        # eps = 0 leaves every distribution feasible: flagged, not refused.
        "degenerate_epsilon": eps == 0.0,
        **checks,
    }
    if solution.message:
        report["message"] = solution.message
    if spec is not None:
        # A design below rate 0 is reported at 0, with its own rate beside it.
        unclamped = design_rate(spec.lam, spec.rho)
        rate = max(unclamped, 0.0)
        report.update({
            "objective": solution.objective,
            "ensemble": spec.to_json_dict(),
            "rate": rate,
            "capacity": 1.0 - eps,
            "delta": capacity_gap(rate, eps),
            "stability_lambda2_bound":
                stability_lambda2_bound(spec.rho, eps) if eps > 0 else None,
            "duality_gap": solution.duality_gap,
            "eq_residual": solution.eq_residual,
        })
        if rate != unclamped:
            report["unclamped_rate"] = unclamped
    report["duration_seconds"] = time.perf_counter() - t0
    _emit(report, args.output)
    return _exit_code(status)


def cmd_threshold(args) -> int:
    t0 = time.perf_counter()
    lam = _parse_distribution(args.lam, "lambda")
    rho = _parse_distribution(args.rho, "rho")
    report = {
        "command": "threshold",
        "inputs": {"lambda": lam.to_json_dict(), "rho": rho.to_json_dict(),
                   "method": args.method, "tol": args.tol},
    }
    if args.method in ("sdp", "both"):
        status, solution, checks, _ = _solve_verified(
            "threshold", "fields 'lambda', 'rho'", args.tol, lam, rho)
        sdp_rep = {"status": status, "iterations": solution.iterations, **checks}
        if solution.message:
            sdp_rep["message"] = solution.message
        if checks:
            t_star = float(solution.x[0])
            sdp_rep["t"] = t_star
            sdp_rep["epsilon"] = 1.0 / t_star
        report["sdp"] = sdp_rep
    if args.method in ("bisect", "both"):
        report["bisect"] = {"epsilon": de_mod.bisect_threshold(lam, rho)}
    if args.method == "both" and "epsilon" in report.get("sdp", {}):
        report["agreement"] = abs(report["sdp"]["epsilon"] - report["bisect"]["epsilon"])
    report["duration_seconds"] = time.perf_counter() - t0
    _emit(report, args.output)
    return _exit_code(report["sdp"]["status"]) if "sdp" in report else EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    spec = _load_spec(args)
    rate = design_rate(spec.lam, spec.rho)
    de_check = check_de_feasible(spec)
    threshold = de_mod.bisect_threshold(spec.lam, spec.rho)
    report = {
        "command": "verify",
        "ensemble": spec.to_json_dict(),
        "rate": rate,
        "capacity": 1.0 - spec.epsilon if spec.epsilon < 1.0 else 0.0,
        "delta": capacity_gap(rate, spec.epsilon)
        if spec.epsilon < 1.0 and rate >= 0.0 else None,
        "stability": {
            "lambda2": spec.lam.get(2, 0.0),
            "bound": stability_lambda2_bound(spec.rho, spec.epsilon)
            if spec.epsilon > 0 else None,
        },
        "de_grid": {"feasible": de_check.grid_feasible, "worst_x": de_check.grid_x,
                    "worst_value": de_check.grid_value},
        "de_minimum": {"feasible": de_check.feasible, "worst_x": de_check.worst_x,
                       "worst_value": de_check.worst_value},
        "threshold": threshold,
        "threshold_margin": threshold - spec.epsilon,
        "duration_seconds": time.perf_counter() - t0,
    }
    _emit(report, args.output)
    return EXIT_OK if de_check.feasible else EXIT_INFEASIBLE


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

    # Reference row from the exact program (written with the N = inf
    # sentinel), solved first so that an oversized program is refused before
    # the sweep. It is verified like any optimal design.
    status, solution, _, spec = _solve_verified(
        "lambda", "field 'max-var-degree'", args.tol, rho, eps, lam_degrees)
    rows = de_mod.lp_baseline_sweep(rho, eps, lam_degrees, sizes, tol=args.tol)
    ref = de_mod.LpSweepRow("inf", status, None, None, None)
    if status == "optimal":
        ref = de_mod.LpSweepRow("inf", status, float(solution.objective),
                                float(design_rate(spec.lam, rho)), spec.lam)

    all_rows = rows + [ref]
    # One record per row. Its lambda keys stay integers, so that JSON sorts
    # them numerically.
    records = [{"N": row.n_points, "status": row.status, "rate": row.rate,
                "objective": row.objective,
                "lambda": None if row.lam is None else dict(row.lam.items())}
               for row in all_rows]
    if args.output == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        degrees = range(2, lam_degrees + 1)
        print(",".join(["N", "rate", "objective",
                        *(f"lambda_{i}" for i in degrees), "status"]))
        for rec in records:
            cells = [""] * (2 + len(degrees))
            if rec["status"] == "optimal":
                lam = rec["lambda"]
                cells = [f"{v:.6g}" for v in (rec["rate"], rec["objective"],
                                              *(lam.get(i, 0.0) for i in degrees))]
            print(",".join([str(rec["N"]), *cells, rec["status"]]))
    # A failed verification of the exact row sets the exit code; so does the
    # exact program's status when no row is optimal.
    if ref.status != "verification-failed" and any(
            row.status == "optimal" for row in all_rows):
        return EXIT_OK
    return _exit_code(ref.status)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: setting it up costs more
    than most parses, and parsing leaves it unchanged. The command functions
    look up ``solve`` and the other library calls when they run, not here."""
    parser = _Parser(prog="ldpcopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, output="json"):
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help=f"solver tolerance in (0, {MAX_TOL:g}] (default {DEFAULT_TOL:g})")
        p.add_argument("--output", choices=("json", "csv"), default=output,
                       help=f"report format on stdout (default {output})")

    p = sub.add_parser("optimize-lambda",
                       help="maximize the design rate over variable-side distributions")
    p.add_argument("--rho", dest="fixed", metavar="RHO", required=True,
                   help="check distribution, JSON by node degree")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-var-degree", dest="max_degree", metavar="MAX_VAR_DEGREE",
                   type=int, required=True)
    add_shared(p)
    p.set_defaults(func=cmd_optimize, side="lambda")

    p = sub.add_parser("optimize-rho",
                       help="minimize check-side edge mass at fixed lambda")
    p.add_argument("--lambda", dest="fixed", metavar="LAM", required=True,
                   help="variable distribution, JSON by node degree")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-check-degree", dest="max_degree",
                   metavar="MAX_CHECK_DEGREE", type=int, required=True)
    add_shared(p)
    p.set_defaults(func=cmd_optimize, side="rho")

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
    add_shared(p, output="csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader of stdout went away (`ldpcopt ... | head`): an I/O
        # error, not a numerical failure. Stdout now points at devnull, so
        # the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except Exception as exc:
        # Anything else is a defect or a numerical breakdown, not bad input:
        # report it on one line and exit as a numerical failure.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
