"""Command-line interface: pipelines, exit codes, report invariants."""

import csv
import dataclasses
import functools
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldpcopt import cli, de, ensemble, solver, sos
from ldpcopt.cli import main
from ldpcopt.de import lp_baseline_sweep
from ldpcopt.ensemble import DegreeDistribution, design_rate

from conftest import random_distribution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_lambda_reference(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "0.49", "--max-var-degree", "7")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["rate"] == pytest.approx(0.4922, abs=2e-3)
    assert report["delta"] == pytest.approx(0.0349, abs=2e-3)
    assert report["certificate"]["psd_ok"]
    assert report["certificate"]["reconstruction_ok"]
    assert report["de_check"]["feasible"]


def test_negative_design_rate_is_reported_beside_the_clamp(capsys):
    # Degree-3 checks at eps = 0.9 decode only designs of negative rate,
    # 1 - (1/3) / 0.30620 = -0.089: `rate` stays clamped at 0, and the
    # report says so with the design's own rate.
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"3": 1.0}',
        "--epsilon", "0.9", "--max-var-degree", "5")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["rate"] == 0.0 and report["delta"] == 1.0
    assert report["unclamped_rate"] == pytest.approx(
        1.0 - (1.0 / 3.0) / report["objective"], abs=1e-12)
    assert report["unclamped_rate"] == pytest.approx(-0.0886, abs=1e-4)
    # A design of positive rate carries no such field.
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "0.49", "--max-var-degree", "7")
    assert code == 0 and "unclamped_rate" not in json.loads(out)


def test_optimize_lambda_degenerate_epsilon(capsys):
    # With rho = x every distribution decodes at eps = 0 and at eps = 0.3
    # (P(x) / x >= 1 - eps), but only eps = 0 is flagged degenerate.
    for eps, degenerate in (("0.0", True), ("0.3", False)):
        code, out, _ = run_cli(
            capsys, "optimize-lambda", "--rho", '{"2": 1.0}',
            "--epsilon", eps, "--max-var-degree", "3")
        assert code == 0
        report = json.loads(out)
        assert report["degenerate_epsilon"] is degenerate
        assert report["objective"] == pytest.approx(0.5, abs=1e-6)


def test_optimize_rho(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-rho",
        "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--epsilon", "0.49", "--max-check-degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["objective"] <= 1.0 / 6.0 + 1e-3


def test_optimize_rho_regular_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-rho", "--lambda", '{"3": 1.0}',
        "--epsilon", "0.4294", "--max-check-degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["objective"] == pytest.approx(1.0 / 6.0, abs=2e-3)


def test_threshold_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
        "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert report["sdp"]["epsilon"] == pytest.approx(0.4294, abs=1e-3)
    assert report["bisect"]["epsilon"] == pytest.approx(0.4294, abs=1e-3)
    assert report["agreement"] <= 1e-4


@pytest.mark.parametrize("lam", ['{"2": 1.0}', '{"2": 0.5, "3": 0.5}'])
def test_threshold_at_one_needs_no_lower_bound_on_t(capsys, lam):
    # Degree-2 checks decode every erasure rate below 1, so t* = 1: the
    # threshold program's constraint at x = 1, t - 1 >= 0, is the bound
    # that binds, with no t >= 1 posed beside it.
    code, out, _ = run_cli(capsys, "threshold", "--lambda", lam,
                           "--rho", '{"2": 1.0}', "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert report["sdp"]["status"] == "optimal"
    assert abs(report["sdp"]["epsilon"] - 1.0) <= 1e-9
    assert report["agreement"] <= 1e-9


def test_verify_feasible(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--rho", '{"6": 1.0}', "--epsilon", "0.49")
    assert code == 0
    report = json.loads(out)
    assert report["de_grid"]["feasible"] and report["de_minimum"]["feasible"]
    assert report["threshold_margin"] > 0.0


def test_verify_infeasible_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--rho", '{"6": 1.0}', "--epsilon", "0.60")
    assert code == 2
    report = json.loads(out)
    assert not report["de_minimum"]["feasible"]
    assert report["de_minimum"]["worst_value"] < 0.0


def test_verify_fails_a_broken_stability_condition(capsys):
    # lam_2 = 0.904 lies above its stability bound 1 / (eps rho'(1)) =
    # 0.9039848, and eps lies 7.6e-6 above the threshold. P(x) itself dips
    # below 0 only by about (1 - eps lam_2 rho'(1)) x, inside the tolerance
    # near x = 0; F = P / x reads the violation at x = 0.
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.904, "3": 0.096}',
        "--rho", '{"2": 0.011, "3": 0.529, "4": 0.46}', "--epsilon", "0.4517")
    assert code == 2
    report = json.loads(out)
    assert report["stability"]["lambda2"] > report["stability"]["bound"]
    assert report["threshold_margin"] < 0.0
    for key in ("de_grid", "de_minimum"):
        assert not report[key]["feasible"] and report[key]["worst_x"] == 0.0


def test_optimize_rho_design_breaking_stability_is_not_reported(tmp_path, capsys):
    # Posed as Q, whose Q(0) = 0 on the simplex, this program has no
    # strictly feasible point, and its answer turns on rounding (a design
    # with eps lam_2 rho'(1) = 1.000019 > 1, or a numerical failure). Posed
    # as Q / x, whose value at 0 is the stability margin, it is solved and
    # verified, and `verify` of the printed design passes.
    code, out, _ = run_cli(
        capsys, "optimize-rho",
        "--lambda", '{"7": 0.7035163711045316, "2": 0.2964836288954685}',
        "--epsilon", "0.95", "--max-check-degree", "7")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["objective"] == pytest.approx(0.25814090, abs=1e-8)
    assert report["de_check"]["feasible"]
    rho = DegreeDistribution(report["ensemble"]["rho"])
    assert 0.95 * 0.2964836288954685 * rho.derivative_at_one() <= 1.0
    path = tmp_path / "designed.json"
    path.write_text(json.dumps(report["ensemble"]))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["de_minimum"]["feasible"]


# The lambda that `optimize-lambda --rho '{"6": 1}' --epsilon 0.48
# --max-var-degree 8` prints; rho = x^5 is strictly DE-feasible with it at
# eps = 0.45 and 0.47.
LAMBDA_AT_CHECK6_EPS048 = (
    '{"2": 0.41268502494175546, "3": 0.18640611445808108, "4": 0.09990504299406247, '
    '"5": 7.3835768451918366e-09, "6": 1.171897806294246e-08, "7": 0.17411862275664, '
    '"8": 0.12688517574690594}')


@pytest.mark.parametrize("eps, max_check_degree", [("0.45", "8"), ("0.47", "12")])
def test_optimize_rho_pairs_with_an_optimized_lambda(capsys, eps, max_check_degree):
    # rho = x^5 is strictly feasible here, so the Q / x program has an
    # interior and must be answered (posed as Q it has none, and ends in a
    # failed factorization at 0.45 and a failed DE check at 0.47).
    code, out, _ = run_cli(
        capsys, "optimize-rho", "--lambda", LAMBDA_AT_CHECK6_EPS048,
        "--epsilon", eps, "--max-check-degree", max_check_degree)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["certificate"]["psd_ok"] and report["certificate"]["reconstruction_ok"]
    assert report["de_check"]["feasible"]
    # rho = x^5 is feasible, so the optimum is at most its sum rho_j / j.
    assert report["objective"] <= 1.0 / 6.0 + 1e-8


def test_verify_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "lambda": {"2": 0.4021, "3": 0.2137, "7": 0.3902},
        "rho": {"6": 1.0},
        "epsilon": 0.49,
    }))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["de_minimum"]["feasible"]


def test_round_trip_optimize_then_verify(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"4": 1.0}',
        "--epsilon", "0.64", "--max-var-degree", "5")
    assert code == 0
    ensemble = json.loads(out)["ensemble"]
    path = tmp_path / "designed.json"
    path.write_text(json.dumps(ensemble))
    code2, out2, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code2 == 0
    assert json.loads(out2)["de_minimum"]["feasible"]


def test_reports_byte_identical_modulo_duration(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
            "--method", "both")
        assert code == 0
        outs.append(json.loads(out))
    for rep in outs:
        rep.pop("duration_seconds")
    assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)


def test_malformed_distribution_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": "lots"}',
        "--epsilon", "0.49", "--max-var-degree", "7")
    assert code == 1
    assert "rho" in err
    # A degree given twice ("3" and "03"), a key with an underscore and a
    # bool coefficient are each refused.
    for lam in ('{"2": 0.5, "3": 0.5, "03": 0.5}', '{"2": 0.9, "3_0": 0.1}',
                '{"3": true}'):
        code, _, err = run_cli(capsys, "verify", "--lambda", lam, "--rho", '{"6": 1.0}',
                               "--epsilon", "0.3")
        assert code == 1, lam
        assert "field 'lambda'" in err, lam


def test_bad_epsilon_exit_one(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "1.4", "--max-var-degree", "7")
    assert code == 1
    assert "epsilon" in err
    # In a spec file, a bool is not a number, and an int too large for a
    # float is refused as input.
    path = tmp_path / "spec.json"
    for eps in (True, 10 ** 400):
        path.write_text(json.dumps({"lambda": {"3": 1.0}, "rho": {"6": 1.0}, "epsilon": eps}))
        code, _, err = run_cli(capsys, "verify", "--spec", str(path))
        assert code == 1, eps
        assert "field 'epsilon'" in err, eps


def test_missing_spec_fields_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"lambda": {"2": 1.0}}))
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 1
    assert "rho" in err


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "10,20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,rate,objective,lambda_2")
    assert lines[1].split(",")[0] == "10"
    assert lines[-1].split(",")[0] == "inf"
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates[0] >= rates[-1] - 1e-9


def test_sweep_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,rate,objective,lambda_2,lambda_3,lambda_4,lambda_5,status"
    cells = lines[1].split(",")
    assert cells[0] == "10" and cells[-1] == "optimal"
    row, = lp_baseline_sweep(DegreeDistribution({5: 1.0}), 0.56, 5, [10])
    assert float(cells[1]) == pytest.approx(row.rate, rel=1e-5)


def test_sweep_rows_print_the_taps_of_their_rate(capsys):
    # Each optimal row prints the read-back that its rate is the design rate
    # of: no tap at or below the 1e-12 drop, and the same rate to the bit.
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "10,50,100,500,1000",
        "--output", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["status"] for row in rows] == ["optimal"] * 6
    rho = DegreeDistribution({5: 1.0})
    for row in rows:
        assert all(tap > 1e-12 for tap in row["lambda"].values()), row["N"]
        assert design_rate(DegreeDistribution(row["lambda"]), rho) == row["rate"]


def test_sweep_reference_row_only(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "inf"


def test_report_output_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--rho", '{"6": 1.0}', "--epsilon", "0.49", "--output", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["de_minimum.feasible"] == "true"
    assert float(rows["rate"]) == pytest.approx(0.4889, abs=1e-3)
    # Every value that is not a string is written as its JSON literal.
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"2": 1.0}', "--epsilon", "0.0",
        "--max-var-degree", "3", "--output", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["stability_lambda2_bound"] == "null"
    assert rows["degenerate_epsilon"] == "true"
    assert rows["status"] == "optimal"


def test_csv_report_writes_one_field_per_value(capsys):
    # The rung's pricing block holds lists; each element is its own row, so
    # that no JSON array's commas split a row into extra fields.
    code, out, _ = run_cli(capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
                           "--epsilon", "0.48", "--max-var-degree", "12", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows), [row for row in rows if len(row) != 2]
    rows = dict(rows)
    assert rows["working_set.rungs.8.pricing.support.0"] == "2"


def test_threshold_reference_design(capsys):
    code, out, _ = run_cli(
        capsys, "threshold",
        "--lambda", '{"2": 0.5208, "3": 0.1458, "5": 0.3333}',
        "--rho", '{"4": 1.0}', "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert abs(report["sdp"]["epsilon"] - report["bisect"]["epsilon"]) <= 1e-4
    assert report["sdp"]["epsilon"] >= 0.64 - 1e-3


def test_verify_twelve_tap_design(capsys):
    lam = ('{"2": 0.4167, "3": 0.1667, "4": 0.1000, "5": 0.0700,'
           ' "6": 0.0532, "7": 0.0426, "8": 0.0353, "9": 0.0300,'
           ' "10": 0.0260, "11": 0.0229, "12": 0.0204, "13": 0.0165}')
    code, out, err = run_cli(
        capsys, "verify", "--lambda", lam, "--rho", '{"6": 1.0}',
        "--epsilon", "0.48")
    assert code == 0
    report = json.loads(out)
    assert report["de_minimum"]["feasible"]
    assert report["rate"] == pytest.approx(0.4998, abs=1e-3)
    # Quoted taps sum to 1.0003; ingestion renormalizes and says so.
    assert "renormalized" in err


def test_optimize_lambda_large_degree_cap(capsys):
    # Constraint polynomials of degree 75 to 195. The lifted program, with
    # binomial coefficients up to 5.0e44 at Dv = 34, failed from Dv = 40 on.
    for dv in (16, 26, 34, 40):
        code, out, _ = run_cli(
            capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
            "--epsilon", "0.48", "--max-var-degree", str(dv))
        assert code == 0, dv
        report = json.loads(out)
        assert report["status"] == "optimal"
        assert report["objective"] == pytest.approx(0.3341888841, abs=1e-8)
        # The optimum sits on degrees <= 8, and the first rung holds them.
        assert report["working_set"]["accepted"] == 8, dv


def test_design_verified_at_one_blas_thread():
    # The Dv = 20 design once failed its Gram reconstruction check at one
    # BLAS thread: its equality residual was met only to the solver
    # tolerance, which the monomial-basis certificate amplifies.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ldpcopt.cli", "optimize-lambda",
         "--rho", '{"4": 1.0}', "--epsilon", "0.6", "--max-var-degree", "20"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "optimal"
    assert report["certificate"]["reconstruction_ok"]


def test_large_design_verified_at_one_blas_thread():
    # The Dv = 40 design ended numerical-failure at one BLAS thread when it
    # was posed through the [0, 1] -> R lift.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ldpcopt.cli", "optimize-lambda",
         "--rho", '{"6": 1.0}', "--epsilon", "0.48", "--max-var-degree", "40"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "optimal"
    assert report["certificate"]["psd_ok"] and report["certificate"]["reconstruction_ok"]
    assert report["de_check"]["feasible"]


@functools.lru_cache(maxsize=None)
def _a8_working_set_cases() -> tuple:
    """rho from the A8 generator, eps ~ U(0.05, 0.7), Dv in 9..16: for each
    of 40 lambda programs, (rho, eps, Dv), the working set's (status,
    solution, checks) and the full program's (status, solution)."""
    rng = np.random.default_rng(29)
    tol = solver.DEFAULT_TOL
    cases = []
    for _ in range(40):
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        eps, dv = float(rng.uniform(0.05, 0.7)), int(rng.integers(9, 17))
        status, solution, checks, _ = cli._solve_verified(
            "lambda", "field 'max-var-degree'", tol, rho, eps, dv)
        full_status, full, _, _, _ = cli._solve_program("lambda", tol, rho, eps, dv)
        cases.append(((rho, eps, dv), (status, solution, checks), (full_status, full)))
    return tuple(cases)


def test_working_set_answers_as_the_full_program():
    # The rungs end in the status of the full program and its checks, their
    # objective is the full program's within tol (1 + |obj|), and no rung's
    # bound UB falls below the full objective by more than that.
    tol = solver.DEFAULT_TOL
    for case, (_, (status, solution, checks), (full_status, full)) in enumerate(
            _a8_working_set_cases()):
        assert status == full_status, case
        if status != "optimal":
            continue
        slack = tol * (1.0 + abs(full.objective))
        assert abs(solution.objective - full.objective) <= slack, case
        bounds = [rung["upper_bound"] for rung in checks["working_set"]["rungs"].values()
                  if rung.get("upper_bound") is not None]
        assert all(bound >= full.objective - slack for bound in bounds), case


def test_working_set_bound_rests_on_weak_duality():
    # UB bounds the full objective at any multipliers >= 0 and points in
    # (0, 1], not only at Newton's: scaled by U(0, 2) factors and moved by
    # +-1e-3, the rung's multipliers and touching points still bound it.
    rng = np.random.default_rng(30)
    tol = solver.DEFAULT_TOL
    priced = 0
    for case, ((rho, eps, dv), (_, _, checks), (full_status, full)) in enumerate(
            _a8_working_set_cases()):
        rung = checks.get("working_set", {}).get("rungs", {}).get(8, {})
        if full_status != "optimal" or "pricing" not in rung:
            continue
        priced += 1
        pricing = rung["pricing"]
        slack = tol * (1.0 + abs(full.objective))
        points, mu = np.array(pricing["points"]), np.array(pricing["multipliers"])
        mu_s = pricing["stability_multiplier"] or 0.0
        assert de.pricing_bound(rho, eps, dv, points, mu, mu_s) == rung["upper_bound"]
        for _ in range(10):
            bound = de.pricing_bound(
                rho, eps, dv, points + rng.choice([-1e-3, 1e-3], size=points.size),
                mu * rng.uniform(0.0, 2.0, size=mu.size), mu_s * rng.uniform(0.0, 2.0))
            assert bound >= full.objective - slack, case
    assert priced == 40


@pytest.mark.parametrize("rho, eps", [({6: 1.0}, 0.48), ({4: 1.0}, 0.6)],
                         ids=["rho5-eps048", "rho3-eps06"])
def test_working_set_margin(rho, eps):
    # Both optima sit on degrees <= 8 at every Dv: rung 8 answers, its bound
    # within 1e-9 of its objective, against a slack of 1.3e-8.
    tol = solver.DEFAULT_TOL
    for dv in (9, 10, 12, 14, 16, 20, 26, 34, 40, 52):
        status, solution, checks, _ = cli._solve_verified(
            "lambda", "field 'max-var-degree'", tol, DegreeDistribution(rho), eps, dv)
        working_set = checks["working_set"]
        assert (status, working_set["accepted"]) == ("optimal", 8), dv
        margin = working_set["upper_bound"] - solution.objective
        assert -tol * (1.0 + abs(solution.objective)) <= margin <= 1e-9, dv
        assert working_set["rungs"][8]["pricing"]["residual"] <= 1e-14, dv


def test_pricing_block_keys(capsys):
    # The rung's pricing block holds every field of de.Pricing but the
    # bound, which stands beside it as the rung's upper_bound.
    code, out, _ = run_cli(capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
                           "--epsilon", "0.48", "--max-var-degree", "14")
    assert code == 0
    rung = json.loads(out)["working_set"]["rungs"]["8"]
    assert set(rung["pricing"]) == {"support", "points", "multipliers",
                                    "stability_multiplier", "steps", "residual"}
    assert rung["upper_bound"] is not None


def test_working_set_without_touching_points(monkeypatch):
    # Newton fed an inconsistent active set, with the DE check's critical
    # points taken away, still gives a valid bound; a rung is accepted only
    # when that bound is within the slack, and otherwise the full program
    # answers as it does alone.
    real_check = cli.check_de_feasible
    monkeypatch.setattr(cli, "check_de_feasible",
                        lambda spec: dataclasses.replace(real_check(spec), critical_x=()))
    tol = solver.DEFAULT_TOL
    cases = [(DegreeDistribution({6: 1.0}), 0.48, 10), (DegreeDistribution({6: 1.0}), 0.48, 14),
             (DegreeDistribution({4: 1.0}), 0.6, 12), (DegreeDistribution({4: 1.0}), 0.6, 20)]
    cases += [case for case, _, _ in _a8_working_set_cases()[:6]]
    for rho, eps, dv in cases:
        status, solution, checks, _ = cli._solve_verified(
            "lambda", "field 'max-var-degree'", tol, rho, eps, dv)
        full_status, full, _, _, _ = cli._solve_program("lambda", tol, rho, eps, dv)
        assert status == full_status, (rho, eps, dv)
        if status != "optimal":
            continue
        slack = tol * (1.0 + abs(full.objective))
        working_set = checks["working_set"]
        assert working_set["rungs"][8]["upper_bound"] >= full.objective - slack
        if working_set["accepted"] == 8:
            assert working_set["upper_bound"] <= solution.objective + slack
        else:
            assert working_set["accepted"] == dv
            assert solution.objective == full.objective


def _full_program_report(capsys, argv, monkeypatch):
    """The report of ``argv`` with the first rung above its maximum degree:
    the full program alone, with no working set."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "FIRST_RUNG", 100)
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("max_degree", ["12", "20"])
def test_priced_out_rung_falls_back_to_the_full_program(monkeypatch, capsys, max_degree):
    # The optimum at rho = x^10, eps = 0.3 takes degrees 10 and 11: rung 8 is
    # priced out (UB 3.5e-2 above its objective at Dv = 12, 7.2e-2 at
    # Dv = 20), and the full program answers next, with the objective and
    # taps it gives alone; at Dv = 20 no rung lies between.
    argv = ("optimize-lambda", "--rho", '{"11": 1.0}', "--epsilon", "0.3",
            "--max-var-degree", max_degree)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    rungs = report["working_set"]["rungs"]
    assert sorted(rungs, key=int) == ["8", max_degree]
    assert rungs["8"]["status"] == "optimal"
    assert rungs["8"]["upper_bound"] - rungs["8"]["objective"] > 2e-3
    assert rungs[max_degree] == {"status": "optimal", "iterations": report["iterations"]}
    assert report["working_set"]["accepted"] == int(max_degree)
    assert report["working_set"]["upper_bound"] is None
    full = _full_program_report(capsys, argv, monkeypatch)
    assert "working_set" not in full
    del report["working_set"], report["duration_seconds"], full["duration_seconds"]
    assert report == full


@pytest.mark.parametrize("outcome", ["infeasible", "numerical-failure",
                                     "verification-failed"])
def test_failed_rung_moves_on(monkeypatch, capsys, outcome):
    # Whatever ends rung 8 short of a verified optimum, the full Dv = 10
    # program runs next, and the rung's status sets no exit
    # code and writes nothing to stderr.
    argv = ("optimize-lambda", "--rho", '{"6": 1.0}', "--epsilon", "0.48",
            "--max-var-degree", "10")
    full = _full_program_report(capsys, argv, monkeypatch)
    real_solve, real_check = cli.solve, cli.check_de_feasible
    checked = []

    def failing_solve(problem, **kwargs):
        solution = real_solve(problem, **kwargs)
        if problem.n_nonneg == 7 and outcome != "verification-failed":   # 7 taps
            return dataclasses.replace(solution, status=outcome)
        return solution

    def failing_check(spec):
        report = real_check(spec)
        checked.append(spec)
        if len(checked) == 1 and outcome == "verification-failed":
            return dataclasses.replace(report, feasible=False)
        return report

    monkeypatch.setattr(cli, "solve", failing_solve)
    monkeypatch.setattr(cli, "check_de_feasible", failing_check)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    rungs = report["working_set"]["rungs"]
    assert rungs["8"]["status"] == outcome
    assert rungs["8"]["upper_bound"] is None and "pricing" not in rungs["8"]
    assert rungs["10"]["status"] == "optimal"
    assert report["working_set"]["accepted"] == 10
    del report["working_set"], report["duration_seconds"], full["duration_seconds"]
    assert report == full


def _assert_refutes(witness, rho: dict, eps: float, max_degree: int) -> None:
    """The witness x has psi(x)**(Dv-1) > x in exact arithmetic, with the
    margin it reports: no lambda with degrees up to Dv decodes at eps."""
    x = Fraction(witness["x"])
    u = 1 - Fraction(eps) * x
    psi = 1 - sum(Fraction(c) * u ** (int(d) - 1) for d, c in rho.items())
    margin = psi ** (max_degree - 1) - x
    assert 0 < x <= 1 and 0 <= psi <= 1
    assert margin > 0 and float(margin) == witness["margin"]


def test_design_past_eps_d_is_infeasible(capsys):
    # eps_D (1 + 1e-6), eps_D the threshold of lambda = x^2 with degree-6
    # checks: no lambda of degree up to 3 decodes. The solver's iterates
    # diverge; the exact witness turns that into exit 2, for optimize-lambda
    # and for the sweep's exact row.
    eps = 0.42944024385930624
    argv = ("--rho", '{"6": 1.0}', "--epsilon", repr(eps), "--max-var-degree", "3")
    code, out, err = run_cli(capsys, "optimize-lambda", *argv)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["status"] == "infeasible"
    assert report["message"] == "iterates diverged after best point"
    witness = report["infeasibility"]
    assert witness["epsilon_d"] == de.bisect_threshold(
        DegreeDistribution({3: 1.0}), DegreeDistribution({6: 1.0}))
    assert witness["epsilon_d"] < eps
    _assert_refutes(witness, report["inputs"]["rho"], eps, 3)
    code, out, err = run_cli(capsys, "sweep", *argv, "--grid-sizes", "")
    assert (code, err) == (2, "")
    assert out.splitlines()[1:] == ["inf,,,,,infeasible"]


def _pairs_below_eps_one(rng, count):
    """``count`` (rho, Dv) pairs, rho from the A8 generator and Dv <= 12,
    whose eps_D (1 + 2^-10) is below 1."""
    pairs = []
    while len(pairs) < count:
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        dv = int(rng.integers(3, 13))
        if de.bisect_threshold(DegreeDistribution({dv: 1.0}), rho) * (1.0 + 2.0 ** -10) < 1.0:
            pairs.append((rho, dv))
    return pairs


def test_a8_designs_past_eps_d_are_infeasible(capsys):
    # At eps_D (1 + 2^-k) no design decodes, and no run exits 3: it exits 2
    # with an exact witness, as every run at k = 10 and 20 does, whether
    # the solver found a certificate, diverged or returned a design that
    # failed its DE check. Or, from k = 30 on, the solver's design passes
    # the DE check, whose tolerance is wider than the exact violation, and
    # exits 0; exit 2 there needs the decision before the solve. The
    # Dv = 12 pair runs rung 8 and the full program.
    pairs = [(DegreeDistribution({6: 1.0}), 12)] + _pairs_below_eps_one(
        np.random.default_rng(53), 4)
    for rho, dv in pairs:
        eps_d = de.bisect_threshold(DegreeDistribution({dv: 1.0}), rho)
        for k in (10, 20, 30, 40):
            eps = eps_d * (1.0 + 2.0 ** -k)
            code, out, err = run_cli(
                capsys, "optimize-lambda", "--rho", json.dumps(rho.to_json_dict()),
                "--epsilon", repr(eps), "--max-var-degree", str(dv))
            report = json.loads(out)
            if code == 0 and k >= 30:
                assert report["de_check"]["feasible"] and err == ""
                witness = de.infeasibility_witness(
                    DegreeDistribution(report["inputs"]["rho"]), eps, dv)
                assert witness["margin"] < ensemble.FEASIBILITY_TOL
                continue
            assert (code, err) == (2, ""), (rho, dv, k)
            assert report["status"] == "infeasible"
            _assert_refutes(report["infeasibility"], report["inputs"]["rho"], eps, dv)


def test_oversized_lambda_program_is_refused_before_any_rung(monkeypatch, capsys):
    # The first rung would fit; the full program, its fallback, does not, and nothing is built or solved.
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *a, **k: calls.append("solve"))
    monkeypatch.setattr(sos, "build_lambda_problem", lambda *a: calls.append("build"))
    code, out, err = run_cli(capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
                             "--epsilon", "0.4", "--max-var-degree", "53")
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: field 'max-var-degree': Gram dimension 261 ")


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), check_degree=st.integers(3, 7),
       eps=st.floats(0.05, 0.95), max_var_degree=st.integers(3, 10))
def test_random_design_round_trip(tmp_path, capsys, seed, check_degree, eps,
                                  max_var_degree):
    # rho from the A8 generator: a designed ensemble is optimal with a
    # passing certificate and DE check, or the program is infeasible; the
    # design then verifies, with a bisection threshold of at least eps.
    rho = random_distribution(np.random.default_rng(seed), check_degree)
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", json.dumps(rho.to_json_dict()),
        "--epsilon", repr(eps), "--max-var-degree", str(max_var_degree))
    assert code in (0, 2), out
    if code == 2:
        return
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["certificate"]["psd_ok"] and report["certificate"]["reconstruction_ok"]
    assert report["de_check"]["feasible"]
    path = tmp_path / "designed.json"
    path.write_text(json.dumps(report["ensemble"]))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0, out
    # The DE check passes F = 1 - eps H(eps x) >= -FEASIBILITY_TOL on the
    # threshold's own scan, so eps max H <= 1 + 1e-9 there: eps* may sit
    # below eps by that factor and the rounding of H, no more.
    assert json.loads(out)["threshold"] >= eps * (1 - 2e-9)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ldpcopt.cli", "threshold",
         "--lambda", '{"2": 1.0}', "--rho", '{"2": 1.0}', "--method", "bisect"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["bisect"]["epsilon"] >= 1.0 - 2e-6


def test_closed_stdout_is_an_io_error():
    # `threshold ... | head -c 400` once exited 3 with "error:
    # BrokenPipeError": a reader that goes away is no numerical failure.
    # The pipe's read end is closed before the child starts, so the
    # child's write of its report fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ldpcopt.cli", "threshold",
             "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}'],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_unexpected_error_exits_three(monkeypatch, capsys):
    def broken_solve(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(cli, "solve", broken_solve)
    code, out, err = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "0.49", "--max-var-degree", "5")
    assert code == 3
    assert out == ""
    assert err == "error: RuntimeError: solver exploded\n"


def test_sweep_solver_defect_is_not_a_row(monkeypatch, capsys):
    # An exception from the solver on one grid LP is a defect, not data: it
    # ends the sweep with exit 3 and one line on stderr, and prints no row.
    real_solve = solver.solve

    def failing_at_n100(problem, **kwargs):
        if problem.n_nonneg == 100 + 4:   # N multipliers and Dv - 1 slacks
            raise RuntimeError("simulated defect")
        return real_solve(problem, **kwargs)

    monkeypatch.setattr(solver, "solve", failing_at_n100)
    code, out, err = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "10,100,500")
    assert (code, out, err) == (3, "", "error: RuntimeError: simulated defect\n")


def test_solver_message_reported(monkeypatch, capsys):
    # The two-tap design ends on the best-iterate fallback; whatever the
    # solver says about how it got there reaches the report.
    solutions = []
    real_solve = cli.solve

    def recording_solve(*args, **kwargs):
        solutions.append(real_solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cli, "solve", recording_solve)
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 0.48555, "7": 0.51445}',
        "--epsilon", "0.45", "--max-var-degree", "7")
    assert code == 0
    assert json.loads(out).get("message", "") == solutions[-1].message
    code, out, _ = run_cli(
        capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
        "--method", "sdp")
    assert code == 0
    assert json.loads(out)["sdp"].get("message", "") == solutions[-1].message


THRESHOLD_36 = ("threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
                "--method", "sdp")
OPTIMIZE_README = ("optimize-lambda", "--rho", '{"6": 1.0}', "--epsilon", "0.49",
                   "--max-var-degree", "7")


def test_iteration_cap_is_a_numerical_failure(monkeypatch, capsys):
    # A solve stopped by the iteration cap before it meets the tolerance
    # must never be reported as an optimum.
    monkeypatch.setattr(solver, "MAX_ITERS", 3)
    code, out, _ = run_cli(capsys, *OPTIMIZE_README)
    report = json.loads(out)
    assert code == 3
    assert report["status"] == "numerical-failure"
    assert report["message"] == "iteration limit reached"
    assert report["iterations"] == 3


def test_sweep_at_thirty_variable_degrees(capsys):
    # The grid LP's columns psi**j, j <= 29, come from the composed psi; from
    # expanded monomials they were off by 1.1e6 here and the N = 1000
    # row failed. The finest grid bounds the exact rate from above (A7).
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.48",
        "--max-var-degree", "30", "--grid-sizes", "100,1000")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [
        ("100", "optimal"), ("1000", "optimal"), ("inf", "optimal")]
    assert float(rows[1][1]) >= float(rows[2][1]) - 1e-8


@pytest.mark.parametrize("argv, tol, code", [
    # At 0.7 and 10 the solver certified wrong answers (exit 2); nan, 0 and
    # negative values could never be met (exit 3).
    (THRESHOLD_36, "0.7", 1),
    (OPTIMIZE_README, "10", 1),
    (THRESHOLD_36, "nan", 1),
    (("optimize-rho", "--lambda", '{"3": 1.0}', "--epsilon", "0.4294",
      "--max-check-degree", "6"), "-1", 1),
    (("verify", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
      "--epsilon", "0.4"), "0", 1),
    (("sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
      "--max-var-degree", "5", "--grid-sizes", "10"), "inf", 1),
    (THRESHOLD_36, "1e-2", 0),
])
def test_tol_range(capsys, argv, tol, code):
    got, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert got == code, err
    if code == 1:
        assert out == ""
        assert "argument --tol: must lie in (0, 0.01]" in err


@pytest.mark.parametrize("argv, code", [
    # No lambda with degrees <= 5 decodes at eps = 0.95 with degree-6
    # checks: every row, the exact program included, is infeasible.
    (("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.95", "--max-var-degree", "5",
      "--grid-sizes", "3"), 2),
    # DE-feasible with a negative design rate: no capacity gap to report.
    (("verify", "--lambda", '{"2": 0.2965, "7": 0.7035}', "--rho", '{"2": 1.0}',
      "--epsilon", "0.95"), 0),
])
def test_exit_code_names_the_outcome(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert "error" not in err


def _limit_address_space():
    # A refusal that regressed would try to allocate gigabytes; fail the
    # child with MemoryError instead of exhausting the host.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, fields", [
    (("optimize-lambda", "--rho", '{"6": 1.0}', "--epsilon", "0.4",
      "--max-var-degree", "200"), "field 'max-var-degree'"),
    (("optimize-rho", "--lambda", '{"3": 1.0}', "--epsilon", "0.4",
      "--max-check-degree", "1000"), "field 'max-check-degree'"),
    (("threshold", "--lambda", '{"300": 1.0}', "--rho", '{"6": 1.0}',
      "--method", "sdp"), "fields 'lambda', 'rho'"),
    (("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.4",
      "--max-var-degree", "200", "--grid-sizes", "10"), "field 'max-var-degree'"),
])
def test_oversized_sos_program_is_input_error(argv, fields):
    # Gram dimensions 996, 1999, 1496 and 996 are refused before any
    # program is built, naming the degree field that sets the size.
    proc = subprocess.run([sys.executable, "-m", "ldpcopt.cli", *argv],
                          capture_output=True, text=True,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {fields}: Gram dimension ")
    assert f"exceeds the limit of {sos.MAX_GRAM_DIM}" in proc.stderr


@pytest.mark.parametrize("method", ["sdp", "both"])
def test_threshold_unverified_certificate_downgraded(monkeypatch, capsys, method):
    def failing_check(cert, target):
        return sos.CertificateReport(psd_ok=True, reconstruction_ok=False,
                                     min_eig=0.0, max_residual=1.0,
                                     symmetry_residual=0.0)

    monkeypatch.setattr(sos, "verify_certificate", failing_check)
    code, out, err = run_cli(
        capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
        "--method", method)
    assert code == 3
    report = json.loads(out)
    assert report["sdp"]["status"] == "verification-failed"
    assert not report["sdp"]["certificate"]["reconstruction_ok"]
    assert "verification" in err


@pytest.mark.parametrize("argv", [
    OPTIMIZE_README,
    ("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.49", "--max-var-degree", "7",
     "--grid-sizes", ""),
    ("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.49", "--max-var-degree", "7",
     "--grid-sizes", "10"),
], ids=["optimize-lambda", "sweep-exact-only", "sweep-grid-10"])
def test_certificate_proves_the_solver_answer(monkeypatch, capsys, argv):
    # The reported taps are read back after the solve; the Gram certificate
    # belongs to the solver's own values and is checked against them. Moving
    # 1e-4 between the two largest taps breaks the DE check only, and the
    # sweep's exact row fails like an optimize-lambda report, whatever its
    # grid rows do. Only cli's binding of the read-back is patched, so the
    # grid rows, read back in ldpcopt.de, stay optimal.
    real_read = cli.read_taps

    def shifted_taps(values):
        taps = dict(real_read(values).items())
        big, second = sorted(taps, key=taps.get, reverse=True)[:2]
        taps[big] += 1e-4
        taps[second] -= 1e-4
        return DegreeDistribution(taps)

    monkeypatch.setattr(cli, "read_taps", shifted_taps)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "verification" in err
    if argv[0] == "sweep":
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[-1][0] == "inf" and rows[-1][-1] == "verification-failed"
        assert all(row[-1] == "optimal" for row in rows[:-1])
        return
    report = json.loads(out)
    assert report["certificate"]["psd_ok"]
    assert report["certificate"]["reconstruction_ok"]
    assert not report["de_check"]["feasible"]
    assert report["status"] == "verification-failed"


# -- fuzzed command lines ------------------------------------------------------

# Each flag is drawn as (in range, out of range or malformed).
_JSON_VALUE = st.one_of(st.floats(-0.5, 1.5), st.integers(-1, 2), st.none(),
                        st.booleans(), st.text(max_size=2), st.just(10 ** 400),
                        st.floats(allow_nan=True, allow_infinity=True))
# Degree 3 comes first, so the simplest draw is lam = rho = x^2 rather than
# the trivial pair lam = rho = x, which
# test_de.py::test_bisect_threshold_trivial_pair covers.
_GOOD_TAPS = st.dictionaries(st.sampled_from((3, 6, 2, 4, 5, 7, 8)),
                             st.floats(0.05, 1.0), min_size=1, max_size=3).map(
    lambda d: {str(k): v / sum(d.values()) for k, v in d.items()})
_BAD_TAPS = st.one_of(
    st.dictionaries(st.integers(-1, 8).map(str), _JSON_VALUE, max_size=3),
    st.lists(st.tuples(st.integers(-1, 8).map(str), st.floats(0.0, 1.0)),
             max_size=2),
    _JSON_VALUE)
_DIST = (_GOOD_TAPS.map(json.dumps),
         st.one_of(_BAD_TAPS.map(json.dumps),
                   st.sampled_from(["", "{", "nan", '{"6": 1.0,}', "{'6': 1}"])))
_EPS = (st.floats(0.0, 0.95).map(repr),
        st.one_of(st.floats(-0.5, -1e-9).map(repr), st.floats(1.0, 1.5).map(repr),
                  st.sampled_from(["nan", "inf", "-inf", "x"])))
_DEGREE = (st.integers(2, 8).map(str),
           st.one_of(st.integers(-1, 1).map(str), st.just("x")))
_TOL = (st.one_of(st.just("1e-8"), st.floats(1e-9, 1e-2).map(repr)),
        st.sampled_from(["0.0100001", "0.7", "10", "0", "-1e-8", "nan", "inf", "x"]))
_FLAGS = {
    "optimize-lambda": [("--rho", _DIST), ("--epsilon", _EPS),
                        ("--max-var-degree", _DEGREE)],
    "optimize-rho": [("--lambda", _DIST), ("--epsilon", _EPS),
                     ("--max-check-degree", _DEGREE)],
    "threshold": [("--lambda", _DIST), ("--rho", _DIST),
                  ("--method", (st.sampled_from(["sdp", "bisect", "both"]),
                                st.just("x")))],
    "verify": [("--lambda", _DIST), ("--rho", _DIST), ("--epsilon", _EPS)],
    "sweep": [("--rho", _DIST), ("--epsilon", _EPS), ("--max-var-degree", _DEGREE),
              ("--grid-sizes", (
                  st.lists(st.integers(1, 40), min_size=1, max_size=3).map(
                      lambda ns: ",".join(map(str, ns))),
                  st.sampled_from(["", "0", "-1,10", "10,x"])))],
}
_SPEC = st.one_of(
    st.fixed_dictionaries({}, optional={
        "lambda": st.one_of(_GOOD_TAPS, _BAD_TAPS),
        "rho": st.one_of(_GOOD_TAPS, _BAD_TAPS),
        "epsilon": st.one_of(st.floats(-0.5, 1.5), _JSON_VALUE)}),
    _JSON_VALUE)


# Each flag is in range 3 times in 4, else out of range or malformed, and is
# left out 1 time in 20.
_PICKS = ("good",) * 15 + ("bad",) * 4 + ("omit",)


@st.composite
def _argv(draw, command, spec_path):
    argv = [command]
    flags = _FLAGS[command] + [("--tol", _TOL)]
    if command == "verify" and draw(st.booleans()):
        spec_path.write_text(json.dumps(draw(_SPEC)))
        flags = [("--spec", (st.just(str(spec_path)),) * 2), ("--tol", _TOL)]
    for flag, (good, bad) in flags:
        pick = draw(st.sampled_from(_PICKS))
        if pick != "omit":
            argv.append(f"{flag}={draw(good if pick == 'good' else bad)}")
    return argv


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=15, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path, command, data):
    # Every command line ends with a documented exit code. An exit 3 means a
    # numerical failure, so it must not come from a defect that the
    # catch-all in cli.main would otherwise hide.
    argv = data.draw(_argv(command, tmp_path / "spec.json"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 3:
        for name in ("TypeError", "KeyError", "IndexError", "AttributeError",
                     "ZeroDivisionError"):
            assert name not in err.getvalue(), (argv, err.getvalue())
