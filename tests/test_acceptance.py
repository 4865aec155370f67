"""End-to-end acceptance suite.

Each numbered check (A1..A11) pins its tolerances here and prints one
PASS line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
The whole suite targets well under five minutes on a desktop.
"""

import io
import json
import time
from contextlib import redirect_stdout, redirect_stderr

import numpy as np
import pytest

from ldpcopt.cli import main as cli_main
from ldpcopt.de import bisect_threshold, lp_baseline_sweep
from ldpcopt.ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    check_de_feasible,
    design_rate,
    stability_lambda2_bound,
)
from ldpcopt.poly import Polynomial
from ldpcopt.solver import solve
from ldpcopt.sos import (
    assemble_sos_program,
    build_lambda_problem,
    build_sos_feasibility,
    build_threshold_problem,
    coefficient_family,
    verify_certificate,
)

from conftest import (
    ANOMALOUS_DESIGN,
    COMPARISON_DESIGNS,
    REFERENCE_DESIGNS,
    TWO_TAP_DESIGN,
    random_distribution,
)
from oracles import (
    add,
    de_coefficients_monomial_rho,
    de_polynomial,
    mul,
    multinomial_power_coefficients,
    powers,
)

# DE feasibility slack for optimizer outputs (solver-tolerance allowance).
SOLVER_DE_SLACK = 1e-7


def run_command(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def optimizer_reports():
    """optimize-lambda pipeline runs shared across the acceptance checks."""
    reports = {}
    for key, ref in REFERENCE_DESIGNS.items():
        rho_json = json.dumps({str(k): v for k, v in ref["rho"].items()})
        t0 = time.perf_counter()
        code, out = run_command(
            "optimize-lambda", "--rho", rho_json,
            "--epsilon", str(ref["eps"]),
            "--max-var-degree", str(ref["max_var_degree"]))
        elapsed = time.perf_counter() - t0
        assert code == 0, f"{key}: optimize-lambda exited {code}"
        reports[key] = (json.loads(out), elapsed)
    # Anomalous column: quoted taps are inconsistent; the quoted rate needs
    # variable degrees up to 7.
    rho_json = json.dumps({str(k): v for k, v in ANOMALOUS_DESIGN["rho"].items()})
    t0 = time.perf_counter()
    code, out = run_command(
        "optimize-lambda", "--rho", rho_json,
        "--epsilon", str(ANOMALOUS_DESIGN["eps"]),
        "--max-var-degree", str(ANOMALOUS_DESIGN["max_var_degree"]))
    assert code == 0
    reports["anomalous"] = (json.loads(out), time.perf_counter() - t0)
    rho_json = json.dumps({str(k): v for k, v in TWO_TAP_DESIGN["rho"].items()})
    t0 = time.perf_counter()
    code, out = run_command(
        "optimize-lambda", "--rho", rho_json,
        "--epsilon", str(TWO_TAP_DESIGN["eps"]),
        "--max-var-degree", str(TWO_TAP_DESIGN["max_var_degree"]))
    assert code == 0
    reports["two_tap"] = (json.loads(out), time.perf_counter() - t0)
    return reports


def test_a01_quadratic_box_sdp_exact():
    # Maximize b subject to 1 + b x + x^2 >= 0 on [0, 1] with b boxed to
    # [0, 1], b <= 1 posed as b + s = 1 with s >= 0: the exact optimum is
    # b = 1.
    fam = coefficient_family(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    t0 = time.perf_counter()
    sol = solve(assemble_sos_program(fam, "max", [1.0, 0.0],
                                     extra_eq=[([1.0, 1.0], 1.0)]))
    elapsed = time.perf_counter() - t0
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert elapsed < 1.0
    print(f"[PASS] A1 quadratic box SDP: b* = {sol.objective:.9f} "
          f"(1 within 1e-6, {elapsed:.2f}s)")


def test_a02_reference_rate_reproduction(optimizer_reports):
    for key, ref in REFERENCE_DESIGNS.items():
        report, elapsed = optimizer_reports[key]
        assert report["status"] == "optimal", key
        assert report["rate"] == pytest.approx(ref["rate"], abs=2e-3), key
        assert report["delta"] == pytest.approx(ref["delta"], abs=2e-3), key
        spec = EnsembleSpec.from_json_dict(report["ensemble"], normalize=True)
        worst = check_de_feasible(spec).worst_value
        assert worst >= -SOLVER_DE_SLACK, key
        assert elapsed < 10.0, key
        print(f"[PASS] A2 {key}: rate {report['rate']:.5f} "
              f"(target {ref['rate']} within 2e-3), delta {report['delta']:.5f}, "
              f"DE min {worst:.1e}, {elapsed:.1f}s")


def test_a03_anomalous_column(optimizer_reports):
    report, _ = optimizer_reports["anomalous"]
    rate = report["rate"]
    assert rate >= ANOMALOUS_DESIGN["rate_target"] - 2e-3
    assert rate <= ANOMALOUS_DESIGN["capacity"]
    print(f"[PASS] A3 anomalous column: rate {rate:.5f} in "
          f"[{ANOMALOUS_DESIGN['rate_target']} - 2e-3, {ANOMALOUS_DESIGN['capacity']}] "
          "(quoted tap vector documented as inconsistent)")


def test_a04_published_designs_verify():
    for key, ref in COMPARISON_DESIGNS.items():
        lam = DegreeDistribution(ref["lam"], normalize=True)
        rho = DegreeDistribution(ref["rho"])
        spec = EnsembleSpec(lam, rho, ref["eps"])
        rep = check_de_feasible(spec)
        assert rep.feasible, key
        rate = design_rate(lam, rho)
        assert rate == pytest.approx(ref["rate"], abs=1e-3), key
        print(f"[PASS] A4 {key}: feasible at eps=0.48, "
              f"rate {rate:.5f} (target {ref['rate']} within 1e-3)")


def test_a05_two_tap_design(optimizer_reports):
    report, _ = optimizer_reports["two_tap"]
    rate = report["rate"]
    assert rate >= TWO_TAP_DESIGN["rate_floor"]
    spec = EnsembleSpec.from_json_dict(report["ensemble"], normalize=True)
    worst = check_de_feasible(spec).worst_value
    assert worst >= -SOLVER_DE_SLACK
    print(f"[PASS] A5 two-tap check design: rate {rate:.5f} >= "
          f"{TWO_TAP_DESIGN['rate_floor']}, DE min {worst:.1e}")


def test_a06_stability_boundary(optimizer_reports):
    active_keys = ("check4_eps064", "check7_eps038", "check8_eps033")
    for key, ref in REFERENCE_DESIGNS.items():
        report, _ = optimizer_reports[key]
        lam2 = float(report["ensemble"]["lambda"].get("2", 0.0))
        rho = DegreeDistribution(ref["rho"])
        bound = stability_lambda2_bound(rho, ref["eps"])
        assert lam2 <= bound + 1e-6, key
        if key in active_keys:
            assert bound - lam2 <= 1e-3, key
        slack = bound - lam2
        print(f"[PASS] A6 {key}: lambda_2 {lam2:.6f} <= bound {bound:.6f} "
              f"(slack {slack:.1e}{', active' if key in active_keys else ''})")


def test_a07_lp_baseline_convergence():
    rho = DegreeDistribution(ANOMALOUS_DESIGN["rho"])
    eps = ANOMALOUS_DESIGN["eps"]
    t0 = time.perf_counter()
    rows = lp_baseline_sweep(rho, eps, 5, [10, 20, 50, 100, 200, 500, 1000])
    sdp = solve(build_lambda_problem(rho, eps, 5))
    elapsed = time.perf_counter() - t0
    assert all(r.status == "optimal" for r in rows)
    assert sdp.status == "optimal"
    rates = [r.rate for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:])), rates
    taps = {d: v for d, v in zip(range(2, 6), sdp.x[:4]) if v > 1e-12}
    sdp_rate = design_rate(DegreeDistribution(taps, normalize=True), rho)
    assert rates[-1] - sdp_rate < 5e-3
    assert rates[-1] >= sdp_rate - 1e-8
    lam4 = rows[-1].lam.get(4, 0.0)
    assert lam4 < 1e-3
    assert elapsed < 60.0
    print(f"[PASS] A7 LP baseline: rates decrease {rates[0]:.5f} -> {rates[-1]:.5f}, "
          f"exact-program rate {sdp_rate:.5f} (gap {rates[-1]-sdp_rate:.1e} < 5e-3), "
          f"lambda_4(N=1000) = {lam4:.1e} < 1e-3, {elapsed:.0f}s < 60s")


def test_a08_threshold_cross_validation():
    rng = np.random.default_rng(42)
    worst = 0.0
    t0 = time.perf_counter()
    for trial in range(200):
        lam = random_distribution(rng, int(rng.integers(3, 8)))
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        prob = build_threshold_problem(lam, rho)
        sol = solve(prob)
        assert sol.status == "optimal", f"trial {trial}: {sol.message}"
        eps_sdp = 1.0 / float(sol.x[0])
        eps_bis = bisect_threshold(lam, rho)
        worst = max(worst, abs(eps_sdp - eps_bis))
        assert abs(eps_sdp - eps_bis) <= 1e-6, f"trial {trial}"
    # Regular degree-3 / degree-6 pair against an independent fine scan.
    lam36 = DegreeDistribution({3: 1.0})
    rho36 = DegreeDistribution({6: 1.0})
    xs = np.linspace(1e-9, 1.0, 400_001)
    inner = 1.0 - rho36.edge_polynomial().evaluate_many(1.0 - xs)
    oracle = 1.0 / float(np.max(lam36.edge_polynomial().evaluate_many(inner) / xs))
    sol = solve(build_threshold_problem(lam36, rho36))
    eps_sdp = 1.0 / float(sol.x[0])
    eps_bis = bisect_threshold(lam36, rho36)
    for value in (eps_sdp, eps_bis):
        assert value == pytest.approx(0.4294, abs=1e-3)
        assert value == pytest.approx(oracle, abs=1e-3)
    elapsed = time.perf_counter() - t0
    print(f"[PASS] A8 thresholds: 200 random ensembles agree within {worst:.1e} "
          f"(<= 1e-6); regular pair sdp {eps_sdp:.5f} / bisect {eps_bis:.5f} "
          f"vs scan {oracle:.5f}, {elapsed:.0f}s")


def _min_on_unit_interval(p: Polynomial) -> float:
    xs = np.linspace(0.0, 1.0, 20001)
    vals = p.evaluate_many(xs)
    k = int(np.argmin(vals))
    lo = max(0.0, xs[k] - 1e-4)
    hi = min(1.0, xs[k] + 1e-4)
    fine = np.linspace(lo, hi, 2001)
    return float(min(np.min(vals), np.min(p.evaluate_many(fine))))


def test_a09_certificate_soundness():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    certified = []
    for trial in range(50):
        a = Polynomial(rng.normal(size=4))
        b = Polynomial(rng.normal(size=3))
        c = Polynomial(rng.normal(size=3))
        p = add(add(mul(a, a), mul(Polynomial((0.0, 1.0)), mul(b, b))),
                mul(Polynomial([1.0, -1.0]), mul(c, c)))
        assert _min_on_unit_interval(p) >= -1e-12
        prob = build_sos_feasibility(p)
        sol = solve(prob)
        assert sol.status == "optimal", f"nonnegative trial {trial}"
        cert = sol.psd_matrices(prob)
        target = coefficient_family(p.coeffs[:, None])[:, 0]
        report = verify_certificate(cert, target)
        assert report.ok, f"nonnegative trial {trial}"
        certified.append((cert, target))
    rejected = 0
    for trial in range(50):
        while True:
            p = Polynomial(rng.normal(size=7))
            if _min_on_unit_interval(p) <= -1e-3:
                break
        sol = solve(build_sos_feasibility(p))
        assert sol.status == "infeasible", f"negative trial {trial}: {sol.status}"
        rejected += 1
    # A diagonal dent of -1e-3 must invalidate every stored certificate.
    for cert, target in certified:
        k = int(rng.integers(0, sum(g.shape[0] for g in cert)))
        bad = [g.copy() for g in cert]
        for g in bad:
            if k < g.shape[0]:
                g[k, k] -= 1e-3
                break
            k -= g.shape[0]
        assert not verify_certificate(bad, target).ok
    elapsed = time.perf_counter() - t0
    print(f"[PASS] A9 certificates: 50 nonnegative certified, {rejected} negative "
          f"proven infeasible, 50 dented Gram matrices rejected, {elapsed:.0f}s")


def test_a10_oracle_equivalences():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, 4))
        base = rng.normal(size=n)
        lhs = multinomial_power_coefficients(base, k)
        p = Polynomial(np.concatenate([[0.0], base]))
        rhs = ([Polynomial.one()] + powers(p, k))[k].padded(lhs.size)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    for n in range(2, 8):
        lam = random_distribution(rng, int(rng.integers(3, 8)))
        eps = float(rng.uniform(0.0, 1.0))
        closed = de_coefficients_monomial_rho(lam, n, eps)
        direct = de_polynomial(
            lam, DegreeDistribution({n + 1: 1.0}), eps).padded(closed.size)
        # Coefficients grow combinatorially with n; 1e-10 is enforced per
        # coefficient relative to its magnitude (absolute below O(1) scale).
        assert np.max(np.abs(closed - direct) / (1.0 + np.abs(direct))) <= 1e-10
    print("[PASS] A10 oracles: multinomial/power <= 1e-12, monomial-check "
          "closed form <= 1e-10")


def test_a11_capacity_bound_on_outputs(optimizer_reports):
    for key, (report, _) in optimizer_reports.items():
        eps = report["ensemble"]["epsilon"]
        assert report["rate"] <= 1.0 - eps + 1e-6, key
    print(f"[PASS] A11 capacity bound: all {len(optimizer_reports)} optimizer "
          "outputs satisfy rate <= 1 - eps + 1e-6 "
          "(upper-bound curves from external references are out of scope)")
