"""Fixed-point simulation, threshold bisection, and the LP baseline."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcopt import kernels
from ldpcopt.de import (
    _converges_to_zero,
    _step_map,
    bisect_threshold,
    build_discretized_lp,
    de_iterate,
    lp_baseline_sweep,
    sweep_rows_to_csv,
)
from ldpcopt.ensemble import DegreeDistribution, EnsembleSpec, check_de_feasible
from ldpcopt.solver import solve
from ldpcopt.sos import build_lambda_problem, build_threshold_problem

from conftest import random_distribution

LAM36 = DegreeDistribution({3: 1.0})
RHO36 = DegreeDistribution({6: 1.0})


def fine_scan_threshold(lam, rho, n=200_001):
    """Independent oracle: eps* = 1 / max_x lam(1 - rho(1 - x)) / x."""
    xs = np.linspace(1e-9, 1.0, n)
    inner = 1.0 - rho.edge_polynomial().evaluate_many(1.0 - xs)
    ratios = lam.edge_polynomial().evaluate_many(inner) / xs
    return 1.0 / float(np.max(ratios))


def test_de_iterate_zero_eps():
    trace = de_iterate(EnsembleSpec(LAM36, RHO36, 0.0))
    assert trace.iterations == 1
    assert trace.final == 0.0
    assert trace.converged and trace.converged_to_zero


def test_de_iterate_below_threshold():
    trace = de_iterate(EnsembleSpec(LAM36, RHO36, 0.40))
    assert trace.converged_to_zero


def test_de_iterate_above_threshold():
    trace = de_iterate(EnsembleSpec(LAM36, RHO36, 0.45))
    assert not trace.converged_to_zero
    assert trace.final > 0.3


def test_de_trace_monotone_and_reproducible():
    spec = EnsembleSpec(DegreeDistribution({2: 0.3, 4: 0.7}),
                        DegreeDistribution({5: 1.0}), 0.35)
    trace = de_iterate(spec, max_iters=200)
    xs = trace.values
    assert np.all(np.diff(xs) <= 0.0)
    lam_p = spec.lam.edge_polynomial()
    rho_p = spec.rho.edge_polynomial()
    # Each step must reproduce eps * lam(1 - rho(1 - x)) exactly.
    for k in range(trace.iterations):
        expect = spec.epsilon * lam_p.evaluate(1.0 - rho_p.evaluate(1.0 - xs[k]))
        assert abs(xs[k + 1] - expect) <= 1e-15


def test_bisect_threshold_trivial_pair():
    d2 = DegreeDistribution({2: 1.0})
    thr = bisect_threshold(d2, d2)
    assert thr >= 1.0 - 2e-6


def test_bisect_threshold_regular_pair():
    thr = bisect_threshold(LAM36, RHO36)
    oracle = fine_scan_threshold(LAM36, RHO36)
    assert thr == pytest.approx(0.4294, abs=1e-3)
    assert thr == pytest.approx(oracle, abs=1e-4)


def test_bisect_threshold_reference_taps():
    lam = DegreeDistribution({2: 0.4021, 3: 0.2137, 7: 0.3902}, normalize=True)
    thr = bisect_threshold(lam, RHO36)
    # The quoted operating point 0.49 must be within the threshold.
    assert thr >= 0.49 - 1e-4


# Thresholds returned by the bisection before the predicate stopped runs on
# fixed-point witnesses; the new predicate must reproduce them bit for bit.
PINNED_THRESHOLDS = [
    ({3: 1.0}, {6: 1.0}, 0.4294400215148926),
    ({2: 0.4949, 3: 0.5051},
     {2: 0.044, 3: 0.0136, 4: 0.2287, 5: 0.2219, 6: 0.4918},
     0.4258303642272949),
    ({2: 0.409, 3: 0.2601, 4: 0.2827, 5: 0.0481},
     {2: 0.0519, 3: 0.1978, 4: 0.1122, 5: 0.3649, 6: 0.2045, 7: 0.0687},
     0.5745835304260254),
]


@pytest.mark.parametrize("lam_taps,rho_taps,expected", PINNED_THRESHOLDS)
def test_bisect_threshold_pinned(lam_taps, rho_taps, expected):
    thr = bisect_threshold(DegreeDistribution(lam_taps, normalize=True),
                           DegreeDistribution(rho_taps, normalize=True))
    assert thr == expected


def _count_kernel_steps(monkeypatch):
    steps = []
    real = kernels.de_final

    def counting(*args):
        out = real(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(kernels, "de_final", counting)
    return steps


def test_bisect_threshold_step_count(monkeypatch):
    # Runs above threshold end on a zero step or a fixed-point witness
    # instead of exhausting their budgets (380,073 steps when they did).
    steps = _count_kernel_steps(monkeypatch)
    bisect_threshold(LAM36, RHO36)
    assert sum(steps) <= 50_000


def test_predicate_settles_above_threshold_in_first_rung(monkeypatch):
    steps = _count_kernel_steps(monkeypatch)
    lam_p, rho_p = LAM36.edge_polynomial(), RHO36.edge_polynomial()
    assert not _converges_to_zero(lam_p, rho_p, 0.4375)
    assert sum(steps) <= 1_000
    assert _converges_to_zero(lam_p, rho_p, 0.42)


def test_step_map_matches_kernel_bit_for_bit():
    # The witness is sound only if it evaluates the map exactly as the
    # simulation does.
    for lam, rho, eps in [(LAM36, RHO36, 0.44),
                          (DegreeDistribution({2: 0.3, 4: 0.7}),
                           DegreeDistribution({3: 0.4, 7: 0.6}), 0.5)]:
        lam_p, rho_p = lam.edge_polynomial(), rho.edge_polynomial()
        trace, _ = kernels.de_trace(lam_p.coeffs, rho_p.coeffs, eps, 500, 0.0)
        assert np.array_equal(_step_map(lam_p, rho_p, eps, trace[:-1]), trace[1:])


@st.composite
def degree_distributions(draw):
    max_degree = draw(st.integers(3, 7))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=max_degree - 1,
                            max_size=max_degree - 1))
    total = sum(weights)
    return DegreeDistribution(
        {d: w / total for d, w in zip(range(2, max_degree + 1), weights)},
        normalize=True)


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(lam=degree_distributions(), rho=degree_distributions())
def test_predicate_brackets_sdp_threshold(lam, rho):
    sol = solve(build_threshold_problem(lam, rho))
    assert sol.status == "optimal"
    eps_star = 1.0 / float(sol.x[0])
    lam_p, rho_p = lam.edge_polynomial(), rho.edge_polynomial()
    assert _converges_to_zero(lam_p, rho_p, eps_star * (1.0 - 1e-3))
    if eps_star * (1.0 + 1e-3) <= 1.0:
        assert not _converges_to_zero(lam_p, rho_p, eps_star * (1.0 + 1e-3))


def test_bisect_threshold_capacity_bound(rng):
    for _ in range(5):
        lam = random_distribution(rng, 7)
        rho = random_distribution(rng, 7)
        thr = bisect_threshold(lam, rho)
        cap = rho.inv_degree_moment() / lam.inv_degree_moment()
        assert thr <= cap + 1e-6


def test_feasibility_implies_convergence(rng):
    # Decoding feasibility of the polynomial is equivalent to the fixed point
    # reaching zero; exercised on 100 random feasible ensembles.
    hits = 0
    for _ in range(600):
        if hits >= 100:
            break
        spec = EnsembleSpec(random_distribution(rng, 7),
                            random_distribution(rng, 7),
                            float(rng.uniform(0.05, 0.7)))
        if check_de_feasible(spec).feasible:
            hits += 1
            # Near-threshold draws contract slowly; give the iteration room
            # (with 1e-12 step tolerance the plateau sits above the cutoff).
            assert de_iterate(spec, max_iters=300_000,
                              tol=1e-15).converged_to_zero
    assert hits >= 100


def test_feasibility_implies_convergence_reference_designs():
    from conftest import COMPARISON_DESIGNS, REFERENCE_DESIGNS

    cases = [(ref["lam"], ref["rho"], ref["eps"])
             for ref in REFERENCE_DESIGNS.values()]
    cases += [(ref["lam"], ref["rho"], ref["eps"])
              for ref in COMPARISON_DESIGNS.values()]
    for lam_taps, rho_taps, eps in cases:
        spec = EnsembleSpec(DegreeDistribution(lam_taps, normalize=True),
                            DegreeDistribution(rho_taps), eps)
        if check_de_feasible(spec).feasible:
            # Capacity-approaching designs sit close to threshold and
            # contract at 1 - O(1e-4) per step; the default budget and step
            # tolerance cannot confirm convergence.
            assert de_iterate(spec, max_iters=300_000,
                              tol=1e-15).converged_to_zero


def test_discretized_lp_single_point():
    # One constraint at x = 1 cannot bind: all mass lands on degree 2.
    lp = build_discretized_lp(DegreeDistribution({5: 1.0}), 0.56, 5, 1)
    sol = solve(lp.problem)
    assert sol.status == "optimal"
    assert lp.recover_lambda(sol)[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(0.5, abs=1e-7)


def test_discretized_lp_has_one_row_per_free_degree():
    # The dual form keeps Dv - 2 equality rows whatever the grid size.
    lp = build_discretized_lp(DegreeDistribution({5: 1.0}), 0.56, 7, 1000)
    assert lp.problem.A.shape == (5, 1000 + 6)
    assert lp.problem.psd_dim == 0


def test_lp_sweep_knife_edge_grid():
    # Points whose final primal residual sits near the tolerance when the LP
    # rows are ill conditioned (rho = {5: 1}, eps = 0.56): each must solve
    # and pass the grid check.
    rho = DegreeDistribution({5: 1.0})
    sizes = [50, 200, 700, 1000]
    for dv in range(5, 9):
        rows = lp_baseline_sweep(rho, 0.56, dv, sizes)
        assert [r.status for r in rows] == ["optimal"] * len(sizes), dv
        objectives = [r.objective for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:])), dv
        exact = solve(build_lambda_problem(rho, 0.56, dv)).objective
        assert all(obj >= exact - 1e-8 for obj in objectives), dv
        for n, row in zip(sizes, rows):
            lp = build_discretized_lp(rho, 0.56, dv, n)
            lam = np.array([row.lam[i] for i in range(2, dv + 1)])
            assert lp.is_feasible(lam, 1e-8), (dv, n)


@pytest.mark.parametrize("max_var_degree,eps", [(2, 0.56), (5, 0.95), (5, 1.0)])
def test_lp_sweep_infeasible_rows(max_var_degree, eps):
    # lambda_2 = 1 violates stability at eps = 0.56; no design decodes at
    # eps >= 0.95 with rho = {5: 1}.
    rows = lp_baseline_sweep(DegreeDistribution({5: 1.0}), eps,
                             max_var_degree, [10, 100])
    assert [r.status for r in rows] == ["infeasible", "infeasible"]
    assert all(r.objective is None for r in rows)


def test_lp_sweep_two_degrees_feasible():
    # Dv = 2 leaves no equality row: lambda_2 = 1 and the objective is 1/2.
    rows = lp_baseline_sweep(DegreeDistribution({5: 1.0}), 0.1, 2, [10, 100])
    assert [r.status for r in rows] == ["optimal", "optimal"]
    for row in rows:
        assert row.objective == pytest.approx(0.5, abs=1e-7)
        assert row.lam == {2: 1.0}


def test_lp_sweep_monotone_and_sandwich():
    rho = DegreeDistribution({5: 1.0})
    rows = lp_baseline_sweep(rho, 0.56, 5, [10, 20, 50])
    assert [r.n_points for r in rows] == [10, 20, 50]
    assert all(r.status == "optimal" for r in rows)
    rates = [r.rate for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
    sdp = solve(build_lambda_problem(rho, 0.56, 5))
    # Grid relaxations upper-bound the exact objective.
    for r in rows:
        assert r.objective >= sdp.objective - 1e-8


def test_sweep_csv_format():
    rho = DegreeDistribution({5: 1.0})
    rows = lp_baseline_sweep(rho, 0.56, 5, [10])
    buf = io.StringIO()
    sweep_rows_to_csv(rows, 5, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "N,rate,objective,lambda_2,lambda_3,lambda_4,lambda_5,status"
    cells = lines[1].split(",")
    assert cells[0] == "10" and cells[-1] == "optimal"
    assert float(cells[1]) == pytest.approx(rows[0].rate, rel=1e-5)


def test_lp_rejects_bad_inputs():
    rho = DegreeDistribution({5: 1.0})
    with pytest.raises(ValueError):
        build_discretized_lp(rho, 0.56, 5, 0)
    with pytest.raises(ValueError):
        build_discretized_lp(rho, 0.56, 1, 10)
