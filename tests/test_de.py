"""Fixed-point simulation, the closed-form threshold, and the LP baseline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcopt import kernels
from ldpcopt.de import (
    bisect_threshold,
    build_discretized_lp,
    lp_baseline_sweep,
)
from ldpcopt.ensemble import DegreeDistribution, EnsembleSpec, check_de_feasible
from ldpcopt.solver import solve
from ldpcopt.sos import build_lambda_problem, build_threshold_problem

from conftest import random_distribution, trajectory

LAM36 = DegreeDistribution({3: 1.0})
RHO36 = DegreeDistribution({6: 1.0})
# A simulation below this value counts as having reached zero.
ZERO_CUTOFF = 1e-9


def fine_scan_threshold(lam, rho, n=200_001):
    """Independent oracle: eps* = 1 / max_x lam(1 - rho(1 - x)) / x."""
    xs = np.linspace(1e-9, 1.0, n)
    inner = 1.0 - rho.edge_polynomial().evaluate_many(1.0 - xs)
    ratios = lam.edge_polynomial().evaluate_many(inner) / xs
    return 1.0 / float(np.max(ratios))


def simulate(spec, max_iters=10_000, tol=1e-12, stop_below=0.0):
    """``kernels.de_final`` on the spec's edge polynomials from x0 = eps:
    (final, steps, stopped_by_tol, delta_last, delta_prev)."""
    return kernels.de_final(spec.lam.edge_polynomial().coeffs,
                            spec.rho.edge_polynomial().coeffs,
                            spec.epsilon, max_iters, tol, stop_below)


def test_de_iterate_zero_eps():
    final, steps, stopped, _, _ = simulate(EnsembleSpec(LAM36, RHO36, 0.0))
    assert steps == 1
    assert final == 0.0
    assert stopped and final < ZERO_CUTOFF


def test_de_iterate_below_threshold():
    assert simulate(EnsembleSpec(LAM36, RHO36, 0.40))[0] < ZERO_CUTOFF


def test_de_iterate_above_threshold():
    final = simulate(EnsembleSpec(LAM36, RHO36, 0.45))[0]
    assert final > 0.3


def test_de_trace_monotone_and_reproducible():
    spec = EnsembleSpec(DegreeDistribution({2: 0.3, 4: 0.7}),
                        DegreeDistribution({5: 1.0}), 0.35)
    lam_p = spec.lam.edge_polynomial()
    rho_p = spec.rho.edge_polynomial()
    xs, _ = trajectory(lam_p.coeffs, rho_p.coeffs, spec.epsilon, 200, 1e-12)
    assert np.all(np.diff(xs) <= 0.0)
    # Each step must reproduce eps * lam(1 - rho(1 - x)) exactly.
    for k in range(xs.size - 1):
        expect = spec.epsilon * lam_p.evaluate_many(
            1.0 - rho_p.evaluate_many(1.0 - xs[k]))
        assert abs(xs[k + 1] - expect) <= 1e-15


def test_bisect_threshold_trivial_pair():
    # lam = rho = x: H = 1 everywhere, so eps* is exactly 1.
    d2 = DegreeDistribution({2: 1.0})
    assert bisect_threshold(d2, d2) == 1.0


def test_bisect_threshold_regular_pair():
    thr = bisect_threshold(LAM36, RHO36)
    oracle = fine_scan_threshold(LAM36, RHO36)
    assert thr == pytest.approx(oracle, abs=1e-4)
    # The (3, 6) threshold, 1 / max H computed to 40 digits and rounded.
    assert abs(thr - 0.42943981441949184) <= 1e-15


def test_bisect_threshold_reference_taps():
    lam = DegreeDistribution({2: 0.4021, 3: 0.2137, 7: 0.3902}, normalize=True)
    thr = bisect_threshold(lam, RHO36)
    # The quoted operating point 0.49 must be within the threshold.
    assert thr >= 0.49 - 1e-4


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
    # Two references: the SDP's 1 / t*, and the fixed-point simulation,
    # which reaches zero just below eps* and not just above it.
    sol = solve(build_threshold_problem(lam, rho))
    assert sol.status == "optimal"
    eps_star = bisect_threshold(lam, rho)
    assert abs(eps_star - 1.0 / float(sol.x[0])) <= 1e-7
    below = EnsembleSpec(lam, rho, eps_star * (1.0 - 1e-3))
    assert simulate(below, 300_000, 0.0, ZERO_CUTOFF)[0] < ZERO_CUTOFF
    if eps_star * (1.0 + 1e-3) <= 1.0:
        # Above eps* the run settles on a fixed point: it stops once a step
        # falls below 1e-15, or when its budget runs out.
        above = EnsembleSpec(lam, rho, eps_star * (1.0 + 1e-3))
        assert simulate(above, 300_000, 1e-15, ZERO_CUTOFF)[0] >= ZERO_CUTOFF


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
            assert simulate(spec, max_iters=300_000, tol=1e-15)[0] < ZERO_CUTOFF
    assert hits >= 100


def test_check_agrees_with_threshold():
    # F = 1 - eps H(eps x) >= 0 on [0, 1] exactly when eps <= eps* =
    # 1 / max H: H(y) <= 1 / y puts the maximizer of H in [0, eps*], inside
    # the scan at every eps >= eps*. So the check passes just below eps*
    # and fails just above it, on A8-generator pairs whose eps* < 1.
    rng = np.random.default_rng(3)
    pairs = 0
    while pairs < 400:
        lam = random_distribution(rng, int(rng.integers(3, 8)))
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        eps_star = bisect_threshold(lam, rho)
        if eps_star * (1 + 1e-8) > 1.0:
            continue
        pairs += 1
        for eps in (eps_star * (1 - 1e-8), eps_star * (1 + 1e-8)):
            feasible = check_de_feasible(EnsembleSpec(lam, rho, eps)).feasible
            assert feasible == (eps <= eps_star), (lam, rho, eps_star, eps)


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
            assert simulate(spec, max_iters=300_000, tol=1e-15)[0] < ZERO_CUTOFF


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


def test_lp_columns_match_exact_powers():
    # Column j is psi(x_k)**j, formed as a running product of the composed
    # psi: it stays within 8 j units of 2**-53 of the exact power of the
    # float inputs' psi. The expanded monomials of psi**39 were off by 5.7e13.
    lp = build_discretized_lp(DegreeDistribution({6: 1.0}), 0.48, 40, 1000)
    assert lp.psi_powers.shape == (1000, 39)
    eps = Fraction(0.48)
    for k in list(range(0, 1000, 37)) + [999]:
        psi = 1 - (1 - eps * Fraction(float(lp.xs[k]))) ** 5
        exact = Fraction(1)
        for j in range(1, 40):
            exact *= psi
            err = abs(Fraction(float(lp.psi_powers[k, j - 1])) - exact)
            assert err <= Fraction(8 * j, 2 ** 53), (k, j)


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
            lam = np.array([row.lam.get(i, 0.0) for i in range(2, dv + 1)])
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
        assert dict(row.lam.items()) == {2: 1.0}


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


def test_lp_rejects_bad_inputs():
    rho = DegreeDistribution({5: 1.0})
    with pytest.raises(ValueError):
        build_discretized_lp(rho, 0.56, 5, 0)
    with pytest.raises(ValueError):
        build_discretized_lp(rho, 0.56, 1, 10)
    # eps outside [0, 1], nan included, is no erasure probability: the grid
    # LP refuses it before anything is solved, as the SOS builders do.
    for eps in (-0.2, 1.5, float("nan")):
        with pytest.raises(ValueError):
            build_discretized_lp(rho, eps, 5, 10)
        with pytest.raises(ValueError):
            lp_baseline_sweep(DegreeDistribution({6: 1.0}), eps, 5, [10, 100])


def test_lp_grid_rows_bound_the_sos_design():
    # The grid LP relaxes the exact SOS program of the same constraint, on
    # nested grids: wherever the SOS design is optimal, no grid row may be
    # infeasible, every optimal row's objective is at least the SOS one and
    # the objectives do not rise from N = 10 to 100 to 1000.
    rng = np.random.default_rng(27)
    optimal = 0
    for _ in range(40):
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        eps, dv = float(rng.uniform(0.05, 0.7)), int(rng.integers(2, 9))
        sdp = solve(build_lambda_problem(rho, eps, dv))
        if sdp.status != "optimal":
            continue
        optimal += 1
        rows = lp_baseline_sweep(rho, eps, dv, [10, 100, 1000])
        case = (rho, eps, dv, [r.status for r in rows])
        assert all(r.status != "infeasible" for r in rows), case
        objectives = [r.objective for r in rows if r.status == "optimal"]
        assert all(obj >= sdp.objective - 1e-8 for obj in objectives), case
        assert all(b <= a + 1e-8 for a, b in zip(objectives, objectives[1:])), case
    assert optimal >= 30
