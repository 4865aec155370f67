"""Conic solver: cone handling, statuses, invariants, determinism."""

import io

import numpy as np
import pytest

from ldpcopt import solver
from ldpcopt.ensemble import DegreeDistribution
from ldpcopt.solver import (
    ConicProblem,
    SolverError,
    smat,
    solve,
    svec,
    svec_dim,
)
from ldpcopt.sos import build_lambda_problem

from conftest import REFERENCE_DESIGNS, TWO_TAP_DESIGN


def box_lp(sense="max"):
    return ConicProblem(sense=sense, c=np.array([1.0]), A=np.zeros((0, 1)),
                        b=np.zeros(0), box_lo=np.array([0.0]), box_hi=np.array([1.0]))


def test_svec_round_trip(rng):
    for d in (1, 2, 5, 9):
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        v = svec(m)
        assert v.size == svec_dim(d)
        assert np.allclose(smat(v, d), m, atol=1e-14)
        n = 0.5 * (lambda a: a + a.T)(rng.normal(size=(d, d)))
        assert np.dot(svec(m), svec(n)) == pytest.approx(np.sum(m * n), abs=1e-10)


def test_lp_box():
    sol = solve(box_lp())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-8)


def test_lp_equality():
    prob = ConicProblem(sense="min", c=np.array([1.0, 1.0]),
                        A=np.array([[1.0, 2.0]]), b=np.array([1.0]), n_nonneg=2)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5, abs=1e-7)
    assert sol.x[1] == pytest.approx(0.5, abs=1e-6)


def test_lp_infeasible():
    prob = ConicProblem(sense="min", c=np.array([1.0]), A=np.array([[1.0]]),
                        b=np.array([-1.0]), n_nonneg=1)
    assert solve(prob).status == "infeasible"


def test_lp_unbounded():
    prob = ConicProblem(sense="max", c=np.array([1.0]), A=np.zeros((0, 1)),
                        b=np.zeros(0), n_nonneg=1)
    assert solve(prob).status == "unbounded"


def test_sdp_diagonal():
    A = np.vstack([svec(np.diag([1.0, 0.0])), svec(np.diag([0.0, 1.0]))])
    prob = ConicProblem(sense="min", c=svec(np.eye(2)), A=A,
                        b=np.array([1.0, 2.0]), psd_dim=2)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-7)
    assert sol.psd_min_eig >= -1e-9


def test_sdp_offdiagonal_coupling():
    # max 2*X01 with X00 = X11 = 1 drives X to the rank-one all-ones matrix.
    A = np.vstack([svec(np.diag([1.0, 0.0])), svec(np.diag([0.0, 1.0]))])
    c = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = ConicProblem(sense="max", c=c, A=A, b=np.array([1.0, 1.0]), psd_dim=2)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    x = sol.psd_matrix(prob)
    assert np.allclose(x, np.ones((2, 2)), atol=1e-5)


def test_sdp_infeasible():
    # X00 = -1 cannot hold for a PSD matrix.
    prob = ConicProblem(sense="min", c=svec(np.eye(2)),
                        A=svec(np.diag([1.0, 0.0]))[None, :],
                        b=np.array([-1.0]), psd_dim=2)
    assert solve(prob).status == "infeasible"


def test_lp_sdp_diagonal_consistency():
    # A PSD block forced diagonal by equalities must reproduce the LP optimum.
    off = np.zeros((2, 2)); off[0, 1] = off[1, 0] = 1.0
    A = np.vstack([
        svec(np.eye(2)),          # X00 + X11 = 3
        svec(0.5 * off),          # X01 = 0
    ])
    c = svec(np.diag([1.0, -1.0]))
    sdp = ConicProblem(sense="max", c=c, A=A, b=np.array([3.0, 0.0]), psd_dim=2)
    lp = ConicProblem(sense="max", c=np.array([1.0, -1.0]),
                      A=np.array([[1.0, 1.0]]), b=np.array([3.0]), n_nonneg=2)
    s1, s2 = solve(sdp), solve(lp)
    assert s1.status == s2.status == "optimal"
    assert s1.objective == pytest.approx(s2.objective, abs=1e-7)


def test_optimal_invariants():
    sol = solve(box_lp())
    assert sol.duality_gap <= 1e-8 * (1.0 + abs(sol.objective))
    assert sol.eq_residual <= 1e-8


def test_complementarity_nonnegative_every_iterate():
    # Weak-duality surrogate on the embedding: the complementarity product is
    # a sum of cone inner products and must never go negative.
    prob = ConicProblem(sense="max", c=np.array([1.0, 0.5]),
                        A=np.array([[1.0, 1.0]]), b=np.array([1.0]), n_nonneg=2)
    sol = solve(prob)
    assert sol.status == "optimal"
    for entry in sol.history:
        assert entry.complementarity >= -1e-10
    final = sol.history[-1]
    assert final.primal_objective <= final.dual_objective + 1e-8 * (
        1.0 + abs(final.primal_objective))


def test_deterministic_iterates():
    prob = ConicProblem(sense="min", c=np.array([1.0, 1.0]),
                        A=np.array([[1.0, 2.0]]), b=np.array([1.0]), n_nonneg=2)
    a, b = solve(prob), solve(prob)
    assert len(a.history) == len(b.history)
    for ea, eb in zip(a.history, b.history):
        assert ea == eb
    assert np.array_equal(a.x, b.x)


def test_trace_stream():
    buf = io.StringIO()
    solve(box_lp(), trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) >= 2
    assert lines[0].startswith("iter")
    assert "pres" in lines[0] and "dres" in lines[0]


def test_solution_accessors():
    prob = ConicProblem(sense="max", c=np.array([1.0]), A=np.zeros((0, 1)),
                        b=np.zeros(0), box_lo=np.array([0.0]),
                        box_hi=np.array([1.0]), var_names=("gain",))
    sol = solve(prob)
    assert sol.scalar_values(prob) == pytest.approx({"gain": 1.0}, abs=1e-7)
    assert sol.psd_matrix(prob) is None


def test_validation_errors():
    with pytest.raises(SolverError):
        ConicProblem(sense="maximize", c=np.zeros(1), A=np.zeros((0, 1)),
                     b=np.zeros(0), n_nonneg=1)
    with pytest.raises(SolverError):
        ConicProblem(sense="min", c=np.zeros(2), A=np.zeros((0, 1)),
                     b=np.zeros(0), n_nonneg=1)
    with pytest.raises(SolverError):
        ConicProblem(sense="min", c=np.array([np.nan]), A=np.zeros((0, 1)),
                     b=np.zeros(0), n_nonneg=1)
    with pytest.raises(SolverError):
        ConicProblem(sense="min", c=np.zeros(0), A=np.zeros((0, 0)), b=np.zeros(0))


def test_best_iterate_fallback_is_reported():
    # The published two-tap design problem ends on the best-iterate fallback;
    # an "optimal" that was not the last iterate must say so.
    rho = DegreeDistribution(TWO_TAP_DESIGN["rho"])
    problem = build_lambda_problem(rho, TWO_TAP_DESIGN["eps"],
                                   TWO_TAP_DESIGN["max_var_degree"])
    sol = solve(problem)
    assert sol.status == "optimal"
    if len(sol.history) - 1 > sol.iterations:
        assert sol.message.startswith("best iterate returned")


def reference_lambda_problem(name):
    design = REFERENCE_DESIGNS[name]
    return build_lambda_problem(DegreeDistribution(design["rho"]), design["eps"],
                                design["max_var_degree"])


def test_optimal_sos_solve_is_polished():
    # The returned iterate is polished so that it meets A x = b to rounding,
    # not merely to the solver tolerance.
    sol = solve(reference_lambda_problem("check6_eps049"))
    assert sol.status == "optimal"
    assert sol.eq_residual <= 1e-12


@pytest.mark.parametrize("problem", [
    reference_lambda_problem("check4_eps064"),
    reference_lambda_problem("check8_eps033"),
    ConicProblem(sense="max", c=np.array([1.0, 0.5]), A=np.array([[1.0, 1.0]]),
                 b=np.array([1.0]), n_nonneg=2),
])
def test_no_iterations_past_the_answer(problem):
    # Once the best iterate meets the tolerance, the first iteration that
    # does not improve on it ends the solve.
    sol = solve(problem)
    assert sol.status == "optimal"
    assert len(sol.history) - 1 <= sol.iterations + 1


def _random_interior(rng, n_orth, d):
    g = rng.normal(size=(d, d))
    return np.concatenate([rng.uniform(0.5, 2.0, n_orth), svec(g @ g.T + np.eye(d))])


def _assert_congruence_matches_dense(problem, rng):
    core = solver._Core(solver._FacialReduction(solver._Canonical(problem)))
    n, d = core.n_orth, core.d
    scal = solver._Scaling(n, d, _random_interior(rng, n, d), _random_interior(rng, n, d))
    ghat = solver._KKT(core, scal).ghat
    for r in core.psd_rows:
        dense = scal.R.T @ smat(core.A[r, n:], d) @ scal.R
        expected = svec(0.5 * (dense + dense.T))
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(ghat[n:, r] - expected)) <= 1e-12 * scale


def test_sparse_congruence_matches_dense_on_sos_problem(rng):
    _assert_congruence_matches_dense(reference_lambda_problem("check7_eps038"), rng)


def test_sparse_congruence_matches_dense_on_dense_rows(rng):
    d, p = 6, 4
    A = rng.normal(size=(p, 2 + svec_dim(d)))
    problem = ConicProblem(sense="min", c=rng.normal(size=A.shape[1]), A=A,
                           b=rng.normal(size=p), n_nonneg=2, psd_dim=d)
    _assert_congruence_matches_dense(problem, rng)
