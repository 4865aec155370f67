"""Conic solver: cone handling, statuses, invariants, determinism."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ldpcopt.sos import build_lambda_problem, build_threshold_problem

from conftest import REFERENCE_DESIGNS, TWO_TAP_DESIGN, random_distribution
from oracles import dense_congruence


def terms(*entries):
    """psd_rows of one block from (row, g, v) entries, each adding g v v' to
    the constraint matrix of its row."""
    rows, g, vs = zip(*entries)
    return np.array(rows), np.array(g, dtype=float), np.array(vs, dtype=float).T


def off_diagonal(row, scale):
    """The terms of scale * (E01 + E10) on a 2 x 2 block, exactly:
    (e0 + e1)(e0 + e1)' - (e0 - e1)(e0 - e1)' = 2 (E01 + E10)."""
    return [(row, 0.5 * scale, (1.0, 1.0)), (row, -0.5 * scale, (1.0, -1.0))]


def no_scalars(p):
    return np.zeros((p, 0))


def box_lp(sense="max"):
    # x <= 1 posed as x + s = 1 with a slack s >= 0.
    return ConicProblem(sense=sense, c=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]),
                        b=np.array([1.0]), n_nonneg=2)


def test_svec_round_trip(rng):
    for d in (1, 2, 5, 9):
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        v = svec(m)
        assert v.size == svec_dim(d)
        assert np.allclose(smat(v, d), m, atol=1e-14)
        n = 0.5 * (lambda a: a + a.T)(rng.normal(size=(d, d)))
        assert np.dot(svec(m), svec(n)) == pytest.approx(np.sum(m * n), abs=1e-10)


_SQRT2 = math.sqrt(2.0)


def _svec_by_triangle_index(m):
    """svec entry by entry through the triangle indices (the reference)."""
    iu0, iu1 = np.triu_indices(m.shape[0])
    v = m[iu0, iu1].copy()
    v[iu0 != iu1] *= _SQRT2
    return v


def _smat_by_triangle_index(v, d):
    iu0, iu1 = np.triu_indices(d)
    out = np.zeros((d, d))
    vals = v.copy()
    vals[iu0 != iu1] /= _SQRT2
    out[iu0, iu1] = vals
    out[iu1, iu0] = vals
    return out


def test_svec_smat_match_triangle_index_formulas(rng):
    for d in range(1, 41):
        m = rng.normal(size=(d, d))
        m = m + m.T
        w = rng.normal(size=svec_dim(d))
        v = svec(m)
        assert v.tobytes() == _svec_by_triangle_index(m).tobytes()
        assert smat(w, d).tobytes() == _smat_by_triangle_index(w, d).tobytes()
        assert smat(w).tobytes() == smat(w, d).tobytes()
        # Round trips, to the bit as the reference has them, and to rounding.
        back = smat(v, d)
        assert back.tobytes() == _smat_by_triangle_index(_svec_by_triangle_index(m), d).tobytes()
        assert np.allclose(back, m, rtol=1e-15, atol=0.0)
        assert np.allclose(svec(smat(w, d)), w, rtol=1e-15, atol=0.0)
        # A stack is handled matrix by matrix.
        stack = np.stack([m, -2.0 * m, back])
        assert svec(stack).tobytes() == np.stack([svec(a) for a in stack]).tobytes()
        vs = np.stack([w, v])
        assert smat(vs, d).tobytes() == np.stack([smat(w, d), smat(v, d)]).tobytes()
    with pytest.raises(SolverError):
        smat(np.zeros(4), 2)


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


DIAGONAL_ROWS = (terms((0, 1.0, (1.0, 0.0)), (1, 1.0, (0.0, 1.0))),)


def test_sdp_diagonal():
    prob = ConicProblem(sense="min", c=svec(np.eye(2)), A=no_scalars(2),
                        b=np.array([1.0, 2.0]), psd_dims=(2,), psd_rows=DIAGONAL_ROWS)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-7)
    assert sol.psd_min_eig >= -1e-9


def test_sdp_offdiagonal_coupling():
    # max 2*X01 with X00 = X11 = 1 drives X to the rank-one all-ones matrix.
    c = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = ConicProblem(sense="max", c=c, A=no_scalars(2), b=np.array([1.0, 1.0]),
                        psd_dims=(2,), psd_rows=DIAGONAL_ROWS)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    x, = sol.psd_matrices(prob)
    assert np.allclose(x, np.ones((2, 2)), atol=1e-5)


def test_sdp_infeasible():
    # X00 = -1 cannot hold for a PSD matrix.
    prob = ConicProblem(sense="min", c=svec(np.eye(2)), A=no_scalars(1),
                        b=np.array([-1.0]), psd_dims=(2,),
                        psd_rows=(terms((0, 1.0, (1.0, 0.0))),))
    assert solve(prob).status == "infeasible"


def _unit(d, i, j):
    m = np.zeros((d, d))
    m[i, j] = m[j, i] = 1.0
    return m


def test_two_block_sdp():
    # Variables [s | X1 (2x2) | X2 (1x1)]: min tr(X1) + 3 X2 subject to
    # X1_01 + X2 = 1 and s + X2 = 1/2. tr(X1) >= 2 X1_01, so the cost is at
    # least 3 - X1_01 >= 2, attained at X1 = ones, X2 = 0, s = 1/2.
    c = np.concatenate([[0.0], svec(np.eye(2)), [3.0]])
    prob = ConicProblem(sense="min", c=c, A=np.array([[0.0], [1.0]]),
                        b=np.array([1.0, 0.5]), n_nonneg=1, psd_dims=(2, 1),
                        psd_rows=(terms(*off_diagonal(0, 0.5)),
                                  terms((0, 1.0, (1.0,)), (1, 1.0, (1.0,)))))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-7)
    x1, x2 = sol.psd_matrices(prob)
    assert np.allclose(x1, np.ones((2, 2)), atol=1e-6)
    assert x2.shape == (1, 1) and abs(x2[0, 0]) <= 1e-7


def test_pinned_face_contradiction_is_infeasible():
    # X00 = 0 pins row 0 of X to zero, so X01 = 1 cannot hold. No exact
    # Farkas certificate exists (the problem is only weakly infeasible); the
    # embedding still finds one within the tolerance.
    prob = ConicProblem(sense="min", c=np.zeros(3), A=no_scalars(2),
                        b=np.array([0.0, 1.0]), psd_dims=(2,),
                        psd_rows=(terms((0, 1.0, (1.0, 0.0)), *off_diagonal(1, 0.5)),))
    assert solve(prob).status == "infeasible"


def test_pinned_face_optimum_is_reached():
    # max X01 with X00 = 0, X11 = 1: the face forces X01 = 0. Neither side
    # has a strictly feasible point, so the objective converges no faster
    # than the gap and is held to ten times the tolerance.
    prob = ConicProblem(sense="max", c=svec(0.5 * _unit(2, 0, 1)), A=no_scalars(2),
                        b=np.array([0.0, 1.0]), psd_dims=(2,), psd_rows=DIAGONAL_ROWS)
    sol = solve(prob, tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.objective) <= 1e-7


def test_lp_sdp_diagonal_consistency():
    # A PSD block forced diagonal by equalities must reproduce the LP optimum.
    rows = terms((0, 1.0, (1.0, 0.0)), (0, 1.0, (0.0, 1.0)),   # X00 + X11 = 3
                 *off_diagonal(1, 0.5))                        # X01 = 0
    c = svec(np.diag([1.0, -1.0]))
    sdp = ConicProblem(sense="max", c=c, A=no_scalars(2), b=np.array([3.0, 0.0]),
                       psd_dims=(2,), psd_rows=(rows,))
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
    prob = ConicProblem(sense="max", c=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]),
                        b=np.array([1.0]), n_nonneg=2, var_names=("gain",))
    sol = solve(prob)
    assert sol.scalar_values(prob) == pytest.approx({"gain": 1.0}, abs=1e-7)
    assert sol.psd_matrices(prob) == []


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
    with pytest.raises(SolverError):
        ConicProblem(sense="min", c=np.zeros(1), A=np.zeros((0, 1)), b=np.zeros(0),
                     psd_dims=(1, 0))


def _block_problem(psd_rows):
    # min tr X subject to X00 = X11 = 1 with DIAGONAL_ROWS: X = I.
    return ConicProblem(sense="min", c=svec(np.eye(2)), A=no_scalars(2), b=np.ones(2),
                        psd_dims=(2,), psd_rows=psd_rows)


def test_psd_term_validation_errors():
    rows, g, V = DIAGONAL_ROWS[0]
    _block_problem(((rows, g, V),))
    bad = [
        (),                                          # no terms for the block
        ((rows, g, V), (rows, g, V)),                # terms for a second block
        ((rows, g, np.vstack([V, V])),),             # V of 4 rows for d = 2
        ((rows, g, V[0]),),                          # V not a matrix
        ((rows, g[:1], V),),                         # g shorter than rows
        ((rows[:1], g, V),),                         # rows shorter than g
        ((np.array([0, 2]), g, V),),                 # row 2 of 2 rows
        ((np.array([-1, 0]), g, V),),                # a negative row
        ((rows, np.array([1.0, np.inf]), V),),       # g not finite
        ((rows, g, np.array([[1.0, 0.0], [np.nan, 1.0]])),),   # V not finite
    ]
    for psd_rows in bad:
        with pytest.raises(SolverError):
            _block_problem(psd_rows)


def test_rows_without_scalars_are_kept():
    # A feasibility program has equality rows but no scalar column; its
    # rows must survive as rows of A with zero columns.
    problem = _block_problem(DIAGONAL_ROWS)
    assert problem.A.shape == (2, 0)
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.y.shape == (2,)
    x, = sol.psd_matrices(problem)
    assert np.allclose(x, np.eye(2), atol=1e-7)
    with pytest.raises(SolverError):
        ConicProblem(sense="min", c=np.zeros(3), A=np.zeros((0, 0)), b=np.ones(2),
                     psd_dims=(2,), psd_rows=DIAGONAL_ROWS)


def test_upper_bounds_are_not_part_of_the_form():
    # The cone is orthant x PSD: an upper bound is a slack and a row.
    with pytest.raises(TypeError):
        ConicProblem(sense="min", c=np.zeros(1), A=np.zeros((0, 1)), b=np.zeros(0),
                     box_lo=np.zeros(1), box_hi=np.ones(1))
    problem = ConicProblem(sense="min", c=np.zeros(1), A=np.zeros((0, 1)),
                           b=np.zeros(0), box_lo=np.zeros(1))
    assert problem.box_hi.tolist() == [math.inf]


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


def test_dual_has_one_entry_per_row():
    # The builder's upper-bound rows are rows like any other: y covers them.
    problem = reference_lambda_problem("check6_eps049")
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.y.shape == (problem.A.shape[0],)


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


def _merit(entry):
    gap = abs(entry.primal_objective - entry.dual_objective)
    return max(entry.primal_residual, entry.dual_residual,
               gap / (1.0 + abs(entry.primal_objective) + abs(entry.dual_objective)))


def test_converged_solve_stops_when_progress_stalls():
    # The A8 threshold programs (seed 42): once the best merit meets the
    # tolerance, every further iteration but the last must at least halve
    # it. Without that rule some of these solves took extra steps of 1e-1
    # to 1e-7 while the residuals stayed at their rounding floor.
    rng = np.random.default_rng(42)
    for trial in range(20):
        lam = random_distribution(rng, int(rng.integers(3, 8)))
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        sol = solve(build_threshold_problem(lam, rho))
        assert sol.status == "optimal", trial
        best = math.inf
        for entry in sol.history[:-1]:
            merit = _merit(entry)
            if best <= solver.DEFAULT_TOL:
                assert merit <= 0.5 * best, (trial, entry.iteration)
            best = min(best, merit)


def _random_interior(rng, core):
    v = np.empty(core.m_c)
    v[:core.n_orth] = rng.uniform(0.5, 2.0, core.n_orth)
    for d, sl in core.blocks:
        g = rng.normal(size=(d, d))
        v[sl] = svec(g @ g.T + np.eye(d))
    return v


def _random_terms_problem(rng, p=None):
    """Random scalars and PSD terms: random block dimensions, several terms
    per row and rows repeated across blocks, and a last row that touches
    no block."""
    dims = tuple(int(d) for d in rng.integers(1, 8, size=rng.integers(1, 4)))
    p = int(rng.integers(2, 9)) if p is None else p
    n_scalars = int(rng.integers(0, 3))
    psd_rows = []
    for d in dims:
        n_terms = int(rng.integers(1, 3 * p))
        psd_rows.append((rng.integers(0, p - 1, size=n_terms), rng.normal(size=n_terms),
                         rng.normal(size=(d, n_terms))))
    return ConicProblem(sense="min", c=rng.normal(size=n_scalars + sum(map(svec_dim, dims))),
                        A=rng.normal(size=(p, n_scalars)), b=rng.normal(size=p),
                        n_nonneg=n_scalars, psd_dims=dims, psd_rows=tuple(psd_rows))


def _assert_rows_match_dense(problem, rng, w, factors):
    core = solver._Core(problem)
    rows = solver._Rows(core, core.A.T * w[:, None],
                        None if factors is None else core.pad(factors))
    dense = dense_congruence(problem, w, factors)
    v, y = rng.normal(size=core.m_c), rng.normal(size=problem.b.size)
    for got, want in ((rows.dot(v), dense.T @ v), (rows.combine(y), dense @ y),
                      (rows.gram(), dense.T @ dense)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    # The adjoint identity <G'v, y> = <v, G y>.
    lhs, rhs = rows.dot(v) @ y, v @ rows.combine(y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(v) @ np.abs(dense @ y))


def test_block_row_operations_match_dense_svec(rng):
    # The three block products, with R = I and with random congruences R,
    # against the constraint matrix written out in svec coordinates.
    for _ in range(30):
        problem = _random_terms_problem(rng)
        w = rng.uniform(0.5, 2.0, problem.n_scalars)
        _assert_rows_match_dense(problem, rng, np.ones(problem.n_scalars), None)
        _assert_rows_match_dense(problem, rng, w,
                                 [rng.normal(size=(d, d)) for d in problem.psd_dims])


def test_block_row_operations_on_sos_problem(rng):
    # Every node row of a sampled SOS program is one term per block.
    problem = reference_lambda_problem("check7_eps038")
    assert all(g.size == len(set(rows.tolist())) for rows, g, _ in problem.psd_rows)
    w = rng.uniform(0.5, 2.0, problem.n_scalars)
    _assert_rows_match_dense(problem, rng, w,
                             [rng.normal(size=(d, d)) for d in problem.psd_dims])


def test_stacked_scaling_products_match_per_block(rng):
    # The scaling's congruences run on the zero-padded stack of blocks;
    # each block must come out as its own product, symmetrized.
    # Blocks of 23 and 22 (one padded coordinate), and random blocks.
    uneven = build_lambda_problem(DegreeDistribution({6: 1.0}), 0.48, 10)
    for problem in (uneven, _random_terms_problem(rng, p=4)):
        core = solver._Core(problem)
        scal = solver._Scaling(core, _random_interior(rng, core), _random_interior(rng, core))
        u, v = rng.normal(size=core.m_c), rng.normal(size=core.m_c)
        products = [
            (scal.wsq_apply(v), lambda b, m: (b.R @ b.R.T) @ m @ (b.R @ b.R.T)),
            (scal.winv_apply(v), lambda b, m: b.Rit @ m @ b.Rit.T),
            (scal.scale_x(v), lambda b, m: b.Rit.T @ m @ b.Rit),
            (scal.scale_z(v), lambda b, m: b.R.T @ m @ b.R),
            (scal.jordan_div(v), lambda b, m: m / (0.5 * (b.lam[:, None] + b.lam[None, :]))),
            (scal.jordan_mul(u, v), lambda b, m: smat(u[b.sl]) @ m),
        ]
        for got, block in products:
            for b in scal.blocks:
                f = block(b, smat(v[b.sl], b.d))
                want = svec(0.5 * (f + f.T))
                assert np.max(np.abs(got[b.sl] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _max_step_one_direction(scal, v):
    """The step search on one scaled direction, one eigenvalue call per
    block (the reference for the fused search)."""
    vo = v[:scal.n_orth]
    alpha = math.inf
    neg = vo < 0.0
    if np.any(neg):
        alpha = float(np.min(scal.lam_orth[neg] / -vo[neg]))
    for b in scal.blocks:
        root = np.sqrt(b.lam)
        g = smat(v[b.sl], b.d) / np.outer(root, root)
        lo = float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
        if lo < 0.0:
            alpha = min(alpha, 1.0 / -lo)
    return alpha


def test_fused_step_search_matches_separate_searches(rng):
    for problem in (reference_lambda_problem("check7_eps038"),
                    _random_terms_problem(rng, p=4)):
        core = solver._Core(problem)
        for _ in range(10):
            scal = solver._Scaling(core, _random_interior(rng, core),
                                   _random_interior(rng, core))
            inside = scal.lam_sq()   # a direction along which every step is feasible
            pairs = [(rng.normal(size=core.m_c), rng.normal(size=core.m_c)),
                     (rng.normal(size=core.m_c), inside),
                     (inside, 1e-3 * rng.normal(size=core.m_c)),
                     (inside, inside)]
            for dx, dz in pairs:
                expected = min(_max_step_one_direction(scal, dx),
                               _max_step_one_direction(scal, dz))
                assert scal.max_step(dx, dz) == expected
        assert scal.max_step(inside, inside) == math.inf


def test_solves_repeat_to_the_bit():
    # Identical inputs give identical iterates on the PSD path: the A8
    # threshold programs (seed 42) and the Dv = 20 design, with blocks
    # (29, 28).
    rng = np.random.default_rng(42)
    problems = [build_lambda_problem(DegreeDistribution({4: 1.0}), 0.6, 20)]
    for _ in range(20):
        lam = random_distribution(rng, int(rng.integers(3, 8)))
        rho = random_distribution(rng, int(rng.integers(3, 8)))
        problems.append(build_threshold_problem(lam, rho))
    for problem in problems:
        a, b = solve(problem), solve(problem)
        assert a.status == b.status == "optimal"
        assert a.iterations == b.iterations
        assert a.history == b.history
        assert a.x.tobytes() == b.x.tobytes()


@st.composite
def check_distributions(draw):
    degrees = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(degrees),
                            max_size=len(degrees)))
    return DegreeDistribution(
        {d: w / sum(weights) for d, w in zip(degrees, weights)}, normalize=True)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(rho=check_distributions(), eps=st.floats(0.0, 0.99),
       max_var_degree=st.integers(2, 10))
def test_lambda_solves_repeat_to_the_bit(rho, eps, max_var_degree):
    # Whatever the outcome, a second solve of the same program retraces it:
    # same status, iterate history and bits.
    problem = build_lambda_problem(rho, eps, max_var_degree)
    a, b = solve(problem), solve(problem)
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert a.history == b.history
    # x is None when the program is infeasible.
    assert (a.x is None) == (b.x is None)
    assert a.x is None or a.x.tobytes() == b.x.tobytes()
