"""Sampled families, problem builders, and Gram certificates."""

import numpy as np
import pytest

from ldpcopt.ensemble import DegreeDistribution, EnsembleSpec, check_de_feasible
from ldpcopt.poly import Polynomial
from ldpcopt.solver import solve, svec_dim
from ldpcopt.sos import (
    assemble_sos_program,
    build_lambda_problem,
    build_rho_problem,
    build_sos_feasibility,
    build_threshold_problem,
    chebyshev_nodes,
    coefficient_family,
    GramTooLarge,
    MAX_GRAM_DIM,
    lambda_constraint_family,
    rho_constraint_family,
    threshold_constraint_family,
    verify_certificate,
)

from conftest import random_distribution
from oracles import compose, de_polynomial, sub


# -- sampled families -----------------------------------------------------------


def test_lambda_family_matches_de_polynomial(rng):
    # The composed node values of P / x, times x, against the expanded P.
    rho = random_distribution(rng, 6)
    eps = 0.42
    dv = 6
    fam = lambda_constraint_family(rho, eps, dv)
    lam = random_distribution(rng, dv)
    values = [lam.get(i, 0.0) for i in range(2, dv + 1)]
    # deg P = (dv - 1) deg(rho); x is factored out, which leaves deg P nodes.
    assert fam.shape == ((dv - 1) * (rho.max_degree - 1), dv)
    _, x = chebyshev_nodes(fam.shape[0] - 1)
    direct = de_polynomial(lam, rho, eps).evaluate_many(x)
    from_family = fam @ np.concatenate(([1.0], values)) * x
    assert np.allclose(direct, from_family, atol=1e-12)


def test_rho_family_constant_row_on_simplex(rng):
    lam = random_distribution(rng, 5)
    eps = 0.4
    fam = rho_constraint_family(lam, eps, 6)
    rho = random_distribution(rng, 6)
    values = [rho.get(j, 0.0) for j in range(2, 7)]
    # On the simplex the table is Q / x, of degree deg Q - 1, and its
    # interpolant at the n + 1 nodes, read at x = 0, is the stability
    # margin 1 - eps lam_2 rho'(1).
    n = fam.shape[0] - 1
    assert n == 5 * (lam.max_degree - 1) - 1
    _, x = chebyshev_nodes(n)
    cheb = np.polynomial.chebyshev.chebfit(
        2.0 * x - 1.0, fam @ np.concatenate(([1.0], values)), n)
    margin = 1.0 - eps * lam.get(2, 0.0) * rho.derivative_at_one()
    assert np.polynomial.chebyshev.chebval(-1.0, cheb) == pytest.approx(margin, abs=1e-12)


def test_threshold_family_structure():
    lam = DegreeDistribution({3: 1.0})
    rho = DegreeDistribution({6: 1.0})
    fam = threshold_constraint_family(lam, rho)
    # One variable, t; deg T = 10 with x factored out leaves 10 nodes.
    assert fam.shape == (10, 2)
    # At t = 1/eps the family equals (1/eps) * P(x) / x for the eps-free map.
    _, xs = chebyshev_nodes(9)
    f = compose(lam.edge_polynomial(), sub(
        Polynomial((1.0,)), compose(rho.edge_polynomial(), Polynomial((1.0, -1.0)))))
    expect = 2.0 - f.evaluate_many(xs) / xs
    assert np.allclose(fam @ [1.0, 2.0], expect, atol=1e-12)


# -- builders -----------------------------------------------------------------


def test_lambda_problem_dimensions():
    # deg P = 30; the lambda family vanishes at 0, so the program is posed
    # for F = P(x)/x of odd degree 29: blocks of 15 under the weights x and
    # 1 - x, 30 node rows and the sum row. The six taps are nonnegative
    # scalars; the sum row alone keeps each at most 1.
    prob = build_lambda_problem(DegreeDistribution({6: 1.0}), 0.49, 7)
    assert prob.psd_dims == (15, 15)
    assert prob.A.shape == (31, 6)
    assert prob.n_nonneg == 6
    assert prob.c.shape == (6 + 2 * svec_dim(15),)
    for rows, g, V in prob.psd_rows:
        assert rows.tolist() == list(range(30))
        assert g.shape == (30,) and np.all(g < 0.0)
        assert V.shape == (15, 30)
    prob2 = build_lambda_problem(DegreeDistribution({5: 1.0}), 0.56, 5)
    assert prob2.psd_dims == (8, 8)  # deg P = 16, F of degree 15


def test_lambda_taps_stay_on_the_simplex():
    # Nonnegativity and the sum row bound every tap by 1; no cap row is
    # posed. Over random (rho, eps, Dv <= 12) each solve ends optimal or
    # infeasible, and every optimal answer has taps in [0, 1] summing to 1.
    rng = np.random.default_rng(19)
    for _ in range(12):
        degrees = rng.choice(np.arange(3, 9), size=int(rng.integers(1, 3)),
                             replace=False)
        rho = DegreeDistribution({int(d): float(w) for d, w in
                                  zip(degrees, rng.dirichlet(np.ones(degrees.size)))},
                                 normalize=True)
        dv = int(rng.integers(2, 13))
        prob = build_lambda_problem(rho, float(rng.uniform(0.05, 0.9)), dv)
        sol = solve(prob)
        assert sol.status in ("optimal", "infeasible")
        if sol.status == "optimal":
            lam = sol.x[:dv - 1]
            assert np.all(lam >= -1e-9) and np.all(lam <= 1.0 + 1e-9)
            assert abs(float(np.sum(lam)) - 1.0) <= 1e-9


def test_lambda_problem_rejects_bad_eps():
    rho = DegreeDistribution({4: 1.0})
    with pytest.raises(ValueError):
        build_lambda_problem(rho, 1.0, 5)
    with pytest.raises(ValueError):
        build_lambda_problem(rho, -0.2, 5)
    assert build_lambda_problem(rho, 0.0, 5).psd_dims == (6, 6)  # deg P = 12, F 11


@pytest.mark.parametrize("family", [lambda_constraint_family, rho_constraint_family])
@pytest.mark.parametrize("eps, degree", [(1.0, 6), (1.5, 6), (-0.1, 6), (float("nan"), 6),
                                         (0.3, 1)])
def test_design_family_refuses_bad_eps_or_degree(family, eps, degree):
    # The family itself refuses, not only the builder that poses it.
    with pytest.raises(ValueError):
        family(DegreeDistribution({3: 1.0}), eps, degree)


def test_degenerate_epsilon_unconstrained_simplex():
    # With eps = 0 the decoding constraint is vacuous and all edge mass goes
    # to degree 2, giving objective 1/2.
    prob = build_lambda_problem(DegreeDistribution({2: 1.0}), 0.0, 3)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5, abs=1e-7)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_single_variable_simplex_forced():
    prob = build_lambda_problem(DegreeDistribution({2: 1.0}), 0.3, 2)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)


def test_rho_problem_feasibility_transfer():
    lam = DegreeDistribution({2: 0.4021, 3: 0.2137, 7: 0.3902}, normalize=True)
    sol = solve(build_rho_problem(lam, 0.49, 6))
    assert sol.status == "optimal"
    assert sol.objective <= 1.0 / 6.0 + 1e-4


def test_rho_problem_trivial():
    lam = DegreeDistribution({2: 1.0})
    sol = solve(build_rho_problem(lam, 0.5, 2))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_threshold_problem_trivial():
    prob = build_threshold_problem(DegreeDistribution({2: 1.0}),
                                   DegreeDistribution({2: 1.0}))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert 1.0 / sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_threshold_problem_regular_pair():
    prob = build_threshold_problem(DegreeDistribution({3: 1.0}),
                                   DegreeDistribution({6: 1.0}))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert 1.0 / sol.x[0] == pytest.approx(0.4294, abs=1e-3)


def test_solver_output_passes_de_check():
    # Soundness: an accepted certificate implies the recovered ensemble
    # passes the independent grid check (solver-tolerance slack).
    rho = DegreeDistribution({6: 1.0})
    prob = build_lambda_problem(rho, 0.49, 7)
    sol = solve(prob)
    assert sol.status == "optimal"
    taps = {i: v for i, v in zip(range(2, 8), sol.x[:6]) if v > 1e-9}
    lam = DegreeDistribution(taps, normalize=True)
    cert = sol.psd_matrices(prob)
    _, x = chebyshev_nodes(29)
    target = de_polynomial(lam, rho, 0.49).evaluate_many(x) / x
    assert verify_certificate(cert, target).ok
    rep = check_de_feasible(EnsembleSpec(lam, rho, 0.49))
    assert rep.grid_value >= -1e-7


def test_certificate_checks_small_taps_at_large_degree():
    # At Dv = 34 a lifted certificate's tolerance grew with its largest
    # coefficient, to 1e-7 (1 + 5.0e44), and passed a family whose value at
    # x = 1 (the lift's top coefficient) was off by 0.1. The node residual
    # check sees 1e-6 there, and a shift of 1e-6 between the two largest
    # taps.
    rho = DegreeDistribution({6: 1.0})
    prob = build_lambda_problem(rho, 0.48, 34)
    sol = solve(prob)
    assert sol.status == "optimal"
    fam = lambda_constraint_family(rho, 0.48, 34)
    cert = sol.psd_matrices(prob)
    n = fam.shape[0] - 1
    x = np.concatenate(([1.0], sol.x[: fam.shape[1] - 1]))
    assert verify_certificate(cert, fam @ x).ok
    _, nodes = chebyshev_nodes(n)
    report = verify_certificate(cert, fam @ x + 1e-6 * nodes ** n)
    assert report.psd_ok and not report.reconstruction_ok
    big, second = 1 + np.argsort(x[1:])[::-1][:2]
    x[big] -= 1e-6
    x[second] += 1e-6
    report = verify_certificate(cert, fam @ x)
    assert report.psd_ok and not report.reconstruction_ok


# -- certificates ---------------------------------------------------------------

# Degree-2 forms: s0 over (T_0, T_1) and s1 over T_0 with the weight
# x(1 - x), each basis vector scaled by c = sqrt(2/3).
_X2 = chebyshev_nodes(2)[1]


def test_certificate_identity():
    target = 2.0 / 3.0 * (1.0 + (2.0 * _X2 - 1.0) ** 2 + _X2 * (1.0 - _X2))
    rep = verify_certificate([np.eye(2), np.eye(1)], target)
    assert rep.ok and rep.min_eig == pytest.approx(1.0)


def test_certificate_rank_one_square():
    # (T_0 - T_1)^2 = (2 - 2x)^2.
    grams = [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((1, 1))]
    rep = verify_certificate(grams, 2.0 / 3.0 * (2.0 - 2.0 * _X2) ** 2)
    assert rep.ok


def test_certificate_negative_constant_impossible():
    # x^2 - 0.5 is negative at 0, so no PSD pair of blocks certifies it.
    target = _X2 ** 2 - 0.5
    rep = verify_certificate([np.diag([-0.5, 1.0]), np.eye(1)], target)
    assert not rep.psd_ok
    rep2 = verify_certificate([np.eye(2), np.eye(1)], target)
    assert rep2.psd_ok and not rep2.reconstruction_ok


def test_certificate_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_certificate([np.eye(2), np.eye(1)], np.ones(5))
    with pytest.raises(ValueError):
        verify_certificate([np.eye(3)], np.ones(3))


def test_certificate_rejects_diagonal_perturbation(rng):
    p = Polynomial([0.3, -1.0, 1.0])  # (x - 0.5)^2 + 0.05, positive
    prob = build_sos_feasibility(p)
    sol = solve(prob)
    assert sol.status == "optimal"
    cert = sol.psd_matrices(prob)
    target = coefficient_family(p.coeffs[:, None])[:, 0]
    assert verify_certificate(cert, target).ok
    for b, gram in enumerate(cert):
        for k in range(gram.shape[0]):
            bad = [g.copy() for g in cert]
            bad[b][k, k] -= 1e-3
            assert not verify_certificate(bad, target).ok


def test_parity_blocks_and_factored_root():
    # p(x) = x ((x - 1/2)^2 + 0.05) vanishes at 0: the program is posed for
    # F = p / x of degree 2, s0 over (T_0, T_1) and s1 over T_0 with the
    # weight x(1 - x), matched at 3 nodes.
    p = Polynomial([0.0, 0.3, -1.0, 1.0])
    fam = coefficient_family(p.coeffs[:, None])
    assert fam.shape == (3, 1)
    prob = build_sos_feasibility(p)
    assert prob.psd_dims == (2, 1)
    assert prob.A.shape[0] == 3
    sol = solve(prob)
    assert sol.status == "optimal"
    cert = sol.psd_matrices(prob)
    assert verify_certificate(cert, fam[:, 0]).ok
    with pytest.raises(ValueError):
        verify_certificate(cert, coefficient_family([[0.3], [-1.0]])[:, 0])
    # A table needs a constant column: a 1-D coefficient list is refused.
    with pytest.raises(ValueError):
        coefficient_family(p.coeffs)


def test_feasibility_program_negative_polynomial():
    p = Polynomial([-0.2, 0.0, 1.0])  # min -0.2 at x = 0
    assert solve(build_sos_feasibility(p)).status == "infeasible"


def test_generic_builder_quadratic_box():
    # Maximize b with 1 + b x + x^2 >= 0 on [0, 1] and b boxed to [0, 1],
    # the cap posed as the variable s >= 0 and the row b + s = 1: the box
    # binds, so b* = 1.
    fam = coefficient_family(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    prob = assemble_sos_program(fam, "max", [1.0, 0.0], extra_eq=[([1.0, 1.0], 1.0)])
    assert prob.n_nonneg == 2 and prob.A.shape == (4, 2)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_gram_dimension_cap():
    # Dv = 52 at deg rho = 6 has exactly MAX_GRAM_DIM - 1 as its degree, and
    # as many nodes once x is factored out; one more degree, or a direct
    # program past the cap, is refused before it is built.
    rho = DegreeDistribution({6: 1.0})
    assert lambda_constraint_family(rho, 0.4, 52).shape[0] == MAX_GRAM_DIM - 1
    with pytest.raises(GramTooLarge):
        build_lambda_problem(rho, 0.4, 53)
    with pytest.raises(GramTooLarge):
        build_sos_feasibility(Polynomial(np.ones(MAX_GRAM_DIM + 1)))
