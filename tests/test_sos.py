"""Lift, affine families, problem builders, and Gram certificates."""

import math

import numpy as np
import pytest

from ldpcopt.ensemble import DegreeDistribution, EnsembleSpec, check_de_feasible
from ldpcopt.poly import Polynomial
from ldpcopt.solver import solve, svec_dim
from ldpcopt.sos import (
    AffinePolynomialFamily,
    SosCertificate,
    assemble_sos_program,
    build_lambda_problem,
    build_rho_problem,
    build_sos_feasibility,
    build_threshold_problem,
    certificate_from_solution,
    GramTooLarge,
    MAX_GRAM_DIM,
    gram_basis_weights,
    is_degenerate_epsilon,
    lambda_constraint_family,
    lift_to_real_line,
    rho_constraint_family,
    threshold_constraint_family,
    verify_certificate,
)

from conftest import random_distribution
from oracles import de_polynomial, lift_preserves_nonnegativity_check


# -- lift -------------------------------------------------------------------


def test_lift_constant():
    assert lift_to_real_line(Polynomial([1.0]), 0) == Polynomial([1.0])


def test_lift_identity_order_one():
    # (1+x^2) * (x^2/(1+x^2)) = x^2
    assert lift_to_real_line(Polynomial((0.0, 1.0)), 1) == \
        Polynomial([0.0, 0.0, 1.0])


def test_lift_quadratic_example():
    # c + b x + a x^2 with a = c = 1, b = 0.5 -> (a+b+c)x^4 + (b+2c)x^2 + c
    p = Polynomial([1.0, 0.5, 1.0])
    assert np.allclose(lift_to_real_line(p, 2).padded(5),
                       [1.0, 0.0, 2.5, 0.0, 2.5])


def test_lift_rejects_low_order():
    with pytest.raises(ValueError):
        lift_to_real_line(Polynomial([0.0, 0.0, 1.0]), 1)


def test_lift_odd_coefficients_exactly_zero(rng):
    for _ in range(10):
        deg = int(rng.integers(0, 9))
        p = Polynomial(rng.normal(size=deg + 1))
        q = deg + int(rng.integers(0, 3))
        pi = lift_to_real_line(p, q)
        padded = pi.padded(2 * q + 1)
        assert np.all(padded[1::2] == 0.0)


def test_lift_linearity(rng):
    p = Polynomial(rng.normal(size=5))
    r = Polynomial(rng.normal(size=3))
    alpha = 0.731
    q = 6
    lhs = lift_to_real_line(p.scale(alpha).add(r), q)
    rhs = lift_to_real_line(p, q).scale(alpha).add(lift_to_real_line(r, q))
    assert np.allclose(lhs.padded(2 * q + 1), rhs.padded(2 * q + 1), atol=1e-12)


def test_lift_matches_substitution(rng):
    # Pi(x) = (1+x^2)^q p(x^2/(1+x^2)) pointwise.
    p = Polynomial(rng.normal(size=4))
    q = 5
    pi = lift_to_real_line(p, q)
    for x in rng.uniform(-3.0, 3.0, size=20):
        t = x * x / (1.0 + x * x)
        expect = (1.0 + x * x) ** q * p.evaluate_many(t)
        assert pi.evaluate_many(float(x)) == pytest.approx(
            expect, rel=1e-10, abs=1e-10)


def test_nonnegativity_check_helper(rng):
    assert lift_preserves_nonnegativity_check(Polynomial([0.25, -1.0, 1.0]), 2)
    assert lift_preserves_nonnegativity_check(Polynomial([-0.6, 1.0]), 1)
    lam = DegreeDistribution({2: 0.4021, 3: 0.2137, 7: 0.3902}, normalize=True)
    p = de_polynomial(lam, DegreeDistribution({6: 1.0}), 0.49)
    assert lift_preserves_nonnegativity_check(p, 30)


# -- affine families ----------------------------------------------------------


def test_family_lift_commutes_with_evaluation(rng):
    table = rng.normal(size=(5, 3))
    fam = AffinePolynomialFamily(("u", "v"), table)
    values = rng.normal(size=2)
    q = 6
    direct = lift_to_real_line(fam.at(values), q)
    symbolic = fam.lift(q).at(values)
    assert np.allclose(direct.padded(2 * q + 1), symbolic.padded(2 * q + 1),
                       atol=1e-12)


def test_quadratic_family_lift_symbolic():
    # f = c + b x + a x^2 over variables (a, b, c): the lifted coefficient
    # table must read off c; b + 2c; a + b + c on the even rows.
    fam = AffinePolynomialFamily(
        ("a", "b", "c"),
        np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]))
    lifted = fam.lift(2)
    expect = np.array([
        [0.0, 0.0, 0.0, 1.0],   # c
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 2.0],   # b + 2c
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 1.0],   # a + b + c
    ])
    assert np.allclose(lifted.table, expect, atol=0.0)


def test_lambda_family_matches_de_polynomial(rng):
    rho = random_distribution(rng, 6)
    eps = 0.42
    dv = 6
    fam = lambda_constraint_family(rho, eps, dv)
    lam = random_distribution(rng, dv)
    values = [lam.get(i, 0.0) for i in range(2, dv + 1)]
    direct = de_polynomial(lam, rho, eps)
    from_family = fam.at(values)
    n = max(direct.degree, from_family.degree) + 1
    assert np.allclose(direct.padded(n), from_family.padded(n), atol=1e-12)


def test_lambda_lifted_family_round_trip(rng):
    # Evaluating the lifted affine forms equals lifting the evaluated
    # polynomial, coefficient-wise.
    rho = DegreeDistribution({6: 1.0})
    eps = 0.49
    dv = 7
    fam = lambda_constraint_family(rho, eps, dv)
    q = fam.degree
    lam = random_distribution(rng, dv)
    values = [lam.get(i, 0.0) for i in range(2, dv + 1)]
    lifted_eval = fam.lift(q).at(values)
    direct = lift_to_real_line(de_polynomial(lam, rho, eps), q)
    assert np.allclose(lifted_eval.padded(2 * q + 1),
                       direct.padded(2 * q + 1), atol=1e-10)


def test_rho_family_constant_row_on_simplex(rng):
    lam = random_distribution(rng, 5)
    fam = rho_constraint_family(lam, 0.4, 6)
    rho = random_distribution(rng, 6)
    values = [rho.get(j, 0.0) for j in range(2, 7)]
    # Q(0) = sum rho_j - 1 vanishes on the simplex.
    assert fam.at(values).coeffs[0] == pytest.approx(0.0, abs=1e-12)


def test_threshold_family_structure():
    lam = DegreeDistribution({3: 1.0})
    rho = DegreeDistribution({6: 1.0})
    fam = threshold_constraint_family(lam, rho)
    assert fam.variable_names == ("t",)
    assert fam.degree == 10
    # At t = 1/eps the family equals (1/eps) * P(x) for the eps-free map.
    p = fam.at([2.0])
    xs = np.linspace(0.0, 1.0, 50)
    f = lam.edge_polynomial().compose(
        Polynomial((1.0,)).sub(rho.edge_polynomial().compose(Polynomial((1.0, -1.0)))))
    expect = 2.0 * xs - f.evaluate_many(xs)
    assert np.allclose(p.evaluate_many(xs), expect, atol=1e-12)


# -- builders -----------------------------------------------------------------


def test_gram_basis_weights_past_int64_binomials():
    # C(75, 37) > 2^63: the weights must still come out as plain floats.
    w = gram_basis_weights(75)
    assert w.dtype == np.float64
    assert w[37] == pytest.approx(math.sqrt(math.comb(75, 37)), rel=1e-15)
    assert np.allclose(gram_basis_weights(4), np.sqrt([1.0, 4.0, 6.0, 4.0, 1.0]))


def test_lambda_problem_dimensions():
    # q = 30; the lambda family vanishes at 0, so the program is posed for
    # the order-29 lift of P(x)/x: even and odd blocks of 15, 30 even rows,
    # the sum row and one row lambda_i + s_i = 1 per variable.
    prob = build_lambda_problem(DegreeDistribution({6: 1.0}), 0.49, 7)
    assert prob.psd_dims == (15, 15)
    assert prob.A.shape == (31 + 6, 2 * 6 + 2 * svec_dim(15))
    assert prob.n_box == 12
    prob2 = build_lambda_problem(DegreeDistribution({5: 1.0}), 0.56, 5)
    assert prob2.psd_dims == (8, 8)  # q = 16, factored to 15


def test_lambda_slacks_are_the_upper_bound_gaps():
    prob = build_lambda_problem(DegreeDistribution({6: 1.0}), 0.49, 7)
    sol = solve(prob)
    assert sol.status == "optimal"
    lam, slack = sol.x[:6], sol.x[6:12]
    assert np.all(slack >= -1e-9)
    assert np.max(np.abs(slack - (1.0 - lam))) <= 1e-12


def test_lambda_problem_rejects_bad_eps():
    rho = DegreeDistribution({4: 1.0})
    with pytest.raises(ValueError):
        build_lambda_problem(rho, 1.0, 5)
    with pytest.raises(ValueError):
        build_lambda_problem(rho, -0.2, 5)
    assert is_degenerate_epsilon(0.0)
    assert build_lambda_problem(rho, 0.0, 5).psd_dims == (6, 6)  # q = 12, factored to 11


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
    cert = certificate_from_solution(prob, sol, 30)
    target = lift_to_real_line(de_polynomial(lam, rho, 0.49), 30)
    assert verify_certificate(cert, target).ok
    rep = check_de_feasible(EnsembleSpec(lam, rho, 0.49))
    assert rep.grid_value >= -1e-7


# -- certificates ---------------------------------------------------------------


def test_certificate_identity():
    cert = SosCertificate(np.eye(2), 1)
    rep = verify_certificate(cert, Polynomial([1.0, 0.0, 1.0]))
    assert rep.ok and rep.min_eig == pytest.approx(1.0)


def test_certificate_rank_one_square():
    cert = SosCertificate(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1)
    rep = verify_certificate(cert, Polynomial([1.0, -2.0, 1.0]))
    assert rep.ok


def test_certificate_negative_constant_impossible():
    # Pi(0) < 0 contradicts PSD-ness of any Gram matrix (B00 = Pi_0).
    target = Polynomial([-0.5, 0.0, 1.0])
    cert = SosCertificate(np.array([[-0.5, 0.0], [0.0, 1.0]]), 1)
    rep = verify_certificate(cert, target)
    assert not rep.psd_ok
    good_psd = SosCertificate(np.eye(2), 1)
    rep2 = verify_certificate(good_psd, target)
    assert rep2.psd_ok and not rep2.reconstruction_ok


def test_certificate_dimension_mismatch():
    cert = SosCertificate(np.eye(2), 1)
    with pytest.raises(ValueError):
        verify_certificate(cert, Polynomial([1.0, 0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        SosCertificate(np.eye(3), 1)


def test_certificate_rejects_diagonal_perturbation(rng):
    p = Polynomial([0.3, -1.0, 1.0])  # (x - 0.5)^2 + 0.05, positive
    prob = build_sos_feasibility(p)
    sol = solve(prob)
    assert sol.status == "optimal"
    cert = certificate_from_solution(prob, sol, p.degree)
    target = lift_to_real_line(p, p.degree)
    assert verify_certificate(cert, target).ok
    for k in range(cert.q + 1):
        bad = cert.gram.copy()
        bad[k, k] -= 1e-3
        assert not verify_certificate(SosCertificate(bad, cert.q), target).ok


def test_parity_blocks_and_factored_root():
    # p(x) = x ((x - 1/2)^2 + 0.05) vanishes at 0: the program is posed for
    # the order-2 lift of p / x (blocks over {1, x^2} and {x}), and the
    # reassembled order-3 Gram matrix is zero in row 0 and off parity.
    p = Polynomial([0.0, 0.3, -1.0, 1.0])
    prob = build_sos_feasibility(p)
    assert prob.psd_dims == (2, 1)
    assert prob.A.shape[0] == 3
    sol = solve(prob)
    assert sol.status == "optimal"
    cert = certificate_from_solution(prob, sol, 3)
    assert verify_certificate(cert, lift_to_real_line(p, 3)).ok
    assert not np.any(cert.gram[0]) and not np.any(cert.gram[:, 0])
    i, j = np.indices(cert.gram.shape)
    assert not np.any(cert.gram[(i + j) % 2 == 1])
    with pytest.raises(ValueError):
        certificate_from_solution(prob, sol, 1)


def test_feasibility_program_negative_polynomial():
    p = Polynomial([-0.2, 0.0, 1.0])  # min -0.2 at x = 0
    assert solve(build_sos_feasibility(p)).status == "infeasible"


def test_generic_builder_quadratic_box():
    # Maximize b with 1 + b x + x^2 >= 0 on [0, 1] and b boxed to [0, 1]:
    # the box binds, so b* = 1.
    fam = AffinePolynomialFamily(
        ("b",), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    prob = assemble_sos_program(fam, 2, "max", [1.0], [0.0], [1.0])
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_gram_dimension_cap():
    # Dv = 52 at deg rho = 6 lifts to exactly MAX_GRAM_DIM; one more degree,
    # or a direct program past the cap, is refused before it is built.
    rho = DegreeDistribution({6: 1.0})
    assert lambda_constraint_family(rho, 0.4, 52).degree + 1 == MAX_GRAM_DIM
    with pytest.raises(GramTooLarge):
        build_lambda_problem(rho, 0.4, 53)
    with pytest.raises(GramTooLarge):
        build_sos_feasibility(Polynomial(np.ones(MAX_GRAM_DIM + 1)))
