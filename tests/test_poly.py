"""Polynomial arithmetic, the decoding-success polynomial, and its oracles."""

import numpy as np
import pytest

from ldpcopt.ensemble import DegreeDistribution
from ldpcopt.poly import Polynomial

from conftest import random_distribution
from oracles import (
    compose,
    de_coefficients_monomial_rho,
    de_polynomial,
    mul,
    multinomial_power_coefficients,
    powers,
)


def test_evaluate_identity():
    p = Polynomial([0.0, 1.0])
    assert p.evaluate_many(0.5) == 0.5


def test_evaluate_zero_polynomial():
    z = Polynomial.zero()
    assert z.degree == -1
    assert z.evaluate_many(3.7) == 0.0


def test_evaluate_quartic_at_one():
    # (a+b+c)x^4 + (b+2c)x^2 + c with a = c = 1, b = 1.
    p = Polynomial([1.0, 0.0, 3.0, 0.0, 3.0])
    assert p.evaluate_many(1.0) == pytest.approx(7.0, abs=0.0)


def test_trailing_trim_and_degree():
    p = Polynomial([1.0, 2.0, 0.0, 1e-15])
    assert p.degree == 1
    assert list(p.coeffs) == [1.0, 2.0]


def test_array_and_sequence_coefficients_agree(rng):
    for coeffs in (rng.normal(size=7), np.array([3, 0, 2, 0, 0]),
                   np.array([1.0, 2.0, 0.0, 1e-15]), np.zeros(3)):
        a, b = Polynomial(coeffs), Polynomial(coeffs.tolist())
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert a.coeffs.dtype == np.float64 and not a.coeffs.flags.writeable
    c = rng.normal(size=4)
    p = Polynomial(c)
    c[0] = 99.0
    assert p.coeffs[0] != 99.0
    with pytest.raises(ValueError):
        Polynomial(np.ones((2, 2)))
    with pytest.raises(ValueError):
        Polynomial(np.array([1.0, np.inf]))


def test_mul_basic():
    x = Polynomial((0.0, 1.0))
    assert mul(x, x) == Polynomial([0.0, 0.0, 1.0])
    one_plus = Polynomial([1.0, 1.0])
    one_minus = Polynomial([1.0, -1.0])
    assert mul(one_plus, one_minus) == Polynomial([1.0, 0.0, -1.0])


def test_mul_square_two_term():
    # (2x + 3x^2)^2 = 4x^2 + 12x^3 + 9x^4
    p = Polynomial([0.0, 2.0, 3.0])
    assert np.allclose(mul(p, p).padded(5), [0.0, 0.0, 4.0, 12.0, 9.0])


def test_power_empty_product():
    p = Polynomial([0.0, 2.0, -1.0])
    assert powers(p, 0) == []
    with pytest.raises(ValueError):
        powers(p, -1)


def test_power_examples():
    p = Polynomial([0.0, 1.0, 1.0])
    assert np.allclose(powers(p, 2)[-1].padded(5), [0, 0, 1, 2, 1])
    q = Polynomial([0.0, 2.0, -1.0])
    assert np.allclose(powers(q, 3)[-1].padded(7), [0, 0, 0, 8, -12, 6, -1])


def test_compose_examples():
    sq = Polynomial([0.0, 0.0, 1.0])
    assert np.allclose(compose(sq, Polynomial([1.0, -1.0])).padded(3), [1, -2, 1])
    p = Polynomial([0.3, -1.2, 4.0, 0.5])
    assert compose(p, Polynomial((0.0, 1.0))) == p
    cube = Polynomial([0.0, 0.0, 0.0, 1.0])
    val = compose(cube, Polynomial([1.0, -0.5])).evaluate_many(1.0)
    assert val == pytest.approx(0.125, abs=1e-15)


def test_mul_evaluate_consistency(rng):
    for _ in range(20):
        p = Polynomial(rng.normal(size=rng.integers(1, 8)))
        q = Polynomial(rng.normal(size=rng.integers(1, 8)))
        prod = mul(p, q)
        for x in rng.uniform(-2.0, 2.0, size=5):
            expect = p.evaluate_many(x) * q.evaluate_many(x)
            assert prod.evaluate_many(x) == pytest.approx(
                expect, abs=1e-9 * (1.0 + abs(expect)))


def test_power_equals_compose_monomial(rng):
    for _ in range(10):
        p = Polynomial(rng.normal(size=rng.integers(1, 6)))
        pows = [Polynomial.one()] + powers(p, 3)
        for k in range(4):
            lhs = pows[k]
            rhs = compose(Polynomial(np.eye(k + 1)[k]), p)
            assert np.allclose(lhs.padded(lhs.degree + 1),
                               rhs.padded(lhs.degree + 1), atol=1e-12)


def test_derivative():
    p = Polynomial([5.0, 1.0, 3.0])
    assert p.derivative() == Polynomial([1.0, 6.0])
    assert Polynomial([2.0]).derivative() == Polynomial.zero()


def test_evaluate_many_matches_scalar(rng):
    # Each point of an array gets the bits of a 0-d evaluation, and both
    # match numpy's Horner, which adds c_k + acc * x in the same order.
    p = Polynomial(rng.normal(size=9))
    xs = rng.uniform(0.0, 1.0, size=32)
    many = p.evaluate_many(xs)
    for x, v in zip(xs, many):
        assert v == p.evaluate_many(float(x))
    assert np.array_equal(many, np.polynomial.polynomial.polyval(xs, p.coeffs))


def test_float_evaluation_is_the_array_evaluation_to_the_bit(rng):
    # A Python float takes the Horner loop on Python floats and gives a
    # float; it must carry the bits the array loop gives at that point. 0-d
    # and array inputs keep numpy types.
    for degree in range(256):
        p = Polynomial(rng.normal(size=degree + 1))
        assert p.degree == degree
        xs = np.concatenate([[0.0, 1.0, -1.0, 2.0], rng.uniform(-1.0, 2.0, size=6)])
        many = p.evaluate_many(xs)
        assert type(many) is np.ndarray and many.shape == xs.shape
        for x, want in zip(xs.tolist(), many):
            got = p.evaluate_many(x)
            assert type(got) is float, degree
            assert np.float64(got).tobytes() == want.tobytes(), (degree, x)
            assert type(p.evaluate_many(np.asarray(x))) is np.float64
            assert type(p.evaluate_many(np.float64(x))) is np.float64
    assert type(Polynomial.zero().evaluate_many(0.5)) is float


# -- decoding-success polynomial ------------------------------------------------


def test_de_polynomial_single_edges():
    lam = DegreeDistribution({2: 1.0})
    rho = DegreeDistribution({2: 1.0})
    p = de_polynomial(lam, rho, 0.3)
    assert np.allclose(p.padded(2), [0.0, 0.7])


def test_de_polynomial_degree3_checks():
    # lam = x, rho = x^2, eps = 1: P(x) = x - (1 - (1-x)^2) = -x + x^2
    lam = DegreeDistribution({2: 1.0})
    rho = DegreeDistribution({3: 1.0})
    p = de_polynomial(lam, rho, 1.0)
    assert np.allclose(p.padded(3), [0.0, -1.0, 1.0])


def test_de_polynomial_linear_coefficient(rng):
    # For a degree-6 monomial check side, the linear coefficient must equal
    # 1 - 5 * eps * lam_2.
    for _ in range(5):
        lam = random_distribution(rng, 7)
        eps = float(rng.uniform(0.05, 0.95))
        p = de_polynomial(lam, DegreeDistribution({6: 1.0}), eps)
        assert p.coeffs[1] == pytest.approx(1.0 - 5.0 * eps * lam.get(2), abs=1e-12)


def test_de_polynomial_endpoints(rng):
    for _ in range(5):
        lam = random_distribution(rng, 6)
        rho = random_distribution(rng, 5)
        eps = float(rng.uniform(0.0, 1.0))
        p = de_polynomial(lam, rho, eps)
        assert p.evaluate_many(0.0) == 0.0
        inner = 1.0 - rho.edge_polynomial().evaluate_many(1.0 - eps)
        expect = 1.0 - lam.edge_polynomial().evaluate_many(inner)
        assert p.evaluate_many(1.0) == pytest.approx(expect, abs=1e-12)


def test_de_polynomial_rejects_bad_eps():
    lam = DegreeDistribution({2: 1.0})
    rho = DegreeDistribution({2: 1.0})
    with pytest.raises(ValueError):
        de_polynomial(lam, rho, 1.5)
    with pytest.raises(ValueError):
        de_polynomial(lam, rho, -0.1)


def test_de_polynomial_max_degree(rng):
    lam = random_distribution(rng, 7)
    rho = random_distribution(rng, 6)
    p = de_polynomial(lam, rho, 0.5)
    assert p.degree <= (7 - 1) * (6 - 1)


# -- combinatorial oracles -------------------------------------------------------


def test_multinomial_trivial_cases():
    assert np.allclose(multinomial_power_coefficients([2.0], 3), [0, 0, 0, 8])
    assert np.allclose(multinomial_power_coefficients([1.0, 1.0], 0), [1.0])


def test_multinomial_matches_power(rng):
    # The multinomial expansion must agree with repeated multiplication for
    # random bases with up to four terms and exponents up to three.
    for _ in range(25):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, 4))
        base = rng.normal(size=n)
        via_formula = multinomial_power_coefficients(base, k)
        p = Polynomial(np.concatenate([[0.0], base]))
        via_power = ([Polynomial.one()] + powers(p, k))[k].padded(n * k + 1)
        assert np.allclose(via_formula, via_power, atol=1e-12)


def test_monomial_rho_linear_coefficients():
    lam = DegreeDistribution({2: 1.0})
    assert de_coefficients_monomial_rho(lam, 1, 0.25)[1] == pytest.approx(0.75)
    assert de_coefficients_monomial_rho(lam, 5, 0.49)[1] == pytest.approx(-1.45)


def test_monomial_rho_matches_de_polynomial(rng):
    # Coefficient magnitudes grow combinatorially with n, so the agreement is
    # per coefficient relative to its size (plain 1e-10 below O(1) scale).
    for n in range(2, 8):
        lam = random_distribution(rng, int(rng.integers(3, 8)))
        eps = float(rng.uniform(0.0, 1.0))
        closed = de_coefficients_monomial_rho(lam, n, eps)
        direct = de_polynomial(
            lam, DegreeDistribution({n + 1: 1.0}), eps).padded(closed.size)
        assert np.max(np.abs(closed - direct) / (1.0 + np.abs(direct))) <= 1e-10


def test_monomial_rho_reference_taps():
    lam = DegreeDistribution({2: 0.4021, 3: 0.2137, 7: 0.3902}, normalize=True)
    closed = de_coefficients_monomial_rho(lam, 5, 0.49)
    direct = de_polynomial(lam, DegreeDistribution({6: 1.0}), 0.49)
    assert np.allclose(closed, direct.padded(closed.size), atol=1e-10)
