"""Degree distributions, rates, stability, and feasibility checking."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcopt import ensemble, solver, sos
from ldpcopt.ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    capacity_gap,
    check_de_feasible,
    design_rate,
    stability_lambda2_bound,
)
from ldpcopt.poly import Polynomial

from conftest import COMPARISON_DESIGNS, REFERENCE_DESIGNS, random_distribution
from oracles import critical_points_64, de_polynomial


def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({1: 1.0})
    with pytest.raises(ValueError):
        DegreeDistribution({2: 0.6, 3: 0.6})
    with pytest.raises(ValueError):
        DegreeDistribution({2: -0.1, 3: 1.1})
    with pytest.raises(ValueError):
        DegreeDistribution({})


def test_distribution_normalize():
    d = DegreeDistribution({2: 0.5208, 3: 0.1458, 5: 0.3333}, normalize=True)
    assert sum(c for _, c in d.items()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        DegreeDistribution({2: 0.5}, normalize=True)  # too far from 1


def test_edge_polynomial_layout():
    d = DegreeDistribution({2: 0.25, 5: 0.75})
    assert np.allclose(d.edge_polynomial().padded(5), [0, 0.25, 0, 0, 0.75])
    assert d.max_degree == 5
    assert d.derivative_at_one() == pytest.approx(0.25 + 0.75 * 4)
    assert d.inv_degree_moment() == pytest.approx(0.25 / 2 + 0.75 / 5)


def test_json_round_trip():
    spec = EnsembleSpec(
        DegreeDistribution({2: 0.4, 3: 0.6}),
        DegreeDistribution({6: 1.0}),
        0.48,
    )
    data = json.loads(json.dumps(spec.to_json_dict()))
    back = EnsembleSpec.from_json_dict(data)
    assert back.lam == spec.lam and back.rho == spec.rho
    assert back.epsilon == spec.epsilon


@pytest.mark.parametrize("eps", [True, 10 ** 400, math.nan], ids=["bool", "huge", "nan"])
def test_spec_refuses_a_bad_epsilon(eps):
    # The rule of the CLI's epsilon: a bool is not a number (it read as
    # eps = 1), an int too large for a float raised OverflowError, and NaN
    # lies outside [0, 1].
    data = {"lambda": {"3": 1.0}, "rho": {"6": 1.0}, "epsilon": eps}
    with pytest.raises(ValueError, match="field 'epsilon'"):
        EnsembleSpec.from_json_dict(data)


def test_design_rate_symmetric():
    d = DegreeDistribution({2: 1.0})
    assert design_rate(d, d) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("key", ["check4_eps064", "check8_eps033"])
def test_design_rate_reference(key):
    ref = REFERENCE_DESIGNS[key]
    lam = DegreeDistribution(ref["lam"], normalize=True)
    rho = DegreeDistribution(ref["rho"])
    assert design_rate(lam, rho) == pytest.approx(ref["rate"], abs=5e-4)


def test_capacity_gap():
    assert capacity_gap(0.51, 0.49) == pytest.approx(0.0, abs=1e-15)
    assert capacity_gap(0.4922, 0.49) == pytest.approx(0.0349, abs=1e-3)
    assert capacity_gap(0.593, 0.38) == pytest.approx(0.0435, abs=1e-3)
    with pytest.raises(ValueError):
        capacity_gap(0.5, 1.0)


def test_stability_bound():
    assert stability_lambda2_bound(DegreeDistribution({4: 1.0}), 0.64) == \
        pytest.approx(0.52083, abs=1e-5)
    assert stability_lambda2_bound(DegreeDistribution({6: 1.0}), 0.49) == \
        pytest.approx(0.40816, abs=1e-5)
    assert stability_lambda2_bound(DegreeDistribution({2: 1.0}), 0.5) == \
        pytest.approx(2.0)
    with pytest.raises(ValueError):
        stability_lambda2_bound(DegreeDistribution({2: 1.0}), 0.0)


def test_rate_invariant_under_renormalization(rng):
    lam = random_distribution(rng, 7)
    rho = random_distribution(rng, 6)
    base = design_rate(lam, rho)
    scaled = DegreeDistribution(
        {d: 0.9973 * c for d, c in lam.items()}, normalize=True)
    assert design_rate(scaled, rho) == pytest.approx(base, abs=1e-12)


def test_check_de_feasible_trivial():
    spec = EnsembleSpec(DegreeDistribution({2: 1.0}),
                        DegreeDistribution({2: 1.0}), 0.5)
    # lam = rho = x: H = 1, so F = 1 - eps everywhere.
    rep = check_de_feasible(spec)
    assert rep.feasible
    assert rep.worst_x == pytest.approx(0.0)
    assert rep.worst_value == pytest.approx(0.5, abs=1e-15)


def test_check_de_feasible_reference_taps():
    ref = REFERENCE_DESIGNS["check6_eps049"]
    spec = EnsembleSpec(
        DegreeDistribution(ref["lam"], normalize=True),
        DegreeDistribution(ref["rho"]), ref["eps"])
    rep = check_de_feasible(spec)
    assert rep.grid_feasible
    assert rep.feasible


def test_check_de_feasible_above_capacity():
    ref = REFERENCE_DESIGNS["check6_eps049"]
    spec = EnsembleSpec(
        DegreeDistribution(ref["lam"], normalize=True),
        DegreeDistribution(ref["rho"]), 0.60)
    rep = check_de_feasible(spec)
    assert not rep.grid_feasible
    assert rep.grid_value < -1e-9


def test_grid_and_minimum_modes_agree(rng):
    for _ in range(10):
        spec = EnsembleSpec(random_distribution(rng, 7),
                            random_distribution(rng, 6),
                            float(rng.uniform(0.1, 0.9)))
        rep = check_de_feasible(spec)
        # The critical-point pass can only lower the reported minimum.
        assert rep.worst_value <= rep.grid_value + 1e-15
        if rep.grid_value < -1e-9:
            assert not rep.feasible


def test_endpoint_value_is_p_at_one(rng):
    # F(1) = P(1) = 1 - lam(1 - rho(1 - eps)), against the exact rational
    # P(1) at the Horner bound of test_composed_p_within_horner_bound_of_exact.
    for _ in range(10):
        lam, rho = random_distribution(rng, 7), random_distribution(rng, 6)
        eps = float(rng.uniform(0.1, 0.9))
        rep = check_de_feasible(EnsembleSpec(lam, rho, eps))
        bound = 4 * 2.0 ** -53 * lam.max_degree * rho.max_degree
        assert abs(Fraction(rep.endpoint_value) - exact_p(lam, rho, eps, 1.0)) <= bound


def _exact_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def exact_p(lam, rho, eps, x):
    """P(x) = x - lam(1 - rho(1 - eps*x)) in rational arithmetic, from the
    float taps, eps and x as given."""
    x = Fraction(x)
    psi = 1 - _exact_horner(rho.edge_polynomial().coeffs.tolist(),
                            1 - Fraction(eps) * x)
    return x - _exact_horner(lam.edge_polynomial().coeffs.tolist(), psi)


def test_composed_check_at_degree_195():
    # With lam of degree 40 and rho = x^5, P has degree 195 and its expanded
    # monomial coefficients reach about 1e16: evaluated from them, P(x) reads
    # hugely negative near x = 1 on a design that is DE-feasible.
    lam = DegreeDistribution({2: 0.3, 3: 0.3, 40: 0.4})
    rho = DegreeDistribution({6: 1.0})
    eps, x = 0.546, 0.9998
    assert (lam.max_degree - 1) * (rho.max_degree - 1) >= 195
    assert de_polynomial(lam, rho, eps).evaluate_many(x) < -ensemble.FEASIBILITY_TOL
    assert exact_p(lam, rho, eps, x) > 0
    rep = check_de_feasible(EnsembleSpec(lam, rho, eps))
    assert rep.feasible and rep.grid_feasible
    assert rep.endpoint_value == pytest.approx(float(exact_p(lam, rho, eps, 1.0)),
                                               abs=1e-12)


@st.composite
def _composed_cases(draw):
    """(lam, rho, eps, xs) with P of nominal degree up to 250, and taps in
    multiples of 1/4096 that sum to exactly 1, so that the rational P(x) / x
    has no tap-sum defect to divide by a small x."""
    check_degree = draw(st.integers(2, 11))
    var_degree = draw(st.integers(2, 1 + 250 // (check_degree - 1)))

    def distribution(max_degree):
        degrees = draw(st.lists(st.integers(2, max_degree - 1), max_size=4)) \
            if max_degree > 2 else []
        counts = {d: draw(st.integers(1, 1000)) for d in degrees}
        counts[max_degree] = 4096 - sum(counts.values())
        return DegreeDistribution({d: c / 4096 for d, c in counts.items()})

    lam, rho = distribution(var_degree), distribution(check_degree)
    eps = draw(st.floats(0.0, 1.0))
    xs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return lam, rho, eps, xs


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=_composed_cases())
def test_composed_p_within_horner_bound_of_exact(case):
    # F(x) = 1 - eps H(eps x), as check_de_feasible takes it, against the
    # exact P(x) / x, and F(0) against its limit 1 - eps lam_2 rho'(1).
    # The bound is P's: lam and rho have nonnegative coefficients summing
    # to 1 and are evaluated on [0, 1], so Horner on each errs by at most
    # 2 n u and magnifies an input error by at most its degree n (the bound
    # of its derivative there); chaining 1 - eps*x, rho, 1 - r, lam and
    # x - l gives at most 4 u (deg lam + 1)(deg rho + 1), u = 2**-53. F's
    # chain (eps*x, 1 - y, rho, 1 - r, Lam, R, 1 - eps h) has the same
    # degrees, and its largest error over these cases is a quarter of it.
    lam, rho, eps, xs = case
    p = ensemble._DecodingMap(lam, rho)
    bound = 4 * 2.0 ** -53 * (p.lam.degree + 1) * (p.rho.degree + 1)
    xs = [0.0] + xs
    stability = 1 - Fraction(eps) * Fraction(lam.get(2)) * sum(
        Fraction(c) * (j - 1) for j, c in rho.items())
    for x, v in zip(xs, (1.0 - eps * p.gains(eps * np.array(xs))).tolist()):
        want = exact_p(lam, rho, eps, x) / Fraction(x) if x else stability
        assert abs(Fraction(v) - want) <= bound, (lam, rho, eps, x)


def _dyadic_distribution(rng, max_degree):
    """Taps in multiples of 1/1024 that sum to exactly 1, so that the
    rational lam(psi(x)) / x has no tap-sum defect to divide by a small x."""
    counts = rng.multinomial(1024, np.ones(max_degree - 1) / (max_degree - 1))
    return DegreeDistribution({d: c / 1024 for d, c in
                               zip(range(2, max_degree + 1), counts.tolist()) if c})


def test_gain_within_horner_bound_of_exact(rng):
    # H = Lam(psi) R(1 - x) and H' against lam(psi(x)) / x and its derivative
    # in rationals, at the point 1 - fl(1 - x) the float map sees, and H(0)
    # against its limit lam_2 rho'(1). Every factor has nonnegative
    # coefficients and is evaluated on [0, 1], so no digit is lost near 0.
    u = 2.0 ** -53
    for _ in range(100):
        lam = _dyadic_distribution(rng, int(rng.integers(2, 30)))
        rho = _dyadic_distribution(rng, int(rng.integers(2, 12)))
        p = ensemble._DecodingMap(lam, rho)
        lc, rc = p.lam.coeffs.tolist(), p.rho.coeffs.tolist()
        dlc, drc = p.lam.derivative().coeffs.tolist(), p.drho.coeffs.tolist()
        size = (p.lam.degree + 1) * (p.rho.degree + 1)
        xs = np.concatenate([[0.0, 1e-12, 1e-3, 1.0], rng.uniform(0.0, 1.0, 5)])
        for x, h, dh in zip(xs.tolist(), p.gains(xs).tolist(),
                            p.gain_slopes(xs).tolist()):
            y = 1 - Fraction(1.0 - x)
            if y == 0:
                want = Fraction(lam.get(2)) * sum(Fraction(c) * (j - 1)
                                                  for j, c in rho.items())
            else:
                psi = 1 - _exact_horner(rc, 1 - y)
                value = _exact_horner(lc, psi)
                want = value / y
                slope = (_exact_horner(dlc, psi) * _exact_horner(drc, 1 - y) * y
                         - value) / y ** 2
                assert abs(Fraction(dh) - slope) <= \
                    4 * u * size ** 2 * max(1, abs(slope)), (lam, rho, x)
            assert abs(Fraction(h) - want) <= 4 * u * size * max(1, want), (lam, rho, x)


def _critical_points_by_scan(p):
    """The interval-by-interval scan that _critical_points replaces."""
    dp = p.derivative()
    if dp.degree < 1:
        return []
    xs = np.linspace(0.0, 1.0, ensemble.CRITICAL_SCAN_POINTS)
    dv = dp.evaluate_many(xs)
    roots = []
    for k in range(ensemble.CRITICAL_SCAN_POINTS - 1):
        a, b = xs[k], xs[k + 1]
        fa, fb = dv[k], dv[k + 1]
        if fa == 0.0:
            if 0.0 < a < 1.0:
                roots.append(float(a))
            continue
        if fa * fb < 0.0:
            for _ in range(64):
                m = 0.5 * (a + b)
                fm = dp.evaluate_many(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return [r for r in roots if 0.0 < r < 1.0]


def test_critical_points_match_full_scan(rng):
    xs = np.linspace(0.0, 1.0, ensemble.CRITICAL_SCAN_POINTS)
    polys = [Polynomial(rng.normal(size=int(rng.integers(2, 12)))) for _ in range(20)]
    polys += [de_polynomial(random_distribution(rng, 8), random_distribution(rng, 7),
                            float(rng.uniform(0.1, 0.9))) for _ in range(20)]
    # P' = (x - a)(x - b) vanishes exactly on two scan points.
    a, b = float(xs[1000]), float(xs[3000])
    polys.append(Polynomial([0.0, a * b, -0.5 * (a + b), 1.0 / 3.0]))
    for p in polys:
        found = ensemble._critical_points(p.derivative().evaluate_many)
        assert found == _critical_points_by_scan(p)
    assert a in ensemble._critical_points(polys[-1].derivative().evaluate_many)


def test_critical_points_early_stop_matches_64_halvings(rng):
    # The bisection stops once a halving changes nothing; the roots must be
    # those of all 64 halvings to the bit: on the gain slopes H'(eps x) as
    # the check takes them, on random polynomials, where the slope vanishes
    # exactly on scan points, and where it vanishes exactly on a midpoint
    # (the collapse onto an exact zero).
    xs = np.linspace(0.0, 1.0, ensemble.CRITICAL_SCAN_POINTS)
    slopes = []
    for _ in range(30):
        p = ensemble._DecodingMap(random_distribution(rng, 9), random_distribution(rng, 8))
        slopes.append(lambda ys, p=p, eps=float(rng.uniform(0.1, 0.9)):
                      p.gain_slopes(eps * ys))
    for _ in range(20):
        slopes.append(Polynomial(rng.normal(size=int(rng.integers(3, 12)))).evaluate_many)
    a, b = float(xs[1000]), float(xs[3000])
    slopes.append(Polynomial([0.0, a * b, -0.5 * (a + b), 1.0 / 3.0]).derivative().evaluate_many)
    mid = 0.5 * (xs[1234] + xs[1235])
    slopes.append(lambda ys: ys - mid)
    assert mid in ensemble._critical_points(slopes[-1])
    # H'(eps x) of the Dv = 52 design (rho = x^5, eps = 0.48), every solved tap
    # kept, so lam has degree 51.
    rho = DegreeDistribution({6: 1.0})
    sol = solver.solve(sos.build_lambda_problem(rho, 0.48, 52))
    lam = DegreeDistribution(dict(zip(range(2, 53), np.clip(sol.x[:51], 0.0, 1.0))),
                             normalize=True)
    dmap = ensemble._DecodingMap(lam, rho)
    assert dmap.lam.degree == 51
    slopes.append(lambda ys: dmap.gain_slopes(0.48 * ys))
    # Many sign changes: 31 well-separated simple roots.
    centres = [(j + 0.3) / 31 for j in range(31)]
    slopes.append(lambda ys: math.prod(ys - c for c in centres))
    assert len(ensemble._critical_points(slopes[-1])) == 31
    for f in slopes:
        found = ensemble._critical_points(f)
        want = critical_points_64(f, ensemble.CRITICAL_SCAN_POINTS)
        assert np.array(found).tobytes() == np.array(want).tobytes()


def test_feasible_implies_rate_below_capacity(rng):
    found = 0
    for _ in range(60):
        lam = random_distribution(rng, 6)
        rho = random_distribution(rng, 7)
        eps = float(rng.uniform(0.05, 0.8))
        spec = EnsembleSpec(lam, rho, eps)
        if check_de_feasible(spec).feasible:
            found += 1
            assert design_rate(lam, rho) <= 1.0 - eps + 1e-6
    assert found >= 5


def test_feasible_implies_stability(rng):
    for _ in range(40):
        lam = random_distribution(rng, 6)
        rho = random_distribution(rng, 7)
        eps = float(rng.uniform(0.05, 0.9))
        spec = EnsembleSpec(lam, rho, eps)
        if check_de_feasible(spec).feasible:
            p1 = de_polynomial(lam, rho, eps).coeffs[1]
            assert p1 >= -1e-9


def test_comparison_designs_parse():
    for ref in COMPARISON_DESIGNS.values():
        lam = DegreeDistribution(ref["lam"], normalize=True)
        rho = DegreeDistribution(ref["rho"])
        assert design_rate(lam, rho) == pytest.approx(ref["rate"], abs=1e-3)
