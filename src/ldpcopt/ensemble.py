"""Degree-distribution data model and feasibility checking.

Edge-perspective degree distributions map a node degree i >= 2 to the fraction
of edges attached to nodes of that degree; the associated edge polynomial is
sum_i coeff_i * x**(i-1). An ``EnsembleSpec`` bundles a variable-side and a
check-side distribution with an erasure probability and is the unit of
verification: its decoding-success polynomial P(x) = x - lam(1 - rho(1 - eps*x))
must be nonnegative on [0, 1], which the check tests as P(x) / x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

SUM_TOL = 1e-9
FEASIBILITY_TOL = 1e-9

GRID_POINTS = 10_001
CRITICAL_SCAN_POINTS = 4_096


class DegreeDistribution:
    """Sparse edge-perspective degree distribution.

    Coefficients must lie in [0, 1] and sum to 1 within ``SUM_TOL``; the
    minimum node degree is 2. A degree is an int or a string of ASCII digits
    (a JSON key), given once; a coefficient is a number or a string that
    spells one, not a bool. Pass ``normalize=True`` to rescale inputs whose
    sum is off by printing round-off (tables quote four digits); rescaling by
    the exact float sum restores the invariant to machine precision.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, *, normalize: bool = False):
        try:
            pairs = dict(entries).items()
        except (TypeError, ValueError):
            raise ValueError(f"malformed degree distribution {entries!r}") from None
        items = {}
        for degree, coeff in pairs:
            if isinstance(degree, str) and degree.isascii() and degree.isdigit():
                d = int(degree)
            elif isinstance(degree, int) and not isinstance(degree, bool):
                d = degree
            else:
                raise ValueError(
                    f"node degree {degree!r} must be an int or a string of ASCII digits")
            if d < 2:
                raise ValueError(f"minimum node degree is 2, got {d}")
            if d in items:
                raise ValueError(f"node degree {d} is given twice")
            try:
                c = float(coeff)
            except (TypeError, ValueError, OverflowError):
                c = None
            if c is None or isinstance(coeff, (bool, np.bool_)):
                raise ValueError(
                    f"coefficient for degree {d} must be a number, got {coeff!r}")
            if not np.isfinite(c) or c < 0.0 or c > 1.0:
                raise ValueError(f"coefficient for degree {d} must be in [0, 1], got {c}")
            items[d] = c
        items = {d: c for d, c in items.items() if c != 0.0}
        if not items:
            raise ValueError("degree distribution has no nonzero coefficients")
        total = sum(items[d] for d in sorted(items))
        if normalize:
            if abs(total - 1.0) > 1e-2:
                raise ValueError(f"coefficients sum to {total}, too far from 1 to normalize")
            items = {d: c / total for d, c in items.items()}
            total = sum(items[d] for d in sorted(items))
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"coefficients must sum to 1 within {SUM_TOL}, got {total}")
        self._entries = dict(sorted(items.items()))

    def items(self):
        return self._entries.items()

    def get(self, degree: int, default: float = 0.0) -> float:
        return self._entries.get(degree, default)

    def __getitem__(self, degree: int) -> float:
        return self._entries[degree]

    @property
    def max_degree(self) -> int:
        return max(self._entries)

    def edge_polynomial(self) -> Polynomial:
        """sum_i coeff_i * x**(i-1), dense ascending coefficients."""
        coeffs = np.zeros(self.max_degree)
        for degree, coeff in self._entries.items():
            coeffs[degree - 1] = coeff
        return Polynomial(coeffs)

    def inv_degree_moment(self) -> float:
        """sum_i coeff_i / i, proportional to the number of nodes per edge."""
        return sum(c / d for d, c in self._entries.items())

    def derivative_at_one(self) -> float:
        """Edge polynomial derivative at 1: sum_i coeff_i * (i - 1)."""
        return sum(c * (d - 1) for d, c in self._entries.items())

    def to_json_dict(self) -> dict:
        return {str(d): c for d, c in self._entries.items()}

    @classmethod
    def from_json_dict(cls, data, *, normalize: bool = False) -> "DegreeDistribution":
        return cls(data, normalize=normalize)

    def __eq__(self, other):
        if not isinstance(other, DegreeDistribution):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self):
        return f"DegreeDistribution({self._entries!r})"


def read_taps(values) -> DegreeDistribution:
    """The distribution that solver taps v_2, v_3, ... stand for: the taps
    clipped to [0, 1], those <= 1e-12 dropped and the rest renormalized."""
    # Interior-point outputs can leave [0, 1] by ~1e-9 (a tap below 0, or
    # above 1 with the others at 0); clip before the distribution invariants
    # are enforced.
    values = np.clip(values, 0.0, 1.0)
    return DegreeDistribution(
        {d: float(v) for d, v in enumerate(values, start=2) if v > 1e-12},
        normalize=True)


@dataclass(frozen=True)
class EnsembleSpec:
    """One design point: variable and check distributions plus erasure rate."""

    lam: DegreeDistribution
    rho: DegreeDistribution
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam.to_json_dict(),
            "rho": self.rho.to_json_dict(),
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_json_dict(cls, data, *, normalize: bool = False) -> "EnsembleSpec":
        for key in ("lambda", "rho", "epsilon"):
            if key not in data:
                raise ValueError(f"ensemble spec is missing field '{key}'")
        return cls(
            lam=DegreeDistribution.from_json_dict(data["lambda"], normalize=normalize),
            rho=DegreeDistribution.from_json_dict(data["rho"], normalize=normalize),
            epsilon=parse_epsilon(data["epsilon"]),
        )


def parse_epsilon(value, *, allow_one: bool = True) -> float:
    """An erasure probability as given in input: a number, or a string that
    spells one, but not a bool, in [0, 1] (in [0, 1) unless ``allow_one``).
    Anything else raises ValueError naming the field 'epsilon'."""
    try:
        eps = float(value)
    except (TypeError, ValueError, OverflowError):
        eps = None
    if eps is None or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"field 'epsilon': must be a number, got {value!r}")
    hi_ok = eps <= 1.0 if allow_one else eps < 1.0
    if not (0.0 <= eps and hi_ok):
        rng = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"field 'epsilon': must lie in {rng}, got {eps}")
    return eps


def design_rate(lam: DegreeDistribution, rho: DegreeDistribution) -> float:
    """1 - (sum_j rho_j / j) / (sum_i lam_i / i)."""
    return 1.0 - rho.inv_degree_moment() / lam.inv_degree_moment()


def capacity_gap(rate: float, eps: float) -> float:
    """Fractional distance from channel capacity: 1 - rate / (1 - eps)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    return 1.0 - rate / (1.0 - eps)


def stability_lambda2_bound(rho: DegreeDistribution, eps: float) -> float:
    """Upper bound 1 / (eps * rho'(1)) on the degree-2 edge fraction.

    Derived from nonnegativity of P near 0: the linear coefficient of P is
    1 - eps * lam_2 * rho'(1) and must not be negative.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    slope = rho.derivative_at_one()
    return 1.0 / (eps * slope)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool          # worst_value >= -FEASIBILITY_TOL
    worst_x: float          # minimum of F = P / x over the grid and its critical points
    worst_value: float
    grid_feasible: bool     # grid_value >= -FEASIBILITY_TOL
    grid_x: float           # minimum of F over the grid alone
    grid_value: float
    endpoint_value: float   # F(1) = P(1), the last grid point
    critical_x: tuple       # the roots of F' in (0, 1) that the scan adds to the grid


def psi(rho: Polynomial, eps: float, xs):
    """psi(x) = 1 - rho(1 - eps*x) at each point of `xs` (an array, or one
    Python float), by Horner on the edge polynomial `rho`: the check-side
    half of the erasure map."""
    return 1.0 - rho.evaluate_many(1.0 - eps * xs)


def running_powers(base: np.ndarray, count: int) -> np.ndarray:
    """base**1..base**count as columns, each the previous one times base.

    Applied to the composed psi, every column stays within a few rounding
    errors of the exact power; the expanded monomials of psi**j instead
    lose every digit by j ~ 20 at deg rho = 5.
    """
    return np.cumprod(np.broadcast_to(base[:, None], (base.size, count)), axis=1)


def lambda_constraint_table(rho: DegreeDistribution, eps: float,
                            max_var_degree: int, xs: np.ndarray) -> np.ndarray:
    """P(x) = x - sum_i lam_i psi(x)**(i-1), i = 2..Dv, at each point of
    `xs`, as columns affine in lam_2..lam_Dv: column 0 is the constant part
    x and column i - 1 the running power -psi(x)**(i-1). The SOS route
    samples it at the Chebyshev nodes, the grid LP at its grid."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if max_var_degree < 2:
        raise ValueError(f"max_var_degree must be at least 2, got {max_var_degree}")
    powers = running_powers(psi(rho.edge_polynomial(), eps, xs), max_var_degree - 1)
    return np.concatenate([xs[:, None], -powers], axis=1)


class _DecodingMap:
    """The fixed-point gain of one (lam, rho) pair in composed form,

        H(y)  = lam(psi(y)) / y = Lam(psi(y)) R(1 - y),
        H'(y) = Lam'(psi(y)) rho'(1 - y) R(1 - y) - Lam(psi(y)) R'(1 - y),

    with psi(y) = 1 - rho(1 - y), Lam(z) = lam(z) / z = sum_i lam_i z**(i-2)
    and R(u) = (1 - rho(u)) / (1 - u), whose coefficient k is
    sum_{j >= k+2} rho_j. Every DE question is a question about H: at
    erasure probability eps the decoding-success polynomial is
    P(x) = x - lam(psi(eps x)) = x F(x) with F(x) = 1 - eps H(eps x), and
    the threshold is eps* = 1 / max H (see ``de.bisect_threshold``). H
    carries no division, so H(0) = lam_2 rho'(1) (the stability bound, and
    F(0) = 1 - eps lam_2 rho'(1)) and H(1) = 1 come out as they are.

    Every polynomial here has nonnegative coefficients and is evaluated on
    [0, 1] only, so the rounding error of H stays of order
    (deg lam) * (deg rho) units in the last place. The expanded monomial
    coefficients of P grow like binomials instead (1.8e16 at degree 195),
    and evaluating them loses every digit at large degrees.

    Each method takes an array of points, or one Python float and then
    returns a float with the bits the array would hold there.
    """

    def __init__(self, lam: DegreeDistribution, rho: DegreeDistribution):
        self.lam = lam.edge_polynomial()
        self.rho = rho.edge_polynomial()
        self.drho = self.rho.derivative()
        self.lam_quot = Polynomial(self.lam.coeffs[1:])
        self.dlam_quot = self.lam_quot.derivative()
        self.rho_quot = Polynomial(np.cumsum(self.rho.coeffs[:0:-1])[::-1])
        self.drho_quot = self.rho_quot.derivative()

    def gains(self, ys: np.ndarray) -> np.ndarray:
        return self.lam_quot.evaluate_many(psi(self.rho, 1.0, ys)) \
            * self.rho_quot.evaluate_many(1.0 - ys)

    def gain_slopes(self, ys: np.ndarray) -> np.ndarray:
        zs, us = psi(self.rho, 1.0, ys), 1.0 - ys
        return self.dlam_quot.evaluate_many(zs) * self.drho.evaluate_many(us) \
            * self.rho_quot.evaluate_many(us) \
            - self.lam_quot.evaluate_many(zs) * self.drho_quot.evaluate_many(us)


def _gain_scan(lam: DegreeDistribution, rho: DegreeDistribution, eps: float):
    """(xs, H(eps * xs)) for the gain H of ``_DecodingMap``: xs is the
    uniform 10001-point grid on [0, 1] followed by the roots of
    x -> H'(eps x) in (0, 1) (``_critical_points``), so that the extremes
    of H on [0, eps] are not limited by grid resolution."""
    dmap = _DecodingMap(lam, rho)
    # The slope has no roots to find when it is constant: at eps = 0, and
    # for lam = rho = x, where H = 1. Every point holds the extreme then.
    constant = eps == 0.0 or (dmap.lam_quot.degree <= 0 and dmap.rho_quot.degree <= 0)
    roots = [] if constant else _critical_points(lambda xs: dmap.gain_slopes(eps * xs))
    xs = np.append(np.linspace(0.0, 1.0, GRID_POINTS), roots)
    return xs, dmap.gains(eps * xs)


def check_de_feasible(spec: EnsembleSpec) -> FeasibilityReport:
    """Check F(x) = P(x) / x >= -FEASIBILITY_TOL on [0, 1], with P the
    decoding-success polynomial.

    F = 1 - eps H(eps x) is taken on the scan of ``_gain_scan``: the uniform
    grid, where F(0) = 1 - eps lam_2 rho'(1) is the stability condition, and
    the interior critical points of F, so that the reported minimum is not
    limited by grid resolution. The grid minimum alone is reported next to
    it. F holds the sign of P without its factor x, which would hide a
    broken stability condition near 0 inside the tolerance.
    """
    eps = spec.epsilon
    xs, gains = _gain_scan(spec.lam, spec.rho, eps)
    values = 1.0 - eps * gains
    grid, worst = int(np.argmin(values[:GRID_POINTS])), int(np.argmin(values))
    return FeasibilityReport(
        feasible=bool(values[worst] >= -FEASIBILITY_TOL),
        worst_x=float(xs[worst]),
        worst_value=float(values[worst]),
        grid_feasible=bool(values[grid] >= -FEASIBILITY_TOL),
        grid_x=float(xs[grid]),
        grid_value=float(values[grid]),
        endpoint_value=float(values[GRID_POINTS - 1]),
        critical_x=tuple(xs[GRID_POINTS:].tolist()),
    )


def _critical_points(slopes) -> list:
    """Roots in (0, 1) of the function that `slopes` evaluates, by bisection
    on the sign changes of a dense scan.

    One vectorized call scans the function on 4096 points; a scan point
    where it is zero is a root as it stands. Every interval that changes
    sign is then halved on Python floats, `slopes` taking one float per
    call, with the halvings of a 64-step bisection: an exact zero at the
    midpoint collapses the interval onto it, which later halvings keep. A
    halving is a fixed map of (a, b, fa), so once one leaves them unchanged
    the remaining ones would too, and the loop stops there with the 64-step
    answer. Float and array arithmetic round alike, so the roots are those
    of the same bisection run on arrays (``tests/oracles.py``) to the bit.

    A numpy call on the few elements of a batched halving costs more in
    overhead than in arithmetic. The loop over intervals stays faster until
    the scan finds about 40 sign changes; the gain slopes of the DE check
    and the threshold show at most 3 (an optimized design's, where
    eps H(eps x) touches 1).
    """
    xs = np.linspace(0.0, 1.0, CRITICAL_SCAN_POINTS)
    dv = slopes(xs)
    # Only intervals that start on a zero or change sign hold a root.
    k = np.flatnonzero((dv[:-1] == 0.0) | (dv[:-1] * dv[1:] < 0.0))
    roots = []
    for a, b, fa in zip(xs[k].tolist(), xs[k + 1].tolist(), dv[k].tolist()):
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(64):
            m = 0.5 * (a + b)
            fm = slopes(m)
            state = (a, m, fa) if fa * fm < 0.0 else (m, m if fm == 0.0 else b, fm)
            if state == (a, b, fa):
                break
            a, b, fa = state
        roots.append(0.5 * (a + b))
    return [r for r in roots if 0.0 < r < 1.0]
