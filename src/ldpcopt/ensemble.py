"""Degree-distribution data model and feasibility checking.

Edge-perspective degree distributions map a node degree i >= 2 to the fraction
of edges attached to nodes of that degree; the associated edge polynomial is
sum_i coeff_i * x**(i-1). An ``EnsembleSpec`` bundles a variable-side and a
check-side distribution with an erasure probability and is the unit of
verification: its decoding-success polynomial P(x) = x - lam(1 - rho(1 - eps*x))
must be nonnegative on [0, 1].
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
    minimum node degree is 2. Pass ``normalize=True`` to rescale inputs whose
    sum is off by printing round-off (tables quote four digits); rescaling by
    the exact float sum restores the invariant to machine precision.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, *, normalize: bool = False):
        items = {}
        for degree, coeff in dict(entries).items():
            d = int(degree)
            if d != float(degree):
                raise ValueError(f"node degree {degree!r} is not an integer")
            c = float(coeff)
            if d < 2:
                raise ValueError(f"minimum node degree is 2, got {d}")
            if not np.isfinite(c) or c < 0.0 or c > 1.0:
                raise ValueError(f"coefficient for degree {d} must be in [0, 1], got {c}")
            if c != 0.0:
                items[d] = items.get(d, 0.0) + c
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
        try:
            entries = {int(k): float(v) for k, v in dict(data).items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed degree distribution {data!r}: {exc}") from None
        return cls(entries, normalize=normalize)

    def __eq__(self, other):
        if not isinstance(other, DegreeDistribution):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self):
        return f"DegreeDistribution({self._entries!r})"


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
            epsilon=float(data["epsilon"]),
        )


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
    worst_x: float          # minimum of P over the grid and its critical points
    worst_value: float
    grid_feasible: bool     # grid_value >= -FEASIBILITY_TOL
    grid_x: float           # minimum of P over the grid alone
    grid_value: float
    endpoint_value: float   # P(1), the last grid point


def psi(rho: Polynomial, eps: float, xs: np.ndarray) -> np.ndarray:
    """psi(x) = 1 - rho(1 - eps*x) at each point of `xs`, by Horner on the
    edge polynomial `rho`: the check-side half of the erasure map."""
    return 1.0 - rho.evaluate_many(1.0 - eps * xs)


def running_powers(base: np.ndarray, count: int) -> np.ndarray:
    """base**1..base**count as columns, each the previous one times base.

    Applied to the composed psi, every column stays within a few rounding
    errors of the exact power; the expanded monomials of psi**j instead
    lose every digit by j ~ 20 at deg rho = 5.
    """
    return np.cumprod(np.broadcast_to(base[:, None], (base.size, count)), axis=1)


class _DecodingMap:
    """The erasure map of one (lam, rho) pair in composed form, eps per call:

        P(x)  = x - lam(psi(x)),
        P'(x) = 1 - eps lam'(psi(x)) rho'(1 - eps*x),
        f(y)  = eps * lam(1 - rho(1 - y)),   the fixed-point step.

    Both edge polynomials have nonnegative coefficients summing to 1 and are
    evaluated on [0, 1] only, so the rounding error of P stays of order
    (deg lam) * (deg rho) units in the last place. The expanded monomial
    coefficients of P grow like binomials instead (1.8e16 at degree 195),
    and evaluating them loses every digit at large degrees. ``steps`` makes
    the operations of ``kernels.de_final``, so it maps an iterate to the
    next one bit for bit.
    """

    def __init__(self, lam: DegreeDistribution, rho: DegreeDistribution):
        self.lam = lam.edge_polynomial()
        self.rho = rho.edge_polynomial()
        self.dlam = self.lam.derivative()
        self.drho = self.rho.derivative()

    def values(self, eps: float, xs: np.ndarray) -> np.ndarray:
        return xs - self.lam.evaluate_many(psi(self.rho, eps, xs))

    def slopes(self, eps: float, xs: np.ndarray) -> np.ndarray:
        return 1.0 - eps * self.dlam.evaluate_many(psi(self.rho, eps, xs)) \
            * self.drho.evaluate_many(1.0 - eps * xs)

    def steps(self, eps: float, ys: np.ndarray) -> np.ndarray:
        return eps * self.lam.evaluate_many(psi(self.rho, 1.0, ys))


def check_de_feasible(spec: EnsembleSpec) -> FeasibilityReport:
    """Check P(x) >= -FEASIBILITY_TOL on [0, 1] for the decoding-success
    polynomial.

    P is sampled on a uniform 10001-point grid; the interior critical points
    of P (bisection on the sign changes of P' over a 4096-point scan) are
    evaluated too, so the reported minimum is not limited by grid
    resolution. The grid minimum alone is reported next to it. P and P' are
    evaluated in composed form (see ``_DecodingMap``).
    """
    p, eps = _DecodingMap(spec.lam, spec.rho), spec.epsilon
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    values = p.values(eps, xs)
    worst = int(np.argmin(values))
    grid_x = worst_x = float(xs[worst])
    grid_value = worst_value = float(values[worst])
    # P' is constant when both edge polynomials are linear. It has no roots
    # to find then: P is linear and smallest at an endpoint, which the grid
    # holds.
    linear = p.lam.degree <= 1 and p.rho.degree <= 1
    roots = [] if linear else _critical_points(lambda ys: p.slopes(eps, ys))
    for x, v in zip(roots, p.values(eps, np.array(roots)).tolist()):
        if v < worst_value:
            worst_value = v
            worst_x = x

    return FeasibilityReport(
        feasible=bool(worst_value >= -FEASIBILITY_TOL),
        worst_x=worst_x,
        worst_value=worst_value,
        grid_feasible=bool(grid_value >= -FEASIBILITY_TOL),
        grid_x=grid_x,
        grid_value=grid_value,
        endpoint_value=float(values[-1]),
    )


def _critical_points(slopes) -> list:
    """Roots in (0, 1) of the function that `slopes` evaluates on an array,
    by bisection on the sign changes of a dense scan.

    Every interval that starts on a zero or changes sign is bisected at
    once, each element taking the same halvings as a 64-step scalar
    bisection: an exact zero at the midpoint collapses the interval onto it,
    which later halvings keep. A halving is a fixed map of (a, b, fa), so
    once one leaves them unchanged the remaining ones would too, and the
    loop stops there with the 64-step answer.
    """
    xs = np.linspace(0.0, 1.0, CRITICAL_SCAN_POINTS)
    dv = slopes(xs)
    # Only intervals that start on a zero or change sign hold a root.
    k = np.flatnonzero((dv[:-1] == 0.0) | (dv[:-1] * dv[1:] < 0.0))
    if not k.size:
        return []
    on_zero = dv[k] == 0.0
    a, b, fa = xs[k], xs[k + 1], dv[k]
    for _ in range(64):
        m = 0.5 * (a + b)
        fm = slopes(m)
        left = fa * fm < 0.0
        state = (a, b, fa)
        b = np.where(left | (fm == 0.0), m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
        if all(old.tobytes() == new.tobytes() for old, new in zip(state, (a, b, fa))):
            break
    roots = np.where(on_zero, xs[k], 0.5 * (a + b))
    return [r for r in roots.tolist() if 0.0 < r < 1.0]
