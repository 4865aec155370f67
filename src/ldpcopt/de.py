"""Independent verification layer: the erasure threshold in closed form,
and the discretized-LP baseline.

Nothing here touches the sum-of-squares machinery or its expanded
polynomial coefficients, so that the routes check each other. The threshold
is 1 / max H for the fixed-point gain H(x) = lam(1 - rho(1 - x)) / x, taken
on the grid-plus-roots scan of H that the DE check reads P(x) / x from;
the threshold and the LP columns both evaluate the erasure map in composed
form, on the degree polynomials themselves (``ensemble._gain_scan``, and
``ensemble.lambda_constraint_table``, the table the SOS lambda family takes
at its Chebyshev nodes, at the LP's grid).
The LP baseline enforces the decoding constraint only on finitely many grid
points: a relaxation whose objective upper-bounds the exact program and
converges to it as the grid is refined.

The grid LP is handed to the solver in dual form: one nonnegative multiplier
per grid point and only Dv - 2 equality rows (the simplex row is eliminated
through lambda_2), so an interior-point iteration costs O(N * Dv^2) rather
than O(N^3). The design lambda is recovered from the row multipliers and
checked against the grid constraints before a row is reported optimal. The
same dual, at points the caller chooses and in the form P(x) / x, prices the
degrees a smaller lambda program left out (``build_pricing_lp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import solver
from .ensemble import (DegreeDistribution, _gain_scan, design_rate,
                       lambda_constraint_table, read_taps)
from .solver import ConicProblem, ConicSolution

# Allowance for rounding, and for coefficient sums off 1 by up to SUM_TOL,
# in the check that the threshold respects the capacity bound.
CAPACITY_SLACK = 1e-8


def bisect_threshold(lam: DegreeDistribution, rho: DegreeDistribution) -> float:
    """Largest erasure probability whose fixed point still reaches zero.

    DE from x0 = eps reaches zero exactly when eps * H(x) < 1 on (0, 1],
    where H(x) = lam(1 - rho(1 - x)) / x (Richardson & Urbanke, *Modern
    Coding Theory*, ch. 3), so eps* = 1 / max H. The maximum is taken on
    the scan that ``check_de_feasible`` takes F = 1 - eps H(eps x) on, at
    eps = 1 (``ensemble._gain_scan``): the uniform grid and the roots of H',
    with H in division-free form (see ``_DecodingMap``). H(1) = 1, so
    eps* <= 1. The result also satisfies the capacity-side bound
    eps* <= (sum rho_j / j) / (sum lam_i / i), up to ``CAPACITY_SLACK``.
    """
    _, gains = _gain_scan(lam, rho, 1.0)
    threshold = min(1.0, 1.0 / float(np.max(gains)))
    cap = rho.inv_degree_moment() / lam.inv_degree_moment()
    if threshold > cap + CAPACITY_SLACK:
        raise RuntimeError(
            f"threshold {threshold} exceeds the capacity bound {cap}")
    return threshold


# ---------------------------------------------------------------------------
# Discretized-LP baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpSweepRow:
    n_points: int
    status: str
    objective: Optional[float]
    rate: Optional[float]
    lam: Optional[DegreeDistribution]


@dataclass(frozen=True)
class DiscretizedLp:
    """The grid LP in dual form, with the data that maps its answer back.

    ``problem`` is the dual with its Dv - 2 equality rows orthonormalized
    (A = R' Q', so the solver sees Q' and R^{-T} b); ``psi_powers[k, j]`` is
    psi(x_k)**(j + 1) at the grid points ``xs``.
    """

    problem: ConicProblem
    r_factor: np.ndarray
    psi_powers: np.ndarray
    xs: np.ndarray

    def recover_lambda(self, solution: ConicSolution) -> np.ndarray:
        """lambda_2..lambda_Dv from the row multipliers of a solved dual:
        lambda_{3..Dv} = R^{-1} y and lambda_2 = 1 - sum(lambda_{3..Dv})."""
        tail = np.linalg.solve(self.r_factor, solution.y)
        return np.concatenate([[1.0 - tail.sum()], tail])

    def is_feasible(self, lam: np.ndarray, tol: float) -> bool:
        """lambda >= 0 and the decoding constraint holds at every grid point,
        to the solver's residual tolerance."""
        excess = float(np.max(self.psi_powers @ lam - self.xs))
        bound = tol * (1.0 + float(np.max(np.abs(self.xs)))) * 1.01
        return bool(np.min(lam) >= -1e-9 and excess <= bound)


def build_discretized_lp(rho: DegreeDistribution, eps: float, max_var_degree: int,
                         n_points: int) -> DiscretizedLp:
    """LP enforcing the decoding constraint at x_k = k/N, k = 1..N only.

    The primal is: maximize c'lam with c_i = 1/i, over 1'lam = 1, lam >= 0
    and Psi lam <= x, where Psi[k, i] = psi(x_k)**(i-1) and
    psi(x) = 1 - rho(1 - eps*x): the tap columns of
    ``ensemble.lambda_constraint_table`` at the grid, negated (that table
    refuses eps outside [0, 1] and Dv < 2). It goes to the solver in the
    dual form of ``_simplex_dual``. The dual objective is an upper bound on
    the grid LP (and so on the exact program); the design is read back by
    ``DiscretizedLp.recover_lambda``.
    """
    if n_points < 1:
        raise ValueError("need at least one grid point")
    xs = np.arange(1, n_points + 1) / n_points
    psi_powers = -lambda_constraint_table(rho, eps, max_var_degree, xs)[:, 1:]
    problem, r_factor = _simplex_dual(xs, psi_powers)
    return DiscretizedLp(problem, r_factor, psi_powers, xs)


def _simplex_dual(rhs: np.ndarray, coeffs: np.ndarray) -> tuple:
    """(dual problem, R) of: maximize c'lam with c_i = 1/i, over 1'lam = 1,
    lam = lam_2..lam_Dv >= 0 and coeffs @ lam <= rhs, one row per point.

    Eliminating lam_2 = 1 - sum_{i>=3} lam_i leaves one multiplier
    mu_k >= 0 per point and one slack s_i >= 0 per degree in the dual, with
    a_i the column of lam_i in ``coeffs``:

        minimize    (rhs - a_2)'mu + s_2 + c_2
        subject to  (a_i - a_2)'mu + s_2 - s_i = c_i - c_2,  i = 3..Dv.

    Its Dv - 2 rows keep the solver's normal matrix (Dv-2) x (Dv-2) however
    many points there are. The rows a_i - a_2 are nearly collinear, so they
    are orthonormalized once by a QR factorization A' = Q R: the solver sees
    Q' and R^{-T} b. The variables are ordered [mu | s_2 | s_3..s_Dv].
    """
    n_points, nl = coeffs.shape
    gain = np.array([1.0 / i for i in range(2, nl + 2)])
    rows = nl - 1
    A = np.zeros((rows, n_points + nl))
    A[:, :n_points] = (coeffs[:, 1:] - coeffs[:, :1]).T
    A[:, n_points] = 1.0
    A[:, n_points + 1:] = -np.eye(rows)
    q_factor, r_factor = np.linalg.qr(A.T)
    b = np.linalg.solve(r_factor.T, gain[1:] - gain[0])
    c = np.zeros(n_points + nl)
    c[:n_points] = rhs - coeffs[:, 0]
    c[n_points] = 1.0
    problem = ConicProblem(sense="min", c=c, A=q_factor.T, b=b,
                           n_nonneg=n_points + nl, offset=float(gain[0]))
    return problem, r_factor


@dataclass(frozen=True)
class PricingLp:
    """The lambda program relaxed to finitely many points, in the dual form
    of ``_simplex_dual``, over every degree up to Dv.

    Row k of ``coeffs`` holds psi(x_k)**(i-1) / x_k, i = 2..Dv: the
    decoding constraint in the form F(x_k) = 1 - sum_i lam_i
    psi(x_k)**(i-1) / x_k >= 0 of ``ensemble.check_de_feasible``. The last
    row is its limit at x -> 0, the stability row eps lam_2 rho'(1) <= 1.
    """

    problem: ConicProblem
    coeffs: np.ndarray

    def upper_bound(self, solution: ConicSolution) -> float:
        """UB = sum_k mu_k + max_i (1/i - sum_k mu_k coeffs[k, i]) at the
        solution's multipliers mu, clipped at 0.

        For any mu >= 0, weak duality makes UB at least sum_i lam_i / i of
        every lam on the simplex with F(x_k) >= 0 at the rows' points, so of
        every DE-feasible lam with degrees up to Dv; the solve only makes it
        tight.
        """
        mu = np.maximum(solution.x[: self.coeffs.shape[0]], 0.0)
        gain = 1.0 / np.arange(2.0, self.coeffs.shape[1] + 2.0)
        return float(mu.sum() + np.max(gain - mu @ self.coeffs))


def build_pricing_lp(rho: DegreeDistribution, eps: float, max_var_degree: int,
                     xs: np.ndarray) -> PricingLp:
    """The ``PricingLp`` of degrees 2..``max_var_degree`` at the points
    ``xs`` in (0, 1], plus the stability row."""
    coeffs = -lambda_constraint_table(rho, eps, max_var_degree, xs)[:, 1:] / xs[:, None]
    stability = np.zeros((1, max_var_degree - 1))
    stability[0, 0] = eps * rho.derivative_at_one()
    coeffs = np.concatenate([coeffs, stability])
    problem, _ = _simplex_dual(np.ones(coeffs.shape[0]), coeffs)
    return PricingLp(problem, coeffs)


def lp_baseline_sweep(rho: DegreeDistribution, eps: float, max_var_degree: int,
                      grid_sizes: Iterable[int], tol: float = solver.DEFAULT_TOL) -> list:
    """Solve the discretized LP for each grid size, in ascending order.

    A row is ``optimal`` only when the recovered lam passes
    ``DiscretizedLp.is_feasible``; its objective is the dual objective, a
    verified upper bound, its ``lam`` the read-back of the recovered taps
    (``ensemble.read_taps``) and its ``rate`` the design rate of that
    ``lam``. An unbounded dual means an infeasible grid LP. A solve that
    ends without an optimum is recorded in its row and the sweep goes on; an
    exception from the solver is a defect, not a row, and ends the sweep.
    """
    rows = []
    for n in sorted(set(int(n) for n in grid_sizes)):
        lp = build_discretized_lp(rho, eps, max_var_degree, n)
        sol = solver.solve(lp.problem, tol=tol)
        if sol.status != "optimal":
            # The dual is always feasible (mu = 0, s_2 = 0, s_i = c_2 - c_i),
            # so a dual "infeasible" can only be a numerical artefact.
            status = {"unbounded": "infeasible",
                      "infeasible": "numerical-failure"}.get(sol.status, sol.status)
            rows.append(LpSweepRow(n, status, None, None, None))
            continue
        lam_vals = lp.recover_lambda(sol)
        if not lp.is_feasible(lam_vals, tol):
            rows.append(LpSweepRow(n, "numerical-failure", None, None, None))
            continue
        lam = read_taps(lam_vals)
        rows.append(LpSweepRow(
            n_points=n,
            status="optimal",
            objective=float(sol.objective),
            rate=float(design_rate(lam, rho)),
            lam=lam,
        ))
    return rows

