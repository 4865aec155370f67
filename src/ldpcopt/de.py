"""Independent verification layer: the erasure threshold in closed form,
the discretized-LP baseline, and the lambda program's duality: the KKT
pricing of a working-set design and the exact infeasibility witness.

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
checked against the grid constraints before a row is reported optimal.

The lambda program itself is a semi-infinite LP, and weak duality prices
the degrees a smaller program left out without any solve: multipliers
mu >= 0 at any points of (0, 1] bound every DE-feasible design
(``pricing_bound``), and a few Newton steps on the KKT system of the
smaller design's active set make the bound tight (``price_working_set``,
about 0.4 ms at rho = x^5, eps = 0.48, Dv = 14 on 2 vCPUs). Past eps_D,
the threshold of lam = x**(Dv-1), no design with degrees up to Dv
decodes, and one point checked in rational arithmetic proves it
(``infeasibility_witness``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Optional

import numpy as np

from . import solver
from .ensemble import (DegreeDistribution, FeasibilityReport, _gain_scan, design_rate,
                       lambda_constraint_table, psi, read_taps)
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


def infeasibility_witness(rho: DegreeDistribution, eps: float,
                          max_var_degree: int) -> Optional[dict]:
    """An exact proof that no lambda with degrees up to ``max_var_degree``
    decodes at ``eps`` with checks ``rho``, or None.

    psi(x) = 1 - rho(1 - eps x) lies in [0, 1], so every lam on the simplex
    with degrees up to Dv has lam(psi(x)) >= psi(x)**(Dv-1), and
    P(x) = x - lam(psi(x)) < 0 at any x in (0, 1] with psi(x)**(Dv-1) > x.
    Such an x exists exactly when eps exceeds eps_D, the threshold of
    lam = x**(Dv-1): eps_D = 1 / H(y*), y* the argmax of the gain H on
    ``bisect_threshold``'s scan, and x = y* / eps has
    psi(x)**(Dv-1) - x = x (eps H(y*) - 1) > 0. That inequality is checked
    in rational arithmetic on the float x, eps and rho. The witness is
    {"x", "margin": psi(x)**(Dv-1) - x, "epsilon_d"}; None when
    eps <= eps_D or the exact check does not hold.
    """
    from fractions import Fraction

    lam = DegreeDistribution({max_var_degree: 1.0})
    eps_d = bisect_threshold(lam, rho)
    if eps <= eps_d:
        return None
    ys, gains = _gain_scan(lam, rho, 1.0)
    x = float(ys[int(np.argmax(gains))]) / eps
    u = 1 - Fraction(eps) * Fraction(x)
    psi_x = 1 - sum(Fraction(c) * u ** (d - 1) for d, c in rho.items())
    margin = psi_x ** (max_var_degree - 1) - Fraction(x)
    if not (0 < x <= 1 and 0 <= psi_x <= 1 and margin > 0):
        return None
    return {"x": x, "margin": float(margin), "epsilon_d": eps_d}


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


# ---------------------------------------------------------------------------
# Pricing a working-set design at its KKT point
# ---------------------------------------------------------------------------

# The active set of a design: taps above SUPPORT_TOL, and the touching
# points, the end point x = 1 and the stability row where F (or
# 1 - eps lam_2 rho'(1)) is below ACTIVE_TOL.
SUPPORT_TOL = 1e-7
ACTIVE_TOL = 1e-6
# Newton stops at a residual of NEWTON_TOL, a few units in the last place
# of the equations, or after NEWTON_STEPS steps; from a solver's design it
# takes at most two.
NEWTON_TOL = 1e-14
NEWTON_STEPS = 8


@dataclass(frozen=True)
class Pricing:
    """The KKT point of a working-set design and the bound it gives.

    ``points`` are the touching points x_k, then 1.0 when the end point is
    active, and ``multipliers`` their mu_k; ``stability_multiplier`` is
    mu_s, None when the stability row is inactive. The iterate kept is
    Newton's ``steps``-th, whose largest equation residual is ``residual``;
    ``upper_bound`` is ``pricing_bound`` at its points and multipliers.
    """

    support: tuple
    points: tuple
    multipliers: tuple
    stability_multiplier: Optional[float]
    steps: int
    residual: float
    upper_bound: float

    def report(self) -> dict:
        """The report's ``pricing`` block: every field but the bound."""
        block = asdict(self)
        del block["upper_bound"]
        return block


def pricing_bound(rho: DegreeDistribution, eps: float, max_var_degree: int,
                  points, multipliers, stability_multiplier: float = 0.0) -> float:
    """UB = sum_k mu_k + mu_s + max over i = 2..Dv of
    (1/i - sum_k mu_k psi(x_k)**(i-1) / x_k - [i = 2] mu_s eps rho'(1)),
    with every mu clipped at 0 and a point outside (0, 1] given no weight.

    For any such mu, UB is at least sum_i lam_i / i of every lam on the
    simplex with degrees up to Dv whose F = P / x is nonnegative at the
    points and which keeps the stability row eps lam_2 rho'(1) <= 1, so of
    every DE-feasible design: sum_i lam_i / i + sum_k mu_k F(x_k)
    + mu_s (1 - eps lam_2 rho'(1)), regrouped by lam_i, is that weak
    duality bound. The multipliers only make it tight.
    """
    xs = np.asarray(points, dtype=np.float64)
    mu = np.asarray(multipliers, dtype=np.float64)
    inside = (xs > 0.0) & (xs <= 1.0)
    mu = np.where(inside & (mu > 0.0), mu, 0.0)
    xs = np.where(inside, xs, 1.0)
    mu_s = stability_multiplier if stability_multiplier > 0.0 else 0.0
    coeffs = -lambda_constraint_table(rho, eps, max_var_degree, xs)[:, 1:] / xs[:, None]
    reduced = 1.0 / np.arange(2.0, max_var_degree + 1.0) - mu @ coeffs
    reduced[0] -= mu_s * eps * rho.derivative_at_one()
    return float(mu.sum() + mu_s + reduced.max())


class _KktSystem:
    """The square KKT system of ``price_working_set`` on the active set of
    one design.

    Its unknowns are z = [lam_S | x_k | mu_k | mu_1 | mu_s | tau], mu_1 and
    mu_s only when the end point and the stability row are active. Calling
    it at z gives the equation residuals and their Jacobian, from psi
    (``ensemble.psi``) and psi', psi'' (Horner on rho' and rho'').
    """

    def __init__(self, rho: DegreeDistribution, eps: float, lam: DegreeDistribution,
                 de: FeasibilityReport):
        self.rho = rho.edge_polynomial()
        self.drho = self.rho.derivative()
        self.ddrho = self.drho.derivative()
        self.eps = eps
        support = np.array([d for d, c in lam.items() if c > SUPPORT_TOL], dtype=np.float64)
        self.support, self.taps = support, np.array([lam[int(d)] for d in support])
        self.gains = 1.0 / support
        # psi**(i-1) and its derivatives take the powers i - 1, i - 2 and
        # i - 3 (floored at 0 where their factor is 0) and factors i - 1
        # and (i - 1)(i - 2).
        e = support - 1.0
        self.powers = (e, np.maximum(e - 1.0, 0.0), np.maximum(e - 2.0, 0.0), e * (e - 1.0))
        # The stability row's coefficients: eps rho'(1) on lam_2.
        self.stability = np.where(support == 2, eps * rho.derivative_at_one(), 0.0)
        # F at the DE check's critical points and at 1 picks the active
        # points; their columns psi**(i-1) / x seed the multipliers.
        xs = np.append(np.array(de.critical_x, dtype=np.float64), 1.0)
        a = self.columns(xs)[0] / xs[:, None]
        active = 1.0 - a @ self.taps < ACTIVE_TOL
        self.touching = xs[:-1][active[:-1]]
        self.endpoint = bool(active[-1])
        self.stable = bool(1.0 - self.stability @ self.taps < ACTIVE_TOL)
        self._seed = a[active]

    def start(self) -> np.ndarray:
        """The design's taps and touching points, and the multipliers that
        fit the stationarity rows there best in least squares."""
        fit = [self._seed.T]
        if self.stable:
            fit.append(self.stability[:, None])
        fit.append(np.ones((self.taps.size, 1)))
        multipliers = np.linalg.lstsq(np.hstack(fit), self.gains, rcond=None)[0]
        return np.concatenate([self.taps, self.touching, multipliers])

    def columns(self, xs: np.ndarray) -> tuple:
        """psi(x)**(i-1) and its first two x-derivatives, i in the support,
        one row per point."""
        # psi = 1 - rho(u), psi' = eps rho'(u), psi'' = -eps^2 rho''(u),
        # u = 1 - eps x.
        u = 1.0 - self.eps * xs
        p = psi(self.rho, self.eps, xs)[:, None]
        dp = self.eps * self.drho.evaluate_many(u)[:, None]
        ddp = -self.eps ** 2 * self.ddrho.evaluate_many(u)[:, None]
        e, e1, e2, ee = self.powers
        below = e * p ** e1
        return p ** e, below * dp, ee * p ** e2 * dp ** 2 + below * ddp

    def unpack(self, z: np.ndarray) -> tuple:
        """(lam_S, the points with 1.0 last if the end point is active,
        their multipliers, mu_s or 0.0, tau) of the unknowns z."""
        m, k = self.taps.size, self.touching.size
        xs = np.append(z[m:m + k], 1.0) if self.endpoint else z[m:m + k]
        mu_s = z[-2] if self.stable else 0.0
        return z[:m], xs, z[m + k:m + k + xs.size], mu_s, z[-1]

    def __call__(self, z: np.ndarray) -> tuple:
        m, k = self.taps.size, self.touching.size
        lam, xs, weights, mu_s, tau = self.unpack(z)
        n_mu = xs.size
        value, slope, curve = self.columns(xs)
        a = value / xs[:, None]                 # psi**(i-1) / x
        da = (slope - a) / xs[:, None]          # its x-derivative
        touch = np.arange(k)
        r, jac = np.empty(z.size), np.zeros((z.size, z.size))
        # The simplex, then G = x - lam(psi) at every point.
        r[0] = lam.sum() - 1.0
        jac[0, :m] = 1.0
        r[1:1 + n_mu] = xs - value @ lam
        jac[1:1 + n_mu, :m] = -value
        # G' at the touching points; it is also G's x-derivative there.
        row = 1 + n_mu
        r[row:row + k] = 1.0 - slope[:k] @ lam
        jac[1 + touch, m + touch] = r[row:row + k]
        jac[row:row + k, :m] = -slope[:k]
        jac[row + touch, m + touch] = -(curve[:k] @ lam)
        row += k
        if self.stable:
            r[row] = self.stability @ lam - 1.0
            jac[row, :m] = self.stability
            jac[row + 1:, -2] = self.stability
            row += 1
        # Stationarity: tau + sum_k mu_k a_i(x_k) + [i = 2] mu_s eps rho'(1) = 1/i.
        r[row:] = tau + weights @ a + mu_s * self.stability - self.gains
        jac[row:, m:m + k] = (da[:k] * weights[:k, None]).T
        jac[row:, m + k:m + k + n_mu] = a.T
        jac[row:, -1] = 1.0
        return r, jac


def price_working_set(rho: DegreeDistribution, eps: float, max_var_degree: int,
                      lam: DegreeDistribution, de: FeasibilityReport) -> Pricing:
    """Price the degrees 2..``max_var_degree`` at the KKT point of ``lam``,
    the design of a smaller lambda program, whose DE check report is ``de``.

    The lambda program is a semi-infinite LP: maximize sum_i lam_i / i over
    the simplex subject to F(x) = 1 - sum_i lam_i psi(x)**(i-1) / x >= 0 on
    (0, 1] and the stability row eps lam_2 rho'(1) <= 1. A small square
    system on its active set fixes its optimum (Hettich & Kortanek, SIAM
    Review 1993). The active set is read off the design: its support S (taps
    above ``SUPPORT_TOL``), the touching points x_k (the critical points of
    the DE check's scan where F is below ``ACTIVE_TOL``), the end point x = 1
    when F(1) is below it, and the stability row when 1 - eps lam_2 rho'(1)
    is. With G = x F and the unknowns lam_S, x_k, mu_k, mu_1, mu_s and tau,
    the system is

        sum_S lam_i = 1,   G(x_k) = G'(x_k) = 0,   G(1) = 0,
        eps lam_2 rho'(1) = 1,
        1/i = tau + sum_k mu_k psi(x_k)**(i-1) / x_k + mu_1 psi(1)**(i-1)
              + [i = 2] mu_s eps rho'(1),   i in S,

    where the end point's and the stability row's equations and multipliers
    come in only when they are active. Newton runs from the design's taps
    and points, with the multipliers that fit the stationarity rows there
    in least squares, and keeps the iterate of smallest residual; it stops
    once the residual is below ``NEWTON_TOL``, stops falling, or after
    ``NEWTON_STEPS`` steps. A singular Jacobian, from an
    inconsistent active set, takes a least-squares step. ``pricing_bound``
    at the kept iterate's points and multipliers is the upper bound,
    whatever its residual: the bound's validity rests on weak duality alone,
    and Newton only makes it tight.
    """
    system = _KktSystem(rho, eps, lam, de)
    z = system.start()
    best, kept, steps = np.inf, z, 0
    with np.errstate(all="ignore"):
        for step in range(NEWTON_STEPS + 1):
            r, jac = system(z)
            residual = float(np.max(np.abs(r)))
            if not residual < best:      # no progress, or not finite
                break
            best, kept, steps = residual, z, step
            if residual <= NEWTON_TOL or step == NEWTON_STEPS:
                break
            try:
                dz = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                dz = np.linalg.lstsq(jac, -r, rcond=None)[0]
            z = z + dz
    _, points, multipliers, mu_s, _ = system.unpack(kept)
    return Pricing(
        support=tuple(int(d) for d in system.support),
        points=tuple(points.tolist()),
        multipliers=tuple(multipliers.tolist()),
        stability_multiplier=float(mu_s) if system.stable else None,
        steps=steps,
        residual=best,
        upper_bound=pricing_bound(rho, eps, max_var_degree, points, multipliers,
                                  float(mu_s)),
    )


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

