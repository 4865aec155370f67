"""Independent verification layer: threshold bisection on the erasure
decoder's fixed-point predicate, and the discretized-LP baseline.

Nothing here touches the sum-of-squares machinery or its expanded
polynomial coefficients, so that the routes check each other. The
fixed-point iteration (``kernels.de_final``), the predicate's fixed-point
probes and the LP columns all evaluate the erasure map in composed form, on
the degree polynomials themselves (``ensemble._DecodingMap`` and
``ensemble.psi``). The LP baseline enforces the decoding constraint only on
finitely many grid points: a relaxation whose objective upper-bounds the
exact program and converges to it as the grid is refined.

The grid LP is handed to the solver in dual form: one nonnegative multiplier
per grid point and only Dv - 2 equality rows (the simplex row is eliminated
through lambda_2), so an interior-point iteration costs O(N * Dv^2) rather
than O(N^3). The design lambda is recovered from the row multipliers and
checked against the grid constraints before a row is reported optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from . import kernels, solver
from .ensemble import (DegreeDistribution, _DecodingMap, design_rate, psi,
                       running_powers)
from .solver import ConicProblem, ConicSolution

ZERO_CUTOFF = 1e-9
# Width of the bracket at which threshold bisection stops.
BISECT_PRECISION = 1e-6

# Budget ladder for the threshold predicate, as cumulative step totals. Each
# rung resumes the simulation where the previous rung left it (the kernel
# takes the last iterate and step as its start), so a run ends each rung on
# the same iterate as a fresh run of that many steps from x0 = eps, and
# stops early on an exactly zero step. Most runs above threshold are settled
# by the zero step or by a fixed-point witness after the short first rung;
# near-threshold runs contract at a factor close to 1 and need the longer
# rungs, either to reach the zero cutoff or to settle close enough to their
# fixed point for a witness. After the last rung a dense logarithmic scan
# between the cutoff and the last iterate is the backstop.
_PREDICATE_BUDGETS = (1_000, 10_000, 300_000)
_FIXED_POINT_SCAN = 4096
# Smallest positive double: abs(step) < _ZERO_STEP holds only for a zero step.
_ZERO_STEP = float(np.nextafter(0.0, 1.0))
# Witness probes step down from the last iterate by the Aitken remainder
# estimate times powers of this ratio.
_WITNESS_RATIO = 2.0 ** 0.125


def _witness_probes(final: float, d_last: float, d_prev: float) -> np.ndarray:
    """Points in [ZERO_CUTOFF, final] where a fixed point below `final` is
    likely: final - R * _WITNESS_RATIO**j for j = 0, 1, ..., where
    R = -d_last * r / (1 - r) with r = d_last / d_prev is the Aitken estimate
    of the distance still to go, plus ZERO_CUTOFF itself."""
    r = d_last / d_prev if d_prev != 0.0 else 0.0
    remainder = -d_last * r / (1.0 - r) if 0.0 < r < 1.0 else -d_last
    span = final - ZERO_CUTOFF
    if not 0.0 < remainder < span:
        return np.array([ZERO_CUTOFF])
    count = int(np.log(span / remainder) / np.log(_WITNESS_RATIO)) + 1
    ys = final - remainder * _WITNESS_RATIO ** np.arange(count)
    return np.append(ys[ys >= ZERO_CUTOFF], ZERO_CUTOFF)


def _converges_to_zero(dmap: _DecodingMap, eps: float) -> bool:
    """Threshold predicate: does the erasure fixed point reach zero?

    `dmap` is the erasure map of the ensemble. The kernel runs from
    x0 = eps up to each total of ``_PREDICATE_BUDGETS`` in turn, resuming
    from the previous rung's last iterate. ``True`` is
    never extrapolated: it comes from a run that drops below ``ZERO_CUTOFF``
    or, once the last run ends still descending, from the backstop scan (no
    x with f(x) >= x on a dense logarithmic grid between the cutoff and the
    last iterate, where f(x) = eps * lam(1 - rho(1 - x))). ``False`` is
    decided as soon as it is proved:

    * zero-step stop: the kernel stops on an exactly zero step, so the last
      iterate is a fixed point of the computed map above the cutoff;
    * fixed-point witness: after each run, a probe y in [ZERO_CUTOFF, last
      iterate] with f(y) >= y, computed in the kernel's arithmetic. Rounding
      is monotone and every coefficient is nonnegative, so the computed map
      is nondecreasing on [0, 1]: an iterate x >= y steps to
      f(x) >= f(y) >= y, and the run never drops below y. The probes follow
      the Aitken estimate of the fixed point the run approaches (see
      ``_witness_probes``).
    """
    if eps <= 0.0:
        return True
    lam_c, rho_c = dmap.lam.coeffs, dmap.rho.coeffs
    start, done = None, 0
    for budget in _PREDICATE_BUDGETS:
        final, _, stopped, d_last, d_prev = kernels.de_final(
            lam_c, rho_c, eps, budget - done, _ZERO_STEP, ZERO_CUTOFF * 0.1,
            start)
        if final < ZERO_CUTOFF:
            return True
        if stopped:
            return False
        probes = _witness_probes(final, d_last, d_prev)
        if np.any(dmap.steps(eps, probes) >= probes):
            return False
        start, done = (final, d_last), budget
    xs = np.exp(np.linspace(np.log(ZERO_CUTOFF), np.log(final), _FIXED_POINT_SCAN))
    return not np.any(dmap.steps(eps, xs) >= xs)


def bisect_threshold(lam: DegreeDistribution, rho: DegreeDistribution) -> float:
    """Largest erasure probability whose fixed point still reaches zero.

    Bisection on [0, 1] with the `_converges_to_zero` predicate, down to a
    bracket of ``BISECT_PRECISION``. The result also satisfies the
    capacity-side bound eps* <= (sum rho_j / j) / (sum lam_i / i) up to that
    precision.
    """
    dmap = _DecodingMap(lam, rho)
    lo, hi = 0.0, 1.0
    if _converges_to_zero(dmap, hi):
        return hi
    while hi - lo > BISECT_PRECISION:
        mid = 0.5 * (lo + hi)
        if _converges_to_zero(dmap, mid):
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    cap = rho.inv_degree_moment() / lam.inv_degree_moment()
    if threshold > cap + BISECT_PRECISION:
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
    lam: Optional[dict]


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
    psi(x) = 1 - rho(1 - eps*x). Eliminating lam_2 = 1 - sum_{i>=3} lam_i
    leaves one multiplier mu_k >= 0 per grid point and one slack s_i >= 0 per
    degree in the dual:

        minimize    (x - Psi_2)'mu + s_2 + c_2
        subject to  (Psi_i - Psi_2)'mu + s_2 - s_i = c_i - c_2,  i = 3..Dv.

    Its Dv - 2 rows keep the solver's normal matrix (Dv-2) x (Dv-2) whatever
    N is. The rows psi**i - psi are nearly collinear, so they are
    orthonormalized once by a QR factorization of A'. The dual objective is
    an upper bound on the grid LP (and so on the exact program); the design
    is read back by ``DiscretizedLp.recover_lambda``.
    """
    if n_points < 1:
        raise ValueError("need at least one grid point")
    if max_var_degree < 2:
        raise ValueError("max_var_degree must be at least 2")
    nl = max_var_degree - 1
    xs = np.arange(1, n_points + 1) / n_points
    psi_powers = running_powers(psi(rho.edge_polynomial(), eps, xs), nl)
    gain = np.array([1.0 / i for i in range(2, max_var_degree + 1)])

    # Columns [mu (N) | s_2 | s_3..s_Dv], rows i = 3..Dv.
    rows = nl - 1
    A = np.zeros((rows, n_points + nl))
    A[:, :n_points] = (psi_powers[:, 1:] - psi_powers[:, :1]).T
    A[:, n_points] = 1.0
    A[:, n_points + 1:] = -np.eye(rows)
    q_factor, r_factor = np.linalg.qr(A.T)
    b = np.linalg.solve(r_factor.T, gain[1:] - gain[0])
    c = np.zeros(n_points + nl)
    c[:n_points] = xs - psi_powers[:, 0]
    c[n_points] = 1.0
    problem = ConicProblem(sense="min", c=c, A=q_factor.T, b=b,
                           n_nonneg=n_points + nl, offset=float(gain[0]))
    return DiscretizedLp(problem, r_factor, psi_powers, xs)


def lp_baseline_sweep(rho: DegreeDistribution, eps: float, max_var_degree: int,
                      grid_sizes: Iterable[int], tol: float = 1e-8) -> list:
    """Solve the discretized LP for each grid size, in ascending order.

    A row is ``optimal`` only when the recovered lam passes
    ``DiscretizedLp.is_feasible``; its objective is the dual objective, a
    verified upper bound. An unbounded dual means an infeasible grid LP.
    Solver failures are recorded per row and do not abort the sweep.
    """
    rows = []
    for n in sorted(set(int(n) for n in grid_sizes)):
        lp = build_discretized_lp(rho, eps, max_var_degree, n)
        try:
            sol = solver.solve(lp.problem, tol=tol)
        except Exception as exc:  # pragma: no cover - defensive
            rows.append(LpSweepRow(n, f"error: {exc}", None, None, None))
            continue
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
        lam_vals = np.clip(lam_vals, 0.0, 1.0)
        taps = {i: float(v) for i, v in zip(range(2, max_var_degree + 1), lam_vals)}
        lam = DegreeDistribution(
            {i: v for i, v in taps.items() if v > 1e-12}, normalize=True)
        rows.append(LpSweepRow(
            n_points=n,
            status="optimal",
            objective=float(sol.objective),
            rate=float(design_rate(lam, rho)),
            lam=taps,
        ))
    return rows


def sweep_rows_to_csv(rows: Sequence[LpSweepRow], max_var_degree: int,
                      stream: IO[str]) -> None:
    """Write sweep rows as CSV: N,rate,objective,lambda_2..lambda_Dv,status."""
    degrees = list(range(2, max_var_degree + 1))
    header = ["N", "rate", "objective"] + [f"lambda_{i}" for i in degrees] + ["status"]
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = [str(row.n_points)]
        if row.status == "optimal":
            cells.append(f"{row.rate:.6g}")
            cells.append(f"{row.objective:.6g}")
            cells.extend(f"{row.lam.get(i, 0.0):.6g}" for i in degrees)
        else:
            cells.extend([""] * (2 + len(degrees)))
        cells.append(row.status)
        stream.write(",".join(cells) + "\n")
