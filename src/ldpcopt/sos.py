"""Exact reformulation of polynomial nonnegativity on [0, 1] as finite LMIs.

A polynomial F of degree n is nonnegative on [0, 1] exactly when it has the
Markov-Lukacs form

    F = s0 + x (1 - x) s1      (n even),
    F = x s0 + (1 - x) s1      (n odd),

with s0 and s1 sums of squares of degree at most n, each witnessed by a PSD
Gram matrix (Powers & Reznick, "Polynomials that are positive on an
interval", 2000). The Gram blocks are taken over the shifted Chebyshev basis
T_i(2x - 1), i < d, with d = n/2 + 1 and n/2 (n even) or (n + 1)/2 for both
(n odd); an empty block is left out.

Both sides have degree at most n, so they are equal exactly when they agree
at n + 1 distinct points. The identity is imposed at the first-kind
Chebyshev nodes x_j = (1 + cos t_j) / 2, t_j = (2j + 1) pi / (2n + 2),
j = 0..n (Loefberg & Parrilo, "From coefficients to samples", 2004): one
equality per node,

    F(x_j) - sum_k u_jk' X_k u_jk = 0,
    u_jk = sqrt(w_k(x_j)) * c * [cos(i t_j)]_i,   c = sqrt(2 / (n + 1)),

with w_k the block's weight (1, x(1 - x), x or 1 - x). Each row is one
rank-one matrix per block, which ``ldpcopt.solver`` takes as such. The
scale c is the DCT's, under which the node vectors of a block are
orthonormal in the mean.

Because the design coefficients enter the constraint polynomial affinely,
the feasibility sets are affine slices of the PSD cone and the rate and
threshold design problems are semidefinite programs with no relaxation. A
family is a constraint polynomial P whose coefficients are affine in the
decision variables, carried as F = P / x at the Chebyshev nodes of degree
n = deg P - 1: a node table, a float64 array with one row per node, whose
column 0 is the constant part of F(x_j) and column 1+v the coefficient of
variable v. Its values are evaluated in composed form; nothing here expands
monomials. The lambda family is the table
``ensemble.lambda_constraint_table`` at the nodes, the same table the grid
LP of ``ldpcopt.de`` takes at its grid; the threshold family composes
``ensemble.psi``, and the rho family phi = 1 - eps lam with
``ensemble.running_powers``. Each family takes deg P from
``constraint_degree``, the one cap on program size, and the two design
families refuse an eps outside [0, 1) or a maximum degree below 2. P(0)
vanishes on every program's feasible set (identically for the lambda and
threshold families, on the simplex for the rho family), so each program is
posed for F = P / x, at the nodes of degree deg P - 1: all nodes are
interior, so a division by x is safe, and the rho family forms its
quotient without one.

``verify_certificate`` checks the Gram blocks a solve returns: each block is
PSD, and the node residuals r_j = F(x_j) - s(x_j) are small. With
first-kind nodes the residual interpolant bounds the error on the whole
interval, |F - s| <= Lambda_n max |r_j| on [0, 1], with the Lebesgue
constant Lambda_n <= (2 / pi) ln(n + 1) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import DegreeDistribution, lambda_constraint_table, psi, running_powers
from .poly import Polynomial
from .solver import ConicProblem, svec_dim, svec_max_abs

GRAM_SYMMETRY_TOL = 1e-12
GRAM_PSD_TOL = 1e-9
# Bound on max |F - s| over [0, 1], relative to 1 + max |F(x_j)|.
GRAM_RECONSTRUCTION_TOL = 1e-7

# Largest degree + 1 of a constraint polynomial P, before x is factored
# out: the cap that ``constraint_degree`` applies to every program. At the
# cap (Dv = 52 at deg rho = 6: blocks of 128 and 127, 255 node rows) the
# build takes under 0.01 s and 32 MB resident, and a solve takes 17
# iterations and 0.8-0.9 s at 1 or 2 BLAS threads, peaking at 53 MB
# (2 vCPUs); time grows as d^3 and memory as d^2. ``optimize-lambda``
# checks the cap on its full --max-var-degree program even where its
# smaller first rung answers, since that program is the rung it falls back
# to.
MAX_GRAM_DIM = 256


class GramTooLarge(ValueError):
    """The constraint polynomial's degree + 1 exceeds ``MAX_GRAM_DIM``."""


def constraint_degree(outer_degree: int, inner_degree: int) -> int:
    """deg P = (outer_degree - 1) * (inner_degree - 1) of a constraint
    polynomial that composes an edge polynomial of largest degree
    ``outer_degree`` with one of largest degree ``inner_degree``.

    The one Gram-cap rule: it raises ``GramTooLarge`` when deg P + 1
    exceeds ``MAX_GRAM_DIM``. Every family takes its degree from it before
    anything is built, and the CLI asks it before solving a lambda rung.
    """
    degree = (outer_degree - 1) * (inner_degree - 1)
    if degree + 1 > MAX_GRAM_DIM:
        raise GramTooLarge(
            f"Gram dimension {degree + 1} exceeds the limit of {MAX_GRAM_DIM}")
    return degree


# ---------------------------------------------------------------------------
# Nodes and the Markov-Lukacs blocks
# ---------------------------------------------------------------------------

def chebyshev_nodes(n: int):
    """The angles t_j = (2j + 1) pi / (2n + 2) and nodes x_j = (1 + cos t_j) / 2,
    j = 0..n, of degree n."""
    theta = (2.0 * np.arange(n + 1) + 1.0) * math.pi / (2.0 * n + 2.0)
    return theta, 0.5 * (1.0 + np.cos(theta))


def _node_vectors(n: int) -> list:
    """For each Gram block of the degree-n Markov-Lukacs form, the matrix of
    its node vectors u_j (one row per node, see the module docstring)."""
    theta, x = chebyshev_nodes(n)
    if n % 2 == 0:
        blocks = [(n // 2 + 1, np.ones_like(x)), (n // 2, x * (1.0 - x))]
    else:
        blocks = [((n + 1) // 2, x), ((n + 1) // 2, 1.0 - x)]
    c = math.sqrt(2.0 / (n + 1))
    return [np.sqrt(w)[:, None] * c * np.cos(np.outer(theta, np.arange(d)))
            for d, w in blocks if d > 0]


# ---------------------------------------------------------------------------
# Affine families of polynomials, sampled at the nodes
# ---------------------------------------------------------------------------

def coefficient_family(table: np.ndarray) -> np.ndarray:
    """The node table of the P with the monomial coefficient table ``table``
    (one row per power; column 0 constant, column 1+v variable v). Its
    exactly zero low rows are factored out as x^k."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] < 1:
        raise ValueError("coefficient table needs one row per power and a constant column")
    # P is itself composed with x, the edge polynomial of largest degree 2.
    degree = constraint_degree(table.shape[0], 2)
    k = 0
    while k < degree and not np.any(table[k]):
        k += 1
    _, x = chebyshev_nodes(degree - k)
    return np.polynomial.polynomial.polyval(x, table[k:]).T


def _design_eps(eps: float, max_degree: int, degree_name: str) -> float:
    """``eps`` as a float, once it lies in [0, 1) and the design side's
    ``max_degree`` is at least 2; ValueError otherwise."""
    eps = float(eps)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if max_degree < 2:
        raise ValueError(f"{degree_name} must be at least 2")
    return eps


def lambda_constraint_family(rho: DegreeDistribution, eps: float,
                             max_var_degree: int) -> np.ndarray:
    """P(x) = x - sum_i lam_i * psi(x)**(i-1), psi(x) = 1 - rho(1 - eps*x).

    Affine in the variable-side coefficients lam_2..lam_Dv; P(0) = 0
    identically, so the program is posed for P / x. ValueError unless eps
    lies in [0, 1) and Dv is at least 2.
    """
    eps = _design_eps(eps, max_var_degree, "max_var_degree")
    _, x = chebyshev_nodes(constraint_degree(max_var_degree, rho.max_degree) - 1)
    return lambda_constraint_table(rho, eps, max_var_degree, x) / x[:, None]


def rho_constraint_family(lam: DegreeDistribution, eps: float,
                          max_check_degree: int) -> np.ndarray:
    """Q(x) = sum_j rho_j * phi(x)**(j-1) - 1 + x, phi(x) = 1 - eps*lam(x),
    posed as Q / x.

    Affine in the check-side coefficients rho_2..rho_Dc; Q >= 0 on [0, 1] is
    the check-side form of the zero-erasure condition. Q(0) = sum_j rho_j - 1
    vanishes on the simplex, which the program's simplex row imposes, and
    there Q / x = 1 + sum_j rho_j (phi**(j-1) - 1) / x: column 0 is 1 and
    column j - 1 is -eps (lam(x) / x) sum_{m < j-1} phi**m, with lam(x) / x
    the edge polynomial's quotient, so no column cancels. Its value at 0 is
    the stability margin 1 - eps lam_2 rho'(1). Posed as Q, the program had
    no strictly feasible point: Q(0) = 0 left every feasible Gram block
    singular. ValueError unless eps lies in [0, 1) and Dc is at least 2.
    """
    eps = _design_eps(eps, max_check_degree, "max_check_degree")
    _, x = chebyshev_nodes(constraint_degree(max_check_degree, lam.max_degree) - 1)
    edge = lam.edge_polynomial()
    ones = np.ones((x.size, 1))
    phi = 1.0 - eps * edge.evaluate_many(x)
    sums = np.cumsum(np.concatenate(
        [ones, running_powers(phi, max_check_degree - 2)], axis=1), axis=1)
    quotient = Polynomial(edge.coeffs[1:]).evaluate_many(x)
    return np.concatenate([ones, (-eps * quotient)[:, None] * sums], axis=1)


def threshold_constraint_family(lam: DegreeDistribution,
                                rho: DegreeDistribution) -> np.ndarray:
    """T(x) = t*x - lam(1 - rho(1 - x)), affine in the single variable t;
    T(0) = 0 identically, so the program is posed for T / x."""
    _, x = chebyshev_nodes(constraint_degree(lam.max_degree, rho.max_degree) - 1)
    fixed = lam.edge_polynomial().evaluate_many(psi(rho.edge_polynomial(), 1.0, x))
    return np.stack([-fixed, x], axis=1) / x[:, None]


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------

def assemble_sos_program(family: np.ndarray, sense: str,
                         objective: Sequence[float],
                         extra_eq: Sequence[tuple] = ()) -> ConicProblem:
    """Generic builder: nonnegative decision variables + Gram blocks for
    the node table ``family`` >= 0 on [0, 1].

    ``extra_eq`` rows are (coefficients over the decision variables, rhs).
    Variable layout of the result: the family's variables, then each
    Markov-Lukacs Gram block. Rows: one per node, then the extra rows. Node
    j enters block k as the single term -u_jk u_jk'. Any other bound on a
    variable is the caller's to pose, as a variable of the family and an
    extra row.
    """
    n_nodes, nv = family.shape[0], family.shape[1] - 1
    us = _node_vectors(n_nodes - 1)

    n_rows = n_nodes + len(extra_eq)
    A, b = np.zeros((n_rows, nv)), np.zeros(n_rows)
    A[:n_nodes] = family[:, 1:]
    b[:n_nodes] = -family[:, 0]
    for r, (coeffs, rhs) in enumerate(extra_eq):
        A[n_nodes + r] = coeffs
        b[n_nodes + r] = rhs

    # Equilibrate: normalize each equality to unit max coefficient (an exact
    # reformulation), the largest entry of node j's -u_jk u_jk' included.
    # Without it, 4 of 200 random threshold programs (the A8 generator,
    # seed 42) end numerical-failure.
    scale = np.maximum(np.max(np.abs(A), axis=1, initial=0.0), 1e-30)
    for u in us:
        scale[:n_nodes] = np.maximum(scale[:n_nodes], svec_max_abs(u.T))
    scale = np.maximum(scale, np.abs(b))
    A /= scale[:, None]
    b /= scale

    c = np.zeros(nv + sum(svec_dim(u.shape[1]) for u in us))
    c[:nv] = objective
    return ConicProblem(
        sense=sense, c=c, A=A, b=b, n_nonneg=nv,
        psd_dims=tuple(u.shape[1] for u in us),
        psd_rows=tuple((np.arange(n_nodes), -1.0 / scale[:n_nodes], u.T) for u in us),
    )


def _design_problem(family: np.ndarray, sense: str) -> ConicProblem:
    """Optimize sum_i v_i / i over the taps v_2..v_D >= 0 of one side, one
    per variable of the node table ``family``, which the simplex row keeps
    at most 1, subject to ``family`` >= 0."""
    nv = family.shape[1] - 1
    return assemble_sos_program(family, sense,
                                objective=[1.0 / i for i in range(2, nv + 2)],
                                extra_eq=[(np.ones(nv), 1.0)])


def build_lambda_problem(rho: DegreeDistribution, eps: float,
                         max_var_degree: int, family=None) -> ConicProblem:
    """Maximize sum_i lam_i / i over DE-feasible variable-side distributions.

    The check side and the erasure probability are fixed; the decision
    variables are lam_2..lam_Dv plus the Gram blocks of the constraint
    polynomial, of degree (Dv - 1) * deg(rho). ``family``, when given, is
    ``lambda_constraint_family`` of the same arguments, built by the caller.
    """
    if family is None:
        family = lambda_constraint_family(rho, eps, max_var_degree)
    return _design_problem(family, "max")


def build_rho_problem(lam: DegreeDistribution, eps: float,
                      max_check_degree: int, family=None) -> ConicProblem:
    """Minimize sum_j rho_j / j over check-side distributions feasible at eps;
    ``family`` as for ``build_lambda_problem``."""
    if family is None:
        family = rho_constraint_family(lam, eps, max_check_degree)
    return _design_problem(family, "min")


def build_threshold_problem(lam: DegreeDistribution, rho: DegreeDistribution,
                            family=None) -> ConicProblem:
    """Minimize t >= 0 with t*x - lam(1 - rho(1 - x)) >= 0 on [0, 1].

    The constraint at x = 1 reads t - lam(1) = t - 1 >= 0, so t >= 1 needs
    no row of its own. The maximum tolerable erasure probability is
    recovered as 1 / t*. ``family`` as for ``build_lambda_problem``.
    """
    if family is None:
        family = threshold_constraint_family(lam, rho)
    return assemble_sos_program(family, "min", objective=[1.0])


def build_sos_feasibility(p: Polynomial) -> ConicProblem:
    """Feasibility program: does p admit a Markov-Lukacs certificate on [0, 1]?"""
    if p.degree < 0:
        raise ValueError("the zero polynomial needs no certificate")
    return assemble_sos_program(coefficient_family(p.coeffs[:, None]), "min",
                                objective=[])


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    psd_ok: bool
    reconstruction_ok: bool
    min_eig: float
    max_residual: float
    symmetry_residual: float

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.reconstruction_ok


def verify_certificate(grams: Sequence[np.ndarray], target: np.ndarray) -> CertificateReport:
    """Check Gram blocks against F at the n + 1 Chebyshev nodes of degree n.

    Verifies symmetry and positive semidefiniteness of every block (an
    eigenvalue floor scaled by the largest eigenvalue magnitude) and the
    node residuals r_j = F(x_j) - s(x_j): the certificate polynomial s
    deviates from F by at most Lambda_n max |r_j| on [0, 1], which must stay
    within ``GRAM_RECONSTRUCTION_TOL`` (1 + max |F(x_j)|).
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.size - 1
    us = _node_vectors(n) if n >= 0 else []
    if [u.shape[1] for u in us] != [np.shape(g)[0] for g in grams]:
        raise ValueError(f"Gram blocks {[np.shape(g) for g in grams]} do not fit "
                         f"a form of degree {n}")
    sym_res, min_eig, norm = 0.0, math.inf, 0.0
    sigma = np.zeros(n + 1)
    for u, g in zip(us, grams):
        g = np.asarray(g, dtype=np.float64)
        sym_res = max(sym_res, float(np.max(np.abs(g - g.T), initial=0.0)))
        sym = 0.5 * (g + g.T)
        eigs = np.linalg.eigvalsh(sym)
        min_eig = min(min_eig, float(eigs[0]))
        norm = max(norm, abs(float(eigs[0])), abs(float(eigs[-1])))
        sigma += np.sum((u @ sym) * u, axis=1)
    psd_ok = (min_eig >= -GRAM_PSD_TOL * (1.0 + norm)) and \
        (sym_res <= GRAM_SYMMETRY_TOL * (1.0 + norm))
    max_residual = float(np.max(np.abs(target - sigma)))
    lebesgue = 2.0 / math.pi * math.log(n + 1) + 1.0
    scale = 1.0 + float(np.max(np.abs(target)))
    return CertificateReport(
        psd_ok=psd_ok,
        reconstruction_ok=lebesgue * max_residual <= GRAM_RECONSTRUCTION_TOL * scale,
        min_eig=min_eig,
        max_residual=max_residual,
        symmetry_residual=sym_res,
    )
