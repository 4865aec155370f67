"""Exact reformulation of polynomial nonnegativity on [0, 1] as finite LMIs.

The key map lifts a polynomial p of degree <= q to

    Pi(x) = (1 + x^2)^q * p(x^2 / (1 + x^2)),

a polynomial of degree 2q that is nonnegative on the whole real line exactly
when p is nonnegative on [0, 1]. A univariate polynomial nonnegative on the
line is a sum of squares, witnessed by a PSD Gram matrix B over the monomials
1, x, ..., x^q whose antidiagonal sums reproduce the coefficients:

    Pi_l = sum_{i+j=l} B_ij,   0 <= l <= 2q,   B >= 0.

Because the lift is linear and the design coefficients enter the constraint
polynomial affinely, the resulting feasibility sets are affine slices of the
PSD cone, so the rate and threshold design problems become semidefinite
programs with no relaxation. This module builds those programs and verifies
returned Gram certificates.

Two exact reductions shrink the programs:

- Parity split. Pi is even, so with D = diag((-1)^i) the average of B and
  DBD is again a Gram matrix of Pi, with no entries between even and odd
  monomials: B is taken as an even block and an odd block, and only the
  q + 1 even coefficient equations remain (Gatermann & Parrilo, "Symmetry
  groups, semidefinite programs, and sums of squares", 2004).
- Factored zeros. When the family's k lowest coefficients vanish
  identically, p = x^k p~ and Pi = x^(2k) Pi~ with Pi~ the order q - k lift
  of p~; every Gram matrix of Pi is zero in its first k rows, so the program
  is posed for Pi~ (k = 1 for the lambda and threshold families).

``certificate_from_solution`` reassembles the (q + 1) x (q + 1) Gram matrix
of Pi, zero off parity and in the factored rows, for ``verify_certificate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import DegreeDistribution
from .poly import Polynomial
from .solver import ConicProblem

# The constant row of the lambda and threshold families is floating residue
# of rho(1) = 1 and must stay below this before it is zeroed; anything
# larger means a degree distribution that is not normalized.
CONSTANT_TERM_TOL = 1e-12

GRAM_SYMMETRY_TOL = 1e-12
GRAM_PSD_TOL = 1e-9
GRAM_RECONSTRUCTION_TOL = 1e-7

# Largest monomial Gram matrix (q + 1) a program may have. At the cap
# (Dv = 52 at deg rho = 6: blocks of 128 and 127, 256 rows) the build peaks
# at 96 MB and a solve at 285 MB in 5 s on 2 vCPUs, both growing as d^3, and
# the monomial basis already fails numerically there (from Dv = 40 on).
# Larger programs are refused before anything is built.
MAX_GRAM_DIM = 256


class GramTooLarge(ValueError):
    """The lifted program would need a Gram block above ``MAX_GRAM_DIM``."""


def _check_gram_dim(q: int) -> None:
    """Refuse a lift of order q whose Gram block exceeds ``MAX_GRAM_DIM``."""
    if q + 1 > MAX_GRAM_DIM:
        raise GramTooLarge(
            f"Gram dimension {q + 1} exceeds the limit of {MAX_GRAM_DIM}")


# ---------------------------------------------------------------------------
# Lift
# ---------------------------------------------------------------------------

def lift_matrix(degree_in: int, q: int) -> np.ndarray:
    """Linear map from coefficients of p (degree <= degree_in) to those of Pi.

    Row 2m is  Pi_{2m} = sum_{i<=m} C(q-i, m-i) * p_i; odd rows are zero.
    """
    if q < degree_in:
        raise ValueError(f"lift order q={q} is below the polynomial degree {degree_in}")
    L = np.zeros((2 * q + 1, degree_in + 1))
    for m in range(q + 1):
        for i in range(0, min(m, degree_in) + 1):
            L[2 * m, i] = math.comb(q - i, m - i)
    return L


def lift_to_real_line(p: Polynomial, q: int) -> Polynomial:
    """Pi(x) = (1 + x^2)^q p(x^2/(1+x^2)); rejects q below deg(p)."""
    if q < p.degree:
        raise ValueError(f"lift order q={q} is below the polynomial degree {p.degree}")
    if p.degree < 0:
        return Polynomial.zero()
    return Polynomial(lift_matrix(p.degree, q) @ p.coeffs)


# ---------------------------------------------------------------------------
# Affine families of polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffinePolynomialFamily:
    """Polynomial whose coefficients are affine in named decision variables.

    ``table`` has one row per monomial power; column 0 is the constant part
    and column 1+v multiplies variable v. Affine maps commute with the lift,
    so a family can be lifted symbolically and evaluated later.
    """

    variable_names: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=np.float64))
        if self.table.ndim != 2 or self.table.shape[1] != 1 + len(self.variable_names):
            raise ValueError("coefficient table shape does not match the variable count")

    @property
    def degree(self) -> int:
        return self.table.shape[0] - 1

    @property
    def n_vars(self) -> int:
        return len(self.variable_names)

    def at(self, values: Sequence[float]) -> Polynomial:
        v = np.concatenate([[1.0], np.asarray(values, dtype=np.float64)])
        if v.size != self.table.shape[1]:
            raise ValueError("wrong number of variable values")
        return Polynomial(self.table @ v)

    def lift(self, q: int) -> "AffinePolynomialFamily":
        return AffinePolynomialFamily(
            self.variable_names, lift_matrix(self.degree, q) @ self.table)


def check_map(rho: DegreeDistribution, eps: float) -> Polynomial:
    """psi(x) = 1 - rho(1 - eps*x), the check-node half of the erasure map.

    `rho` is an edge-perspective degree distribution (see
    ``ensemble.DegreeDistribution``); psi(0) vanishes because rho(1) = 1.
    The expanded coefficients serve the family tables only; values of psi
    come from the composed ``ensemble.psi``.
    """
    return Polynomial((1.0,)).sub(
        rho.edge_polynomial().compose(Polynomial((1.0, -eps))))


def without_constant_term(coeffs: np.ndarray) -> np.ndarray:
    """Copy of `coeffs` with row 0 (the x**0 coefficients) set to zero.

    Rows are monomial powers; a 2-D table holds one column per affine
    variable. The row must be floating residue of rho(1) = 1, at most
    ``CONSTANT_TERM_TOL`` in magnitude, so that the family's equality
    constraints are exactly consistent; anything larger means a degree
    distribution that is not normalized.
    """
    c0 = float(np.max(np.abs(coeffs[:1]), initial=0.0))
    if c0 > CONSTANT_TERM_TOL:
        raise ValueError(
            f"constant term {c0!r} exceeds {CONSTANT_TERM_TOL}; "
            "degree distribution is not normalized")
    out = np.array(coeffs, dtype=np.float64)
    out[:1] = 0.0
    return out


def design_lift_order(fixed: DegreeDistribution, max_degree: int) -> int:
    """Lift order q of the lambda and rho design families: the degree of
    their constraint polynomial, (max_degree - 1) * deg(fixed)."""
    return (max_degree - 1) * (fixed.max_degree - 1)


def lambda_constraint_family(rho: DegreeDistribution, eps: float,
                             max_var_degree: int) -> AffinePolynomialFamily:
    """P(x) = x - sum_i lam_i * psi(x)**(i-1), psi(x) = 1 - rho(1 - eps*x).

    Affine in the variable-side coefficients lam_2..lam_Dv.
    """
    q = design_lift_order(rho, max_var_degree)
    _check_gram_dim(q)
    table = np.zeros((q + 1, max_var_degree))
    table[1, 0] = 1.0
    for i, block in enumerate(check_map(rho, eps).powers(max_var_degree - 1), 2):
        table[: block.degree + 1, i - 1] -= block.coeffs
    return AffinePolynomialFamily(
        tuple(f"lambda_{i}" for i in range(2, max_var_degree + 1)),
        without_constant_term(table))


def rho_constraint_family(lam: DegreeDistribution, eps: float,
                          max_check_degree: int) -> AffinePolynomialFamily:
    """Q(x) = sum_j rho_j * phi(x)**(j-1) - 1 + x, phi(x) = 1 - eps*lam(x).

    Affine in the check-side coefficients rho_2..rho_Dc; Q >= 0 on [0, 1] is
    the check-side form of the zero-erasure condition. The constant row is
    sum_j rho_j - 1, which vanishes on the simplex rather than identically.
    """
    phi = Polynomial((1.0,)).sub(lam.edge_polynomial().scale(eps))
    q = design_lift_order(lam, max_check_degree)
    _check_gram_dim(q)
    table = np.zeros((q + 1, max_check_degree))
    table[0, 0] = -1.0
    table[1, 0] = 1.0
    for j, block in enumerate(phi.powers(max_check_degree - 1), 2):
        table[: block.degree + 1, j - 1] += block.coeffs
    return AffinePolynomialFamily(
        tuple(f"rho_{j}" for j in range(2, max_check_degree + 1)), table)


def threshold_constraint_family(lam: DegreeDistribution,
                                rho: DegreeDistribution) -> AffinePolynomialFamily:
    """T(x) = t*x - lam(1 - rho(1 - x)), affine in the single variable t."""
    _check_gram_dim((lam.max_degree - 1) * (rho.max_degree - 1))
    fixed = lam.edge_polynomial().compose(check_map(rho, 1.0))
    q = max(fixed.degree, 1)
    table = np.zeros((q + 1, 2))
    table[: fixed.degree + 1, 0] -= fixed.coeffs
    table[1, 1] = 1.0
    return AffinePolynomialFamily(("t",), without_constant_term(table))


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------

def gram_basis_weights(q: int) -> np.ndarray:
    """Diagonal scaling sqrt(C(q, i)) applied to the Gram basis.

    The lifted polynomials carry binomial-sized coefficients (the lift of the
    constant 1 is (1+x^2)^q), so the Gram matrix in the plain monomial basis
    spans ~C(q, q/2) orders of magnitude and double arithmetic cannot meet
    tight residual tolerances at q ~ 30. Conjugating by this diagonal is an
    exact, cone-preserving change of basis under which the identity matrix
    certifies (1+x^2)^q and well-behaved certificates stay O(1).
    """
    # Float binomials: past q = 66, C(q, q/2) > 2^63 and a list of exact
    # ints would become an object array that np.sqrt rejects.
    return np.array([math.sqrt(math.comb(q, i)) for i in range(q + 1)])


def _parity_blocks(q: int):
    """The monomial powers of the even and the odd Gram block of a degree-2q
    even polynomial (an empty block is left out), and for each svec
    coordinate of the blocks the m and weight with which it enters
    Pi_{2m} = sum_{i+j=2m} w_i w_j Btilde_ij, w = ``gram_basis_weights(q)``."""
    w = gram_basis_weights(q)
    powers, rows, weights = [], [], []
    for parity in (0, 1):
        idx = np.arange(parity, q + 1, 2)
        if idx.size == 0:
            continue
        iu0, iu1 = np.triu_indices(idx.size)
        i, j = idx[iu0], idx[iu1]
        powers.append(idx)
        rows.append((i + j) // 2)
        weights.append(w[i] * w[j] * np.where(i == j, 1.0, math.sqrt(2.0)))
    return powers, np.concatenate(rows), np.concatenate(weights)


def assemble_sos_program(family: AffinePolynomialFamily, q: int, sense: str,
                         objective: Sequence[float],
                         var_lo: Sequence[float], var_hi: Sequence[float],
                         extra_eq: Sequence[tuple] = ()) -> ConicProblem:
    """Generic builder: decision variables + Gram blocks for ``family`` >= 0 on [0,1].

    ``extra_eq`` rows are (coefficients over the decision variables, rhs).
    Variable layout of the result: the family's variables first (bounded
    below by var_lo), then one slack per finite var_hi, then svec of the
    even and the odd Gram block of the order q - k lift of family / x^k, k
    the number of identically zero low rows (see the module docstring). A
    finite var_hi[v] is the row var_v + s = var_hi[v] with a slack s >= 0,
    after the extra rows. Raises ``GramTooLarge`` when q + 1 exceeds
    ``MAX_GRAM_DIM``.
    """
    _check_gram_dim(q)
    k = 0   # identically zero low rows, factored out as x^k
    while k < family.degree and not np.any(family.table[k]):
        k += 1
    qr = q - k
    lifted = AffinePolynomialFamily(family.variable_names, family.table[k:]).lift(qr)
    even = lifted.table[::2]
    nv = family.n_vars
    hi = np.asarray(var_hi, dtype=np.float64)
    capped = np.flatnonzero(np.isfinite(hi))
    ns = nv + capped.size   # decision variables and slacks
    powers, gram_rows, weights = _parity_blocks(qr)
    sdim = weights.size

    n_rows = (qr + 1) + len(extra_eq) + capped.size
    A = np.zeros((n_rows, ns + sdim))
    b = np.zeros(n_rows)
    A[: qr + 1, :nv] = even[:, 1:]
    A[gram_rows, ns + np.arange(sdim)] = -weights
    b[: qr + 1] = -even[:, 0]
    for r, (coeffs, rhs) in enumerate(extra_eq):
        A[qr + 1 + r, :nv] = coeffs
        b[qr + 1 + r] = rhs
    caps = np.arange(n_rows - capped.size, n_rows)
    A[caps, capped] = A[caps, nv + np.arange(capped.size)] = 1.0
    b[caps] = hi[capped]

    # Equilibrate: the lift rows still grow binomially with l, so normalize
    # each equality to unit max coefficient (an exact reformulation).
    scale = np.maximum(np.max(np.abs(A), axis=1), 1e-30)
    scale = np.maximum(scale, np.abs(b))
    A /= scale[:, None]
    b /= scale

    c = np.zeros(ns + sdim)
    c[:nv] = objective
    return ConicProblem(
        sense=sense, c=c, A=A, b=b,
        n_nonneg=0,
        box_lo=np.concatenate([np.asarray(var_lo, dtype=np.float64),
                               np.zeros(capped.size)]),
        psd_dims=tuple(idx.size for idx in powers),
        var_names=family.variable_names,
    )


def _check_eps(eps: float, allow_zero: bool) -> float:
    eps = float(eps)
    lo_ok = eps >= 0.0 if allow_zero else eps > 0.0
    if not lo_ok or eps >= 1.0:
        raise ValueError(f"eps must lie in {'[0, 1)' if allow_zero else '(0, 1)'}, got {eps}")
    return eps


def is_degenerate_epsilon(eps: float) -> bool:
    """eps = 0 leaves every distribution feasible; flag rather than refuse."""
    return float(eps) == 0.0


def build_lambda_problem(rho: DegreeDistribution, eps: float,
                         max_var_degree: int) -> ConicProblem:
    """Maximize sum_i lam_i / i over DE-feasible variable-side distributions.

    The check side and the erasure probability are fixed; decision variables
    are lam_2..lam_Dv (each boxed to [0, 1]) plus the Gram block of the lifted
    constraint polynomial. q = (Dv - 1) * deg(rho).
    """
    eps = _check_eps(eps, allow_zero=True)
    if max_var_degree < 2:
        raise ValueError("max_var_degree must be at least 2")
    family = lambda_constraint_family(rho, eps, max_var_degree)
    degrees = range(2, max_var_degree + 1)
    return assemble_sos_program(
        family, family.degree, "max",
        objective=[1.0 / i for i in degrees],
        var_lo=np.zeros(max_var_degree - 1),
        var_hi=np.ones(max_var_degree - 1),
        extra_eq=[(np.ones(max_var_degree - 1), 1.0)],
    )


def build_rho_problem(lam: DegreeDistribution, eps: float,
                      max_check_degree: int) -> ConicProblem:
    """Minimize sum_j rho_j / j over check-side distributions feasible at eps."""
    eps = _check_eps(eps, allow_zero=True)
    if max_check_degree < 2:
        raise ValueError("max_check_degree must be at least 2")
    family = rho_constraint_family(lam, eps, max_check_degree)
    degrees = range(2, max_check_degree + 1)
    return assemble_sos_program(
        family, family.degree, "min",
        objective=[1.0 / j for j in degrees],
        var_lo=np.zeros(max_check_degree - 1),
        var_hi=np.full(max_check_degree - 1, np.inf),
        extra_eq=[(np.ones(max_check_degree - 1), 1.0)],
    )


def build_threshold_problem(lam: DegreeDistribution,
                            rho: DegreeDistribution) -> ConicProblem:
    """Minimize t >= 1 with t*x - lam(1 - rho(1 - x)) >= 0 on [0, 1].

    The maximum tolerable erasure probability is recovered as 1 / t*.
    """
    family = threshold_constraint_family(lam, rho)
    return assemble_sos_program(
        family, family.degree, "min",
        objective=[1.0],
        var_lo=np.array([1.0]),
        var_hi=np.array([np.inf]),
    )


def build_sos_feasibility(p: Polynomial) -> ConicProblem:
    """Feasibility program: does p admit a Gram certificate over [0, 1]?

    The lift order is deg p.
    """
    if p.degree < 0:
        raise ValueError("the zero polynomial needs no certificate")
    family = AffinePolynomialFamily((), p.padded(p.degree + 1).reshape(-1, 1))
    return assemble_sos_program(family, p.degree, "min", objective=[],
                                var_lo=np.zeros(0), var_hi=np.zeros(0))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SosCertificate:
    """Gram matrix witnessing nonnegativity of a lifted polynomial on R."""

    gram: np.ndarray
    q: int

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=np.float64)
        object.__setattr__(self, "gram", g)
        if g.shape != (self.q + 1, self.q + 1):
            raise ValueError(f"gram must be {self.q + 1}x{self.q + 1}, got {g.shape}")

    def reconstructed_coeffs(self) -> np.ndarray:
        """Antidiagonal sums, i.e. the polynomial the Gram matrix certifies."""
        d = self.q + 1
        out = np.zeros(2 * self.q + 1)
        for l in range(2 * self.q + 1):
            i = np.arange(max(0, l - self.q), min(l, self.q) + 1)
            out[l] = float(self.gram[i, l - i].sum())
        return out


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


def certificate_from_solution(problem: ConicProblem, solution, q: int) -> SosCertificate:
    """Reassemble the Gram matrix of the order-q lift from a solved SOS program.

    ``q`` is the lift order the program was built with (the block sizes fix
    only q - k, see ``assemble_sos_program``). Undoes the internal basis
    scaling and places the even and odd blocks at their monomials, shifted
    by the k factored powers, returning the (q + 1) x (q + 1) matrix B with
    Pi_l = sum_{i+j=l} B_ij in plain monomial coordinates.
    """
    blocks = solution.psd_matrices(problem)
    if not blocks:
        raise ValueError("solution carries no PSD block")
    qr = sum(problem.psd_dims) - 1
    if not 0 <= qr <= q:
        raise ValueError(f"blocks {problem.psd_dims} do not fit a lift of order {q}")
    powers, _, _ = _parity_blocks(qr)
    w = gram_basis_weights(qr)
    gram = np.zeros((q + 1, q + 1))
    for idx, block in zip(powers, blocks):
        gram[np.ix_(q - qr + idx, q - qr + idx)] = block * np.outer(w[idx], w[idx])
    return SosCertificate(gram=gram, q=q)


def verify_certificate(cert: SosCertificate, target: Polynomial) -> CertificateReport:
    """Check a Gram certificate against the polynomial it is supposed to prove.

    Verifies symmetry, positive semidefiniteness (eigenvalue floor scaled by
    the matrix norm) and that the antidiagonal sums reproduce the target
    coefficients within ``GRAM_RECONSTRUCTION_TOL`` per coefficient. The
    reconstruction tolerance is scaled by the coefficient magnitude of the
    target: lifted polynomials carry binomial-sized coefficients, so an
    absolute per-coefficient test would sit below double rounding at q ~ 30.
    """
    if target.degree > 2 * cert.q:
        raise ValueError(
            f"target degree {target.degree} exceeds certificate capacity {2 * cert.q}")
    g = cert.gram
    sym_res = float(np.max(np.abs(g - g.T), initial=0.0))
    sym = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(sym)
    min_eig = float(eigs[0])
    norm = float(max(abs(eigs[0]), abs(eigs[-1])))
    psd_ok = (min_eig >= -GRAM_PSD_TOL * (1.0 + norm)) and \
        (sym_res <= GRAM_SYMMETRY_TOL * (1.0 + norm))
    coeffs = target.padded(2 * cert.q + 1)
    residual = cert.reconstructed_coeffs() - coeffs
    max_residual = float(np.max(np.abs(residual), initial=0.0))
    coeff_scale = 1.0 + float(np.max(np.abs(coeffs), initial=0.0))
    return CertificateReport(
        psd_ok=psd_ok,
        reconstruction_ok=max_residual <= GRAM_RECONSTRUCTION_TOL * coeff_scale,
        min_eig=min_eig,
        max_residual=max_residual,
        symmetry_residual=sym_res,
    )
