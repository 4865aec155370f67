"""Independent oracles the tests compare the library against.

Each is written without the code path it checks: the multinomial theorem
against ``powers``, the expanded decoding polynomial ``de_polynomial``
against the composed lambda family of ``sos`` (and a binomial closed form
against it), and the dense svec constraint columns ``dense_congruence``
against the solver's products on rank-one PSD terms. The monomial arithmetic below (sums, products, powers,
composition) has no caller in the library, which evaluates everything in
composed form.
"""

import math
from typing import Sequence

import numpy as np

from ldpcopt.poly import Polynomial
from ldpcopt.solver import svec

# The constant term of the expanded decoding polynomial is floating residue
# of rho(1) = 1 and must stay below this before it is zeroed.
CONSTANT_TERM_TOL = 1e-12


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    n = max(p.degree, q.degree) + 1
    return Polynomial(p.padded(n) + q.padded(n))


def sub(p: Polynomial, q: Polynomial) -> Polynomial:
    n = max(p.degree, q.degree) + 1
    return Polynomial(p.padded(n) - q.padded(n))


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.degree < 0 or q.degree < 0:
        return Polynomial.zero()
    return Polynomial(np.convolve(p.coeffs, q.coeffs))


def powers(p: Polynomial, k: int) -> list:
    """[p, p**2, ..., p**k], each the previous one times p."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    out = [Polynomial.one()]
    for _ in range(k):
        out.append(mul(out[-1], p))
    return out[1:]


def compose(p: Polynomial, inner: Polynomial) -> Polynomial:
    """p(inner(x)) by Horner-style accumulation."""
    out = Polynomial.zero()
    for c in p.coeffs[::-1]:
        out = add(mul(out, inner), Polynomial((c,)))
    return out


def de_polynomial(lam, rho, eps: float) -> Polynomial:
    """P(x) = x - lam(1 - rho(1 - eps*x)) with the constant term forced to 0.

    `lam` and `rho` are edge-perspective degree distributions (see
    ``ensemble.DegreeDistribution``). P is expanded by composing lam with
    the check map psi(x) = 1 - rho(1 - eps*x), not by summing the lambda
    family's powers of psi. P(0) vanishes identically because rho(1) = 1;
    the tiny floating residue of the computed constant term is removed.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    check = sub(Polynomial.one(), compose(rho.edge_polynomial(), Polynomial((1.0, -eps))))
    p = sub(Polynomial((0.0, 1.0)), compose(lam.edge_polynomial(), check))
    coeffs = np.array(p.coeffs)
    c0 = float(np.max(np.abs(coeffs[:1]), initial=0.0))
    if c0 > CONSTANT_TERM_TOL:
        raise ValueError(f"constant term {c0!r} exceeds {CONSTANT_TERM_TOL}; "
                         "degree distribution is not normalized")
    coeffs[:1] = 0.0
    return Polynomial(coeffs)


def multinomial_power_coefficients(base: Sequence[float], k: int) -> np.ndarray:
    """Coefficients of (a1*x + ... + an*x^n)**k via the multinomial theorem.

    `base[l-1]` is the coefficient a_l of x**l (no constant term). This stays
    independent of ``powers`` (no convolutions) so the two can be
    cross-checked against each other.
    """
    a = [float(v) for v in base]
    n = len(a)
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    out = np.zeros(n * k + 1 if n else 1)
    kfact = math.factorial(k)

    def descend(pos, remaining, weight, prod, denom):
        if pos == n - 1:
            exponent = remaining
            value = prod * (a[pos] ** exponent)
            multinomial = kfact // (denom * math.factorial(exponent))
            out[weight + (pos + 1) * exponent] += multinomial * value
            return
        for exponent in range(remaining + 1):
            value = prod * (a[pos] ** exponent)
            if value != 0.0 or exponent == 0:
                descend(pos + 1, remaining - exponent,
                        weight + (pos + 1) * exponent,
                        value, denom * math.factorial(exponent))

    if n == 0:
        out[0] = 1.0 if k == 0 else 0.0
        return out
    descend(0, k, 0, 1.0, 1)
    return out


def de_coefficients_monomial_rho(lam, n: int, eps: float) -> np.ndarray:
    """Closed-form coefficients of P(x) when rho(x) = x**n.

    With a monomial check polynomial, 1 - rho(1 - eps*x) expands by the
    binomial theorem to sum_{l=1}^{n} (-1)**(l+1) C(n,l) eps**l x**l, and each
    lam_i term contributes its (i-1)-th multinomial power. The result is an
    independent oracle for ``de_polynomial``; in particular the linear
    coefficient is 1 - lam_2 * n * eps.
    """
    if n < 1:
        raise ValueError("monomial power must be >= 1")
    eps = float(eps)
    base = [(-1.0) ** (l + 1) * math.comb(n, l) * eps**l for l in range(1, n + 1)]
    taps = dict(lam.items())
    max_degree = max(taps)
    out = np.zeros(n * (max_degree - 1) + 1)
    out[1] = 1.0
    for i, coeff in taps.items():
        psi = multinomial_power_coefficients(base, i - 1)
        out[: psi.size] -= coeff * psi
    return out


def dense_congruence(problem, w_orth, factors=None) -> np.ndarray:
    """The scaled constraint matrix of ``problem`` written out densely, one
    column per equality row r: w_orth * A[r] on the scalars, then
    svec(R_k' P_rk R_k) on each PSD block k, with P_rk summed term by term
    from ``psd_rows`` and R_k = factors[k] (the identity when omitted)."""
    p = problem.b.size
    cols = [problem.A.T * np.asarray(w_orth)[:, None]]
    for k, (d, (rows, g, V)) in enumerate(zip(problem.psd_dims, problem.psd_rows)):
        mats = np.zeros((p, d, d))
        for r, gt, v in zip(rows, g, V.T):
            mats[r] += gt * np.outer(v, v)
        if factors is not None:
            mats = factors[k].T @ mats @ factors[k]
        cols.append(svec(0.5 * (mats + mats.transpose(0, 2, 1))).T)
    return np.vstack(cols)


def critical_points_64(slopes, scan_points: int) -> list:
    """Roots in (0, 1) of `slopes` by the array bisection of
    ``ensemble._critical_points`` with all 64 halvings always taken: the
    reference for its early stop, which must return the same roots to the
    bit."""
    xs = np.linspace(0.0, 1.0, scan_points)
    dv = slopes(xs)
    k = np.flatnonzero((dv[:-1] == 0.0) | (dv[:-1] * dv[1:] < 0.0))
    if not k.size:
        return []
    on_zero = dv[k] == 0.0
    a, b, fa = xs[k], xs[k + 1], dv[k]
    for _ in range(64):
        m = 0.5 * (a + b)
        fm = slopes(m)
        left = fa * fm < 0.0
        b = np.where(left | (fm == 0.0), m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
    roots = np.where(on_zero, xs[k], 0.5 * (a + b))
    return [r for r in roots.tolist() if 0.0 < r < 1.0]
