"""Independent oracles the tests compare the library against.

Each is written without the code path it checks: the multinomial theorem
against ``Polynomial.powers``, the expanded decoding polynomial
``de_polynomial`` against the lambda family of ``sos`` (and a binomial
closed form against it), and a dense sampling of both sides against the
[0, 1] -> R lift of ``sos.lift_to_real_line``.
"""

import math
from typing import Sequence

import numpy as np

from ldpcopt.poly import Polynomial
from ldpcopt.sos import check_map, lift_to_real_line, without_constant_term


def de_polynomial(lam, rho, eps: float) -> Polynomial:
    """P(x) = x - lam(1 - rho(1 - eps*x)) with the constant term forced to 0.

    `lam` and `rho` are edge-perspective degree distributions (see
    ``ensemble.DegreeDistribution``). P is expanded by composing lam with
    the check map, not by summing the lambda family's powers of psi. P(0)
    vanishes identically because rho(1) = 1; the tiny floating residue of
    the computed constant term is removed by ``without_constant_term``.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    p = Polynomial((0.0, 1.0)).sub(lam.edge_polynomial().compose(check_map(rho, eps)))
    return Polynomial(without_constant_term(p.coeffs))


def multinomial_power_coefficients(base: Sequence[float], k: int) -> np.ndarray:
    """Coefficients of (a1*x + ... + an*x^n)**k via the multinomial theorem.

    `base[l-1]` is the coefficient a_l of x**l (no constant term). This stays
    independent of ``Polynomial.powers`` (no convolutions) so the two can be
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


def lift_preserves_nonnegativity_check(p: Polynomial, q: int, n_grid: int = 4001) -> bool:
    """Test helper: do p on [0, 1] and its lift on R agree about nonnegativity?

    The line is sampled through the substitution x = sqrt(t/(1-t)), which maps
    a uniform t-grid on [0, 1) onto the whole nonnegative axis (the lift is
    even, so the negative axis adds nothing).
    """
    pi = lift_to_real_line(p, q)
    ts = np.linspace(0.0, 1.0, n_grid)
    min_p = float(np.min(p.evaluate_many(ts)))
    ts_open = ts[:-1]
    xs = np.sqrt(ts_open / (1.0 - ts_open))
    min_pi = float(np.min(pi.evaluate_many(xs)))
    tol = 1e-12
    return (min_p >= -tol) == (min_pi >= -tol)
