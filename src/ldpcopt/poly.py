"""Dense univariate polynomial arithmetic.

Coefficients are stored in the monomial basis, ascending (coeffs[k] multiplies
x**k), as double-precision floats. Trailing coefficients at or below
``TRIM_TOL`` are dropped at construction; the zero polynomial stores no
coefficients and has degree -1 by convention.

The module also builds the decoding-success polynomial of an ensemble,

    P(x) = x - lam(1 - rho(1 - eps * x)),

whose nonnegativity on [0, 1] is the zero-erasure condition used throughout
the package, plus two combinatorial closed forms that the tests use as
independent oracles for ``power`` and ``de_polynomial``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import kernels

TRIM_TOL = 1e-14

# The constant term of P(x) must vanish identically (the iteration map fixes
# zero). Construction asserts the computed constant is below this before
# zeroing it; anything larger indicates an invalid degree distribution.
CONSTANT_TERM_TOL = 1e-12


class Polynomial:
    """Immutable dense univariate polynomial over the reals."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[float] = ()):
        if not isinstance(coeffs, np.ndarray):
            coeffs = tuple(coeffs)
        c = np.asarray(coeffs, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        n = c.size
        while n > 0 and abs(c[n - 1]) <= TRIM_TOL:
            n -= 1
        self._c = c[:n].copy()
        self._c.flags.writeable = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1.0,))

    @staticmethod
    def identity() -> "Polynomial":
        """The polynomial x."""
        return Polynomial((0.0, 1.0))

    @staticmethod
    def monomial(k: int, coeff: float = 1.0) -> "Polynomial":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = np.zeros(k + 1)
        c[k] = coeff
        return Polynomial(c)

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def degree(self) -> int:
        return self._c.size - 1

    def coeff(self, k: int) -> float:
        """Coefficient of x**k (0.0 beyond the stored degree)."""
        if 0 <= k < self._c.size:
            return float(self._c[k])
        return 0.0

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        out[: self._c.size] = self._c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._c.shape == other._c.shape and bool(np.all(self._c == other._c))

    def __hash__(self):
        return hash(self._c.tobytes())

    def __repr__(self) -> str:
        return f"Polynomial({list(self._c)!r})"

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x: float) -> float:
        """Horner evaluation at a scalar point (deterministic bit-for-bit)."""
        return kernels.horner(self._c, x)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Horner evaluation on an array of points (same recurrence order)."""
        xs = np.asarray(xs, dtype=np.float64)
        acc = np.zeros_like(xs)
        for k in range(self._c.size - 1, -1, -1):
            acc = acc * xs + self._c[k]
        return acc

    # -- arithmetic ------------------------------------------------------------

    def add(self, other: "Polynomial") -> "Polynomial":
        n = max(self._c.size, other._c.size)
        return Polynomial(self.padded(n) + other.padded(n))

    def sub(self, other: "Polynomial") -> "Polynomial":
        n = max(self._c.size, other._c.size)
        return Polynomial(self.padded(n) - other.padded(n))

    def scale(self, s: float) -> "Polynomial":
        return Polynomial(self._c * float(s))

    def mul(self, other: "Polynomial") -> "Polynomial":
        if self._c.size == 0 or other._c.size == 0:
            return Polynomial.zero()
        return Polynomial(np.convolve(self._c, other._c))

    def power(self, k: int) -> "Polynomial":
        """k-th power by repeated multiplication; power(p, 0) is 1."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        out = Polynomial.one()
        for _ in range(k):
            out = out.mul(self)
        return out

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)) by Horner-style accumulation."""
        out = Polynomial.zero()
        for k in range(self._c.size - 1, -1, -1):
            out = out.mul(inner).add(Polynomial((self._c[k],)))
        return out

    def derivative(self) -> "Polynomial":
        if self._c.size <= 1:
            return Polynomial.zero()
        return Polynomial(self._c[1:] * np.arange(1, self._c.size))

    def __add__(self, other):
        return self.add(other) if isinstance(other, Polynomial) else NotImplemented

    def __sub__(self, other):
        return self.sub(other) if isinstance(other, Polynomial) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self.mul(other)
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        return self.power(k)


# -- decoding-success polynomial ------------------------------------------------

def de_polynomial(lam, rho, eps: float) -> Polynomial:
    """P(x) = x - lam(1 - rho(1 - eps*x)) with the constant term forced to 0.

    `lam` and `rho` are edge-perspective degree distributions (see
    ``ensemble.DegreeDistribution``). P(0) vanishes identically because
    rho(1) = 1; the tiny floating residue of the computed constant term is
    asserted below ``CONSTANT_TERM_TOL`` and then removed so that downstream
    equality constraints are exactly consistent.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    inner = Polynomial((1.0,)).sub(
        rho.edge_polynomial().compose(Polynomial((1.0, -eps)))
    )
    p = Polynomial.identity().sub(lam.edge_polynomial().compose(inner))
    return _without_constant_term(p)


def _without_constant_term(p: Polynomial) -> Polynomial:
    c0 = p.coeff(0)
    if abs(c0) > CONSTANT_TERM_TOL:
        raise ValueError(
            f"constant term {c0!r} exceeds {CONSTANT_TERM_TOL}; "
            "degree distribution is not normalized"
        )
    c = p.padded(p.degree + 1) if p.degree >= 0 else np.zeros(0)
    if c.size:
        c[0] = 0.0
    return Polynomial(c)


# -- combinatorial oracles -------------------------------------------------------

def multinomial_power_coefficients(base: Sequence[float], k: int) -> np.ndarray:
    """Coefficients of (a1*x + ... + an*x^n)**k via the multinomial theorem.

    `base[l-1]` is the coefficient a_l of x**l (no constant term). This stays
    independent of ``Polynomial.power`` (no convolutions) so the two can be
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
