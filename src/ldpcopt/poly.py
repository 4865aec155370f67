"""Dense univariate polynomial arithmetic.

Coefficients are stored in the monomial basis, ascending (coeffs[k] multiplies
x**k), as double-precision floats. Trailing coefficients at or below
``TRIM_TOL`` are dropped at construction; the zero polynomial stores no
coefficients and has degree -1 by convention.

The module also builds the decoding-success polynomial of an ensemble,

    P(x) = x - lam(1 - rho(1 - eps * x)),

whose nonnegativity on [0, 1] is the zero-erasure condition used throughout
the package.
"""

from __future__ import annotations

from typing import Iterable

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

    def powers(self, k: int) -> list:
        """[p, p**2, ..., p**k], each the previous one times p."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        out = [Polynomial.one()]
        for _ in range(k):
            out.append(out[-1].mul(self))
        return out[1:]

    def power(self, k: int) -> "Polynomial":
        """k-th power by repeated multiplication; power(p, 0) is 1."""
        return self.powers(k)[-1] if k else Polynomial.one()

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

def check_map(rho, eps: float) -> Polynomial:
    """psi(x) = 1 - rho(1 - eps*x), the check-node half of the erasure map.

    `rho` is an edge-perspective degree distribution (see
    ``ensemble.DegreeDistribution``); psi(0) vanishes because rho(1) = 1.
    """
    return Polynomial((1.0,)).sub(
        rho.edge_polynomial().compose(Polynomial((1.0, -eps))))


def de_polynomial(lam, rho, eps: float) -> Polynomial:
    """P(x) = x - lam(1 - rho(1 - eps*x)) with the constant term forced to 0.

    `lam` and `rho` are edge-perspective degree distributions (see
    ``ensemble.DegreeDistribution``). P(0) vanishes identically because
    rho(1) = 1; the tiny floating residue of the computed constant term is
    removed by ``without_constant_term`` so that downstream equality
    constraints are exactly consistent.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    p = Polynomial.identity().sub(lam.edge_polynomial().compose(check_map(rho, eps)))
    return Polynomial(without_constant_term(p.coeffs))


def without_constant_term(coeffs: np.ndarray) -> np.ndarray:
    """Copy of `coeffs` with row 0 (the x**0 coefficients) set to zero.

    Rows are monomial powers; a 2-D table holds one column per affine
    variable. The row must be floating residue of rho(1) = 1, at most
    ``CONSTANT_TERM_TOL`` in magnitude; anything larger means a degree
    distribution that is not normalized.
    """
    c0 = float(np.max(np.abs(coeffs[:1]), initial=0.0))
    if c0 > CONSTANT_TERM_TOL:
        raise ValueError(
            f"constant term {c0!r} exceeds {CONSTANT_TERM_TOL}; "
            "degree distribution is not normalized"
        )
    out = np.array(coeffs, dtype=np.float64)
    out[:1] = 0.0
    return out
