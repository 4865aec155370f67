"""Dense univariate polynomials.

Coefficients are stored in the monomial basis, ascending (coeffs[k] multiplies
x**k), as double-precision floats. Trailing coefficients at or below
``TRIM_TOL`` are dropped at construction; the zero polynomial stores no
coefficients and has degree -1 by convention.

Evaluation is one Horner loop (``evaluate_many``) on a Python float or on
an array, rounding the same way on both, so a float gives the array's value
to the bit; the only arithmetic is the derivative. The library evaluates the
erasure map in composed form, on the edge polynomials themselves
(``ldpcopt.ensemble``), and never expands products or powers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

TRIM_TOL = 1e-14


class Polynomial:
    """Immutable dense univariate polynomial over the reals."""

    __slots__ = ("_c", "_desc")

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
        self._desc = tuple(self._c[::-1].tolist())

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1.0,))

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def degree(self) -> int:
        return self._c.size - 1

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        out[: self._c.size] = self._c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._c.shape == other._c.shape and bool(np.all(self._c == other._c))

    def __repr__(self) -> str:
        return f"Polynomial({list(self._c)!r})"

    # -- evaluation ------------------------------------------------------------

    def evaluate_many(self, xs):
        """Horner evaluation at each point of `xs`: acc = acc * x + c_k from
        0.0 down the coefficients.

        A Python float runs the loop on Python floats and gives a float; any
        other input runs it on a float64 array (a 0-d input gives a numpy
        scalar), in place when the array has a dimension. All round each
        multiply and add once, so the results agree to the bit.
        """
        acc = 0.0
        if type(xs) is not float:
            xs = np.asarray(xs, dtype=np.float64)
            acc = np.zeros_like(xs)
            if xs.ndim:
                for c in self._desc:
                    acc *= xs
                    acc += c
                return acc
        for c in self._desc:
            acc = acc * xs + c
        return acc

    def derivative(self) -> "Polynomial":
        if self._c.size <= 1:
            return Polynomial.zero()
        return Polynomial(self._c[1:] * np.arange(1, self._c.size))
