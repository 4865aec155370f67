"""Erasure fixed-point kernels: the one sequential hot loop of the package.

The iteration x <- eps * lam(1 - rho(1 - x)) behind threshold bisection runs
here in plain Python. Each call reads its coefficients once as Python floats
(``tolist``): indexing a numpy array inside the loop would box a numpy scalar
on every operation, and both round identically, so only the speed differs.
"""

import sys

import numpy as np

# The only implementation; benchmark reports record which kernel ran.
ACTIVE_IMPL = "python"


def _as_floats(c) -> list:
    return np.asarray(c, dtype=np.float64).tolist()


def _horner(c: list, x: float) -> float:
    acc = 0.0
    for k in range(len(c) - 1, -1, -1):
        acc = acc * x + c[k]
    return acc


def horner(coeffs, x):
    """Horner evaluation of ascending coefficients at a scalar point."""
    return _horner(_as_floats(coeffs), float(x))


def de_trace(lam_coeffs, rho_coeffs, eps, max_iters, tol, stop_below=0.0):
    """Erasure fixed-point iteration from x0 = eps, recording every iterate.

    Iterates x <- eps * lam(1 - rho(1 - x)) until the step magnitude drops
    below `tol`, the value drops below `stop_below`, or `max_iters` steps have
    been taken. Returns (trace, stopped_by_tol) where trace is a float64 array
    that includes the starting value.
    """
    lam, rho = _as_floats(lam_coeffs), _as_floats(rho_coeffs)
    eps, tol, stop_below = float(eps), float(tol), float(stop_below)
    x = eps
    trace = [x]
    stopped = False
    for _ in range(int(max_iters)):
        inner = 1.0 - x
        r = _horner(rho, inner)
        y = 1.0 - r
        xn = eps * _horner(lam, y)
        trace.append(xn)
        delta = xn - x
        x = xn
        if abs(delta) < tol:
            stopped = True
            break
        if x < stop_below:
            break
    return np.asarray(trace, dtype=np.float64), stopped


def de_final(lam_coeffs, rho_coeffs, eps, max_iters, tol, stop_below=0.0):
    """Trace-free variant of `de_trace` for long runs.

    Returns (final, steps, stopped_by_tol, delta_last, delta_prev); the two
    trailing step sizes let callers extrapolate a geometric tail.
    """
    lam, rho = _as_floats(lam_coeffs), _as_floats(rho_coeffs)
    eps, tol, stop_below = float(eps), float(tol), float(stop_below)
    x = eps
    d_last = 0.0
    d_prev = 0.0
    steps = 0
    stopped = False
    for _ in range(int(max_iters)):
        inner = 1.0 - x
        r = _horner(rho, inner)
        y = 1.0 - r
        xn = eps * _horner(lam, y)
        d_prev = d_last
        d_last = xn - x
        x = xn
        steps += 1
        if abs(d_last) < tol:
            stopped = True
            break
        if x < stop_below:
            break
    return x, steps, stopped, d_last, d_prev


def implementations():
    """Name -> kernel module; the benchmark's kernel probe iterates over it."""
    return {"python": sys.modules[__name__]}
