"""Erasure fixed-point simulation: the reference for tests and the kernel
probe; the library does not call it.

The iteration x <- eps * lam(1 - rho(1 - x)) runs here in plain Python; the
threshold itself is found in closed form (``de.bisect_threshold``). Each
call reads its coefficients once as Python floats (``tolist``): indexing a
numpy array inside the loop would box a numpy scalar on every operation,
and both round identically, so only the speed differs. A run's whole state
is its iterate and last step, so ``de_final`` can resume a run where an
earlier call left it instead of repeating its steps.
"""

import sys

import numpy as np

# The only implementation; benchmark reports record which kernel ran.
ACTIVE_IMPL = "python"


def _as_floats(c) -> list:
    return np.asarray(c, dtype=np.float64).tolist()


def de_final(lam_coeffs, rho_coeffs, eps, max_iters, tol, stop_below=0.0,
             start=None):
    """Erasure fixed-point iteration from x0 = eps, or resumed from `start`.

    Iterates x <- eps * lam(1 - rho(1 - x)) until the step magnitude drops
    below `tol`, the value drops below `stop_below`, or `max_iters` steps have
    been taken. Returns (final, steps, stopped_by_tol, delta_last,
    delta_prev); the two trailing step sizes let callers extrapolate a
    geometric tail.

    `start` is (x, delta_last) of a run that ended on its step budget; the
    default (eps, 0.0) is x0 itself. Resuming such an a-step run for b >= 1
    more steps returns the final iterate, stop flag and step sizes of one
    (a + b)-step run, bit for bit, and counts only the b new steps: the loop
    carries no other state.
    """
    # Both Horner recurrences run inline, acc = acc * x + c from 0.0 over the
    # coefficients in descending order, the same operations as
    # ``Polynomial.evaluate_many``.
    lam = _as_floats(lam_coeffs)[::-1]
    rho = _as_floats(rho_coeffs)[::-1]
    eps, tol, stop_below = float(eps), float(tol), float(stop_below)
    x, d_last = (eps, 0.0) if start is None else map(float, start)
    d_prev = 0.0
    steps = 0
    stopped = False
    for steps in range(1, int(max_iters) + 1):
        inner = 1.0 - x
        acc = 0.0
        for c in rho:
            acc = acc * inner + c
        y = 1.0 - acc
        acc = 0.0
        for c in lam:
            acc = acc * y + c
        xn = eps * acc
        d_prev = d_last
        d_last = xn - x
        x = xn
        # abs(d_last) < tol on every float, nan included, without the call.
        if -tol < d_last < tol:
            stopped = True
            break
        if x < stop_below:
            break
    return x, steps, stopped, d_last, d_prev


def implementations():
    """Name -> kernel module; the benchmark's kernel probe iterates over it."""
    return {"python": sys.modules[__name__]}
