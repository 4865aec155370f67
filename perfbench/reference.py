"""Reference loop: how fast the host runs Python code right now.

On a shared host the same code runs up to 1.3 times slower (``design``) or
twice as slow (``threshold``) for minutes at a time, which no run of a
minute or less averages out. Workloads made of many short ops therefore
rescale each pass to a host on which one reference sample takes
``NOMINAL_S``:

    scaled pass = pass time * NOMINAL_S / mean(reference samples of the pass)

The samples of a pass are taken just before and just after each of its ops;
pairing a pass with samples around it follows the host more closely than
one factor for the whole run. The sample is a pure-Python Horner loop, the
same kind of work as the ``python`` DE kernels and the per-iteration Python
of the solver. It never calls ldpcopt, so a change to the program cannot
move it. It uses no BLAS either: a numpy part was tried and read up to 1.7
times slow on ``threshold``, whose BLAS threads sit idle between ops.

``lp_sweep`` is not rescaled: a pass is one 27-s op with no samples inside
it, its 1001-row LAPACK work drifts least, and this loop does not follow it.
"""

from __future__ import annotations

import time
from statistics import mean

# One sample takes about this long on an unloaded core of a 2-vCPU x86 VM;
# the constant only sets the scale of the rescaled times.
NOMINAL_S = 0.015
HORNER_CALLS = 30_000
HORNER_COEFFS = [0.1] * 8
# Samples per pass, at the least: a pass of one op gets several.
MIN_SAMPLES = 4


def _horner(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def per_point(points: int) -> int:
    """Samples at each of ``points`` places in a pass, for MIN_SAMPLES in all."""
    return -(-MIN_SAMPLES // points)


def scaled(seconds: float, samples: list) -> float:
    """``seconds`` at the reference speed, given the samples taken around it."""
    return seconds * NOMINAL_S / mean(samples)


def take(count: int) -> list:
    """Time ``count`` reference samples."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(HORNER_CALLS):
            acc += _horner(HORNER_COEFFS, 0.3)
        out.append(time.perf_counter() - t0)
    return out
