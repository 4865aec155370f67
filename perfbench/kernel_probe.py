"""Fixed-point kernel probe: the three cases of ``benchmarks/bench_kernels.py``.

Each case runs ``de_final`` once per implementation that
``ldpcopt.kernels.implementations()`` exposes. The twins perform the same
IEEE-754 operations in the same order, so a case fails when any
implementation's result differs from the pure-Python reference's.
"""

from __future__ import annotations

import time

import numpy as np

from ldpcopt import kernels
from ldpcopt.ensemble import DegreeDistribution

# (label, lam taps, rho taps, eps, max_iters)
CASES = [
    ("near_threshold", {3: 1.0}, {6: 1.0}, 0.4294, 300_000),
    ("stability_limited", {2: 0.52, 3: 0.15, 5: 0.33}, {4: 1.0}, 0.6399, 300_000),
    ("fast_convergence", {3: 1.0}, {6: 1.0}, 0.30, 300_000),
]


def _coeffs(taps):
    return np.ascontiguousarray(DegreeDistribution(taps).edge_polynomial().coeffs)


def probe_pass() -> list:
    """One pass over every case and implementation.

    Returns rows ``{"case", "impl", "steps", "s", "failure"}``.
    """
    impls = kernels.implementations()
    rows = []
    for label, lam_taps, rho_taps, eps, max_iters in CASES:
        lam, rho = _coeffs(lam_taps), _coeffs(rho_taps)
        reference = None
        for name, impl in impls.items():
            t0 = time.perf_counter()
            out = impl.de_final(lam, rho, eps, max_iters, 0.0, 1e-10)
            seconds = time.perf_counter() - t0
            if reference is None:
                reference = out
            rows.append({"case": label, "impl": name, "steps": int(out[1]),
                         "s": seconds,
                         "failure": None if out == reference else "wrong-answer"})
    return rows
