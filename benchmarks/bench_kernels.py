#!/usr/bin/env python3
"""Benchmark the compiled erasure fixed-point kernels against the pure-Python
fallback, then time threshold bisection with the active kernel.

The fixed-point iteration is the only sequential hot loop in the package (it
dominates threshold bisection); everything else is vectorized linear algebra.
The bisection rows count threshold-predicate calls, kernel runs and kernel
steps, so the predicate's cost shows without a tracer.
Run as:  python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from ldpcopt import de, kernels
from ldpcopt.ensemble import DegreeDistribution

WORKLOADS = [
    # (label, lam taps, rho taps, eps, max_iters)
    ("near-threshold regular pair", {3: 1.0}, {6: 1.0}, 0.4294, 300_000),
    ("stability-limited mix", {2: 0.52, 3: 0.15, 5: 0.33}, {4: 1.0}, 0.6399, 300_000),
    ("fast convergence", {3: 1.0}, {6: 1.0}, 0.30, 300_000),
]

BISECTIONS = [
    # (label, lam taps, rho taps)
    ("regular (3,6) pair", {3: 1.0}, {6: 1.0}),
    ("four-tap type MB", {2: 0.4167, 3: 0.1667, 4: 0.1000, 8: 0.3176}, {6: 1.0}),
]


def _coeffs(taps):
    return DegreeDistribution(taps).edge_polynomial().coeffs


def time_call(fn, *args, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    impls = kernels.implementations()
    print(f"active implementation: {kernels.ACTIVE_IMPL}")
    if "compiled" not in impls:
        print("compiled kernels unavailable; timing the fallback only")

    header = f"{'workload':34s} {'impl':9s} {'steps':>8s} {'time':>10s} {'steps/s':>12s}"
    print(header)
    print("-" * len(header))
    for label, lam_taps, rho_taps, eps, max_iters in WORKLOADS:
        lam = np.ascontiguousarray(_coeffs(lam_taps))
        rho = np.ascontiguousarray(_coeffs(rho_taps))
        rows = {}
        for name, impl in impls.items():
            elapsed, out = time_call(impl.de_final, lam, rho, eps,
                                     max_iters, 0.0, 1e-10)
            steps = out[1]
            rows[name] = elapsed
            print(f"{label:34s} {name:9s} {steps:8d} {elapsed * 1e3:8.2f}ms "
                  f"{steps / elapsed:12.3g}")
        if len(rows) == 2:
            print(f"{'':34s} speedup: {rows['python'] / rows['compiled']:.1f}x")

    print()
    header = (f"{'bisection':34s} {'threshold':>10s} {'predicate':>9s} "
              f"{'runs':>6s} {'steps':>9s} {'time':>10s}")
    print(header)
    print("-" * len(header))
    for label, lam_taps, rho_taps in BISECTIONS:
        threshold, elapsed, counts = count_bisection(lam_taps, rho_taps)
        print(f"{label:34s} {threshold:>10.7f} {counts['predicate']:9d} "
              f"{counts['runs']:6d} {counts['steps']:9d} {elapsed * 1e3:8.2f}ms")


def count_bisection(lam_taps, rho_taps):
    """Run `de.bisect_threshold` once with counting wrappers around the
    predicate and the kernel; returns (threshold, seconds, counts)."""
    counts = {"predicate": 0, "runs": 0, "steps": 0}
    predicate, de_final = de._converges_to_zero, kernels.de_final

    def counting_predicate(*args):
        counts["predicate"] += 1
        return predicate(*args)

    def counting_de_final(*args):
        out = de_final(*args)
        counts["runs"] += 1
        counts["steps"] += out[1]
        return out

    lam = DegreeDistribution(lam_taps, normalize=True)
    rho = DegreeDistribution(rho_taps, normalize=True)
    de._converges_to_zero, kernels.de_final = counting_predicate, counting_de_final
    try:
        t0 = time.perf_counter()
        threshold = de.bisect_threshold(lam, rho)
        elapsed = time.perf_counter() - t0
    finally:
        de._converges_to_zero, kernels.de_final = predicate, de_final
    return threshold, elapsed, counts


if __name__ == "__main__":
    main()
