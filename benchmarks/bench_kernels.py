#!/usr/bin/env python3
"""Time threshold bisection and count the work of its predicate.

The erasure fixed-point iteration is the only sequential hot loop in the
package (it dominates threshold bisection); everything else is vectorized
linear algebra. Each row counts threshold-predicate calls, kernel runs and
kernel steps, so the predicate's cost shows without a tracer, and the kernel
steps per second of run time next to them, so a faster kernel and a saving in
steps show apart. It prints the threshold as ``float.hex`` too: the output of
two versions differs outside the two timed columns only if a threshold or
the work behind it changed. The raw
kernel cases are timed by ``python3 perfbench/run.py --workload kernels``.
Run as:  python benchmarks/bench_kernels.py
"""

import time

from ldpcopt import de, kernels
from ldpcopt.ensemble import DegreeDistribution

BISECTIONS = [
    # (label, lam taps, rho taps)
    ("regular (3,6) pair", {3: 1.0}, {6: 1.0}),
    ("four-tap type MB", {2: 0.4167, 3: 0.1667, 4: 0.1000, 8: 0.3176}, {6: 1.0}),
]


def main():
    header = (f"{'bisection':34s} {'threshold':>10s} {'(hex)':>21s} "
              f"{'predicate':>9s} {'runs':>6s} {'steps':>9s} {'steps/s':>10s} "
              f"{'time':>10s}")
    print(header)
    print("-" * len(header))
    for label, lam_taps, rho_taps in BISECTIONS:
        threshold, elapsed, counts = count_bisection(lam_taps, rho_taps)
        print(f"{label:34s} {threshold:>10.7f} {threshold.hex():>21s} "
              f"{counts['predicate']:9d} {counts['runs']:6d} {counts['steps']:9d} "
              f"{counts['steps'] / counts['kernel_s']:10.4g} {elapsed * 1e3:8.2f}ms")


def count_bisection(lam_taps, rho_taps):
    """Run `de.bisect_threshold` once with counting wrappers around the
    predicate and the kernel; returns (threshold, seconds, counts), where
    counts["kernel_s"] is the time spent inside kernel runs."""
    counts = {"predicate": 0, "runs": 0, "steps": 0, "kernel_s": 0.0}
    predicate, de_final = de._converges_to_zero, kernels.de_final

    def counting_predicate(*args):
        counts["predicate"] += 1
        return predicate(*args)

    def counting_de_final(*args):
        t0 = time.perf_counter()
        out = de_final(*args)
        counts["kernel_s"] += time.perf_counter() - t0
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
