#!/usr/bin/env python3
"""Time the interior-point solver on the design programs, split by phase.

Builds the 11 SOS programs of the benchmark's ``design`` workload, the
README's (3, 6) threshold program, a check-side design at eps = 0.95 that
the solver has failed on, and four large designs (rho = x^5, eps = 0.48,
Dv = 26, 34, 40 and 52) through ``ldpcopt.sos`` and solves each with
``ldpcopt.solver.solve``. The solver is
not edited: while a pass runs, its private per-iteration methods are wrapped
from outside with timers, and each call is charged to one phase:

- scaling: ``_Scaling.__init__`` (NT scaling of every block: one stacked
  Cholesky call and one stacked SVD call);
- kkt: ``_KKT.__init__`` (the rows under the scaling, their Gram matrix
  and its Cholesky factor, the one factorization of an iteration);
- directions: ``_KKT.solve_normal`` and ``_Scaling._apply`` (every scaled
  cone product, including the scaling of the step search's input);
- step: ``_Scaling.max_step`` (ratio test and one call for the block
  eigenvalues of both directions);
- other: the rest of ``solve`` (residuals, set-up, polish, final check).

A wrapped call made inside another (``_KKT.__init__`` scales c) is charged
to the outer one. Each program's solve runs ``PASSES`` times
(``LARGE_PASSES`` for the large designs, about 2 s each at Dv = 52); the
table shows the median pass. The process's peak resident set size
(``ru_maxrss``) is printed after the standard programs and again after the
large ones. Run as:  python benchmarks/bench_solver.py

A first table, printed before the timings, gives each program's status,
iteration count and the first 12 hex digits of the SHA-1 of its answer: the
named decision variables followed by the PSD blocks, which leaves out any
slack the builder adds. Two versions of the solver take bit-identical steps
on these programs when that table is the same for both:

    diff <(python benchmarks/bench_solver.py | sed -n '1,/^$/p') \
         <(PYTHONPATH=other/src python benchmarks/bench_solver.py | sed -n '1,/^$/p')
"""

import hashlib
import resource
import time

import numpy as np

from ldpcopt import solver, sos
from ldpcopt.ensemble import DegreeDistribution

PASSES = 7
LARGE_PASSES = 3

# (name, family, fixed distribution, eps, maximum degree), as in the design
# workload of perfbench/workloads.py; the threshold program takes (lambda,
# rho) instead, and its t >= 1 covers a nonzero lower bound.
PROGRAMS = [
    ("check4_eps064", "lambda", {4: 1.0}, 0.64, 5),
    ("check6_eps049", "lambda", {6: 1.0}, 0.49, 7),
    ("check7_eps038", "lambda", {7: 1.0}, 0.38, 5),
    ("check8_eps033", "lambda", {8: 1.0}, 0.33, 5),
    ("anomalous_dv7", "lambda", {5: 1.0}, 0.56, 7),
    ("two_tap", "lambda", {6: 0.48555, 7: 0.51445}, 0.45, 7),
    ("rho_regular_3", "rho", {3: 1.0}, 0.4294, 6),
    ("check6_eps048_dv10", "lambda", {6: 1.0}, 0.48, 10),
    ("check6_eps048_dv12", "lambda", {6: 1.0}, 0.48, 12),
    ("check6_eps048_dv14", "lambda", {6: 1.0}, 0.48, 14),
    ("check4_eps06_dv20", "lambda", {4: 1.0}, 0.6, 20),
    ("threshold_3_6", "threshold", {3: 1.0}, {6: 1.0}),
    ("rho_dv7_eps095", "rho", {7: 0.7035163711045316, 2: 0.2964836288954685}, 0.95, 7),
]
LARGE_PROGRAMS = [(f"check6_eps048_dv{dv}", "lambda", {6: 1.0}, 0.48, dv)
                  for dv in (26, 34, 40, 52)]

PHASES = {
    "scaling": [(solver._Scaling, "__init__")],
    "kkt": [(solver._KKT, "__init__")],
    "directions": [(solver._KKT, "solve_normal"), (solver._Scaling, "_apply")],
    "step": [(solver._Scaling, "max_step")],
}


def build(family, fixed, *args):
    dist = DegreeDistribution(fixed, normalize=True)
    if family == "threshold":
        return sos.build_threshold_problem(dist, DegreeDistribution(args[0]))
    builder = sos.build_lambda_problem if family == "lambda" else sos.build_rho_problem
    return builder(dist, *args)


def answer_digest(problem, sol) -> str:
    """First 12 hex digits of the SHA-1 of the decision variables and the
    PSD blocks of a solution ('-' when there is none)."""
    if sol.x is None:
        return "-"
    x = np.concatenate([sol.x[: len(problem.var_names)], sol.x[problem.n_scalars:]])
    return hashlib.sha1(x.tobytes()).hexdigest()[:12]


class PhaseTimer:
    """Charges the time of each wrapped call to its phase; nested wrapped
    calls are charged to the outermost one."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._depth = 0
        self._saved = []

    def _wrap(self, phase, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds[phase] += time.perf_counter() - t0
        return timed

    def __enter__(self):
        for phase, targets in PHASES.items():
            for cls, name in targets:
                fn = getattr(cls, name)
                self._saved.append((cls, name, fn))
                setattr(cls, name, self._wrap(phase, fn))
        return self

    def __exit__(self, *exc):
        for cls, name, fn in reversed(self._saved):
            setattr(cls, name, fn)
        self._saved.clear()


def time_program(problem, n_passes):
    """(iterations, median pass: total seconds and seconds by phase)."""
    passes = []
    for _ in range(n_passes):
        with PhaseTimer() as timer:
            t0 = time.perf_counter()
            sol = solver.solve(problem)
            total = time.perf_counter() - t0
        split = dict(timer.seconds)
        split["other"] = total - sum(split.values())
        passes.append((total, split))
    total, split = sorted(passes, key=lambda p: p[0])[len(passes) // 2]
    return len(sol.history) - 1, total, split


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    # The large programs are built only once the standard ones are solved,
    # so that the first peak is theirs alone.
    problems, peaks = [], []
    print(f"{'program':20s} {'status':>8s} {'iters':>5s} {'x sha1':>12s}")
    for specs, n_passes in ((PROGRAMS, PASSES), (LARGE_PROGRAMS, LARGE_PASSES)):
        for name, *spec in specs:
            problem = build(*spec)
            sol = solver.solve(problem)
            print(f"{name:20s} {sol.status:>8s} {len(sol.history) - 1:5d} "
                  f"{answer_digest(problem, sol):>12s}")
            problems.append((name, problem, n_passes))
        peaks.append(peak_rss_mb())
    print()

    phases = list(PHASES) + ["other"]
    header = (f"{'program':20s} {'rows':>4s} {'blocks':>7s} {'iters':>5s} "
              f"{'ms':>7s} {'ms/iter':>7s} " + " ".join(f"{p:>10s}" for p in phases))
    print(header)
    print("-" * len(header))
    iters_all, total_all = 0, 0.0
    split_all = dict.fromkeys(phases, 0.0)
    for name, problem, n_passes in problems:
        iters, total, split = time_program(problem, n_passes)
        iters_all += iters
        total_all += total
        for p in phases:
            split_all[p] += split[p]
        blocks = "/".join(str(d) for d in problem.psd_dims)
        print(f"{name:20s} {problem.A.shape[0]:4d} {blocks:>7s} {iters:5d} "
              f"{total * 1e3:7.2f} {total / iters * 1e3:7.3f} "
              + " ".join(f"{split[p] / iters * 1e3:10.3f}" for p in phases))
    print("-" * len(header))
    print(f"{'all (ms per iter)':20s} {'':4s} {'':>7s} {iters_all:5d} "
          f"{total_all * 1e3:7.2f} {total_all / iters_all * 1e3:7.3f} "
          + " ".join(f"{split_all[p] / iters_all * 1e3:10.3f}" for p in phases))
    print()
    print(f"peak RSS {peaks[0]:.1f} MB after the standard programs, "
          f"{peaks[1]:.1f} MB after the large programs")


if __name__ == "__main__":
    main()
