#!/usr/bin/env python3
"""Time the interior-point solver on the design programs, split by phase,
or against another version of the solver.

Builds the 11 SOS programs that the benchmark's ``design`` workload
solves, the full programs of its four ops with Dv > 8, the README's (3, 6)
threshold program, a check-side design at eps = 0.95 whose status turned
on rounding while its program had no strictly feasible point, and four
large designs (rho = x^5, eps = 0.48, Dv = 26, 34, 40
and 52) through ``ldpcopt.sos`` and solves each with
``ldpcopt.solver.solve``. ``optimize-lambda`` answers those four ops
(check6_eps048_dv10/12/14, check4_eps06_dv20) on the degrees 2..8, its
first rung, and prices the others without a solve, so their design rows
are the rung-8 programs, named ``<op>@8`` (the three rho = x^5 ops solve
the same program); their full programs follow under the ops' own names,
which the workload no longer solves. The solver is
not edited: while a pass runs, its private per-iteration methods are wrapped
from outside with timers, and each call is charged to one phase:

- scaling: ``_Scaling.__init__`` (NT scaling of every block: one stacked
  Cholesky call and one stacked symmetric eigendecomposition call);
- kkt: ``_KKT.__init__`` (the rows under the scaling, their Gram matrix
  and its Cholesky factor, the one factorization of an iteration; c and
  r_d in the scaled space; the direction per unit dtau);
- directions: ``_KKT.direction`` (the predictor's and the corrector's
  scaled directions), and the scaled cone products ``_Scaling.unscale``
  (the accepted step out of the scaled space), ``_Scaling.jordan_div`` and
  ``_Scaling.jordan_mul``;
- step: ``_Scaling.max_step`` (ratio test and one call for the block
  eigenvalues of both directions);
- rows: ``_Rows.dot`` and ``_Rows.combine`` outside the phases above (the
  residuals, the dual step, the polish and the final check);
- other: the rest of ``solve`` (set-up, vector updates, the polish's
  factorizations, final check).

A wrapped call made inside another (``_KKT.__init__`` scales c, and
``_KKT.direction`` multiplies by the rows) is charged to the outer one.
Each program's solve runs ``PASSES`` times (``LARGE_PASSES`` for the large
designs, about 2 s each at Dv = 52); the table shows the median pass. The process's peak resident set size
(``ru_maxrss``) is printed after the standard programs and again after the
large ones. Run as:  python benchmarks/bench_solver.py

A first table, printed before the timings, gives each program's status,
iteration count and the first 12 hex digits of the SHA-1 of its answer: the
decision variables followed by the PSD blocks. Two versions of the solver take bit-identical steps
on these programs when that table is the same for both:

    diff <(python benchmarks/bench_solver.py | sed -n '1,/^$/p') \
         <(PYTHONPATH=other/src python benchmarks/bench_solver.py | sed -n '1,/^$/p')

Given the path of another tree's ``solver.py`` (it imports only numpy),
the script instead compares the two: it loads that file under the module
name ``other_solver``, rebuilds each program as that module's
``ConicProblem``, and alternates ``COMPARE_PASSES`` passes between the two
solvers (``LARGE_PASSES`` on the large designs), so that drift in the
machine's speed falls on both alike. It prints each program's status and
iterations under both, each side's quartiles of the pass time (q1, median,
q3, in ms), the ratio of the medians and the passes this solver won. Two
summary rows follow: the 11 design programs (each pass the sum of their
times) and the threshold program, whose solve is most of the benchmark's
``threshold`` op:

    python benchmarks/bench_solver.py other/src/ldpcopt/solver.py
"""

import dataclasses
import hashlib
import importlib.util
import resource
import statistics
import sys
import time

from ldpcopt import solver, sos
from ldpcopt.ensemble import DegreeDistribution

PASSES = 7
LARGE_PASSES = 3
# Alternated passes per program in compare mode: single passes of the small
# programs spread by more than the gains worth measuring.
COMPARE_PASSES = 21

# (name, family, fixed distribution, eps, maximum degree). The first 11 are
# the programs the design workload of perfbench/workloads.py solves, one per
# op: an op with Dv > 8 is answered by its rung-8 program. The threshold
# program takes (lambda, rho) instead.
DESIGN_PROGRAMS = 11
THRESHOLD_PROGRAM = "threshold_3_6"
PROGRAMS = [
    ("check4_eps064", "lambda", {4: 1.0}, 0.64, 5),
    ("check6_eps049", "lambda", {6: 1.0}, 0.49, 7),
    ("check7_eps038", "lambda", {7: 1.0}, 0.38, 5),
    ("check8_eps033", "lambda", {8: 1.0}, 0.33, 5),
    ("anomalous_dv7", "lambda", {5: 1.0}, 0.56, 7),
    ("two_tap", "lambda", {6: 0.48555, 7: 0.51445}, 0.45, 7),
    ("rho_regular_3", "rho", {3: 1.0}, 0.4294, 6),
    ("check6_eps048_dv10@8", "lambda", {6: 1.0}, 0.48, 8),
    ("check6_eps048_dv12@8", "lambda", {6: 1.0}, 0.48, 8),
    ("check6_eps048_dv14@8", "lambda", {6: 1.0}, 0.48, 8),
    ("check4_eps06_dv20@8", "lambda", {4: 1.0}, 0.6, 8),
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
    "directions": [(solver._KKT, "direction"), (solver._Scaling, "unscale"),
                   (solver._Scaling, "jordan_div"), (solver._Scaling, "jordan_mul")],
    "step": [(solver._Scaling, "max_step")],
    "rows": [(solver._Rows, "dot"), (solver._Rows, "combine")],
}


def build(family, fixed, *args):
    dist = DegreeDistribution(fixed, normalize=True)
    if family == "threshold":
        return sos.build_threshold_problem(dist, DegreeDistribution(args[0]))
    builder = sos.build_lambda_problem if family == "lambda" else sos.build_rho_problem
    return builder(dist, *args)


def answer_digest(sol) -> str:
    """First 12 hex digits of the SHA-1 of a solution's x, its decision
    variables and PSD blocks ('-' when there is none)."""
    if sol.x is None:
        return "-"
    return hashlib.sha1(sol.x.tobytes()).hexdigest()[:12]


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


def load_solver(path):
    """The solver module at ``path``, loaded as ``other_solver``."""
    spec = importlib.util.spec_from_file_location("other_solver", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up while defined.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def rebuild(module, problem):
    """``problem`` as the ``ConicProblem`` of another solver module."""
    return module.ConicProblem(**{f.name: getattr(problem, f.name)
                                  for f in dataclasses.fields(problem)})


def pass_summary(seconds) -> str:
    """Each side's quartiles of its pass times in ms, the ratio of the
    medians and the passes this solver (side 0) won, as one table cell."""
    q = [statistics.quantiles([t * 1e3 for t in s], n=4, method="inclusive")
         for s in seconds]
    won = sum(a < b for a, b in zip(*seconds))
    return (" ".join(f"{v:8.2f}" for v in q[0] + q[1])
            + f" {q[0][1] / q[1][1]:6.3f} {won:3d}/{len(seconds[0]):<3d}")


def compare(other):
    """Alternate passes of this solver and ``other`` on every program and
    print each side's pass quartiles and the passes won, per program and
    for the design programs and the threshold program."""
    print(f"{'program':20s} {'status':>8s} {'other':>8s} {'iters':>5s} {'other':>5s} "
          f"{'|d obj|':>8s} " + " ".join(f"{h:>8s}" for h in (
              "q1 ms", "median", "q3", "other q1", "median", "q3"))
          + f" {'ratio':>6s} {'won':>7s}")
    sums, design, threshold = [0.0, 0.0], [None, None], None
    for specs, n_passes in ((PROGRAMS, COMPARE_PASSES), (LARGE_PROGRAMS, LARGE_PASSES)):
        for index, (name, *spec) in enumerate(specs):
            problem = build(*spec)
            sides = [(solver, problem), (other, rebuild(other, problem))]
            seconds, sols = ([], []), [None, None]
            for i in range(n_passes):
                # This solver first on even passes, the other first on odd.
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    module, prob = sides[side]
                    t0 = time.perf_counter()
                    sols[side] = module.solve(prob)
                    seconds[side].append(time.perf_counter() - t0)
            sums = [a + statistics.median(s) * 1e3 for a, s in zip(sums, seconds)]
            if specs is PROGRAMS and index < DESIGN_PROGRAMS:
                design = [s if d is None else [a + b for a, b in zip(d, s)]
                          for d, s in zip(design, seconds)]
            if name == THRESHOLD_PROGRAM:
                threshold = seconds
            objs = [s.objective for s in sols]
            shift = "-" if None in objs else f"{abs(objs[0] - objs[1]):8.1e}"
            print(f"{name:20s} {sols[0].status:>8s} {sols[1].status:>8s} "
                  f"{len(sols[0].history) - 1:5d} {len(sols[1].history) - 1:5d} "
                  f"{shift:>8s} {pass_summary(seconds)}")
    print()
    blank = f"{'':>8s} {'':>8s} {'':>5s} {'':>5s} {'':>8s}"
    print(f"{f'design ({DESIGN_PROGRAMS})':20s} {blank} {pass_summary(design)}")
    print(f"{'threshold':20s} {blank} {pass_summary(threshold)}")
    print(f"{'all (sum of medians)':20s} {blank} {'':>8s} {sums[0]:8.2f} {'':>17s} "
          f"{sums[1]:8.2f} {'':>8s} {sums[0] / sums[1]:6.3f}")


def main():
    if len(sys.argv) > 1:
        compare(load_solver(sys.argv[1]))
        return
    # The large programs are built only once the standard ones are solved,
    # so that the first peak is theirs alone.
    problems, peaks = [], []
    print(f"{'program':20s} {'status':>8s} {'iters':>5s} {'x sha1':>12s}")
    for specs, n_passes in ((PROGRAMS, PASSES), (LARGE_PROGRAMS, LARGE_PASSES)):
        for name, *spec in specs:
            problem = build(*spec)
            sol = solver.solve(problem)
            print(f"{name:20s} {sol.status:>8s} {len(sol.history) - 1:5d} "
                  f"{answer_digest(sol):>12s}")
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
