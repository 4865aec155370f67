#!/usr/bin/env python3
"""A 1-ulp census: does each program end in one solver status under
rounding-level changes of its input?

Each program is solved four ways:

- ``eps``: as ``bench_solver.py`` builds it;
- ``-ulp`` and ``+ulp``: at the erasure probability one ulp below and one
  above (``np.nextafter``). A threshold program has no erasure probability;
  its ``-ulp`` and ``+ulp`` move every entry of its node table's fixed
  column, the sampled lam(1 - rho(1 - x)) / x, by one ulp down and up;
- ``reversed``: as built, with its equality rows in reverse order (A, b and
  every PSD term's row, the terms reordered with them).

A program whose four statuses differ is a flip: its outcome turns on
rounding, and the north star forbids that on the benchmark grids. The
programs are ``bench_solver.PROGRAMS``: the 11 programs of the benchmark's
``design`` workload, the full programs of its four ops with Dv > 8, the
(3, 6) threshold program and the check-side design at eps = 0.95. The
fast census (those programs, in this process) runs in tier-1 as
``tests/test_census.py``.

The full census also solves a seeded sample of the A8 threshold programs
(``A8_SAMPLE`` pairs of the generator of ``tests/test_acceptance.py``,
seed 42: its whole set), and runs everything twice, in subprocesses at 1 and at 2 BLAS
threads. It prints each program's status (a flip shows every way's, by
its first letter), its iterations run under every way (in the order eps,
-ulp, +ulp, reversed) and thread count,
and the largest objective spread among its optimal answers, then a summary
line: the flips and, at each thread count, the iterations run at ``eps``
summed over all programs. It exits 1 if any program flips. Run as:

    python benchmarks/census.py

It takes about 10 s on a 2-vCPU host.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np

from bench_solver import PROGRAMS, build
from ldpcopt import solver, sos
from ldpcopt.ensemble import DegreeDistribution

WAYS = ("eps", "-ulp", "+ulp", "reversed")
BLAS_THREADS = (1, 2)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
A8_SAMPLE = 200
A8_SEED = 42


def reversed_rows(problem):
    """``problem`` with its equality rows in reverse order."""
    last = problem.b.size - 1
    return dataclasses.replace(
        problem, A=problem.A[::-1], b=problem.b[::-1],
        psd_rows=tuple((last - rows[::-1], g[::-1], V[:, ::-1])
                       for rows, g, V in problem.psd_rows))


def variants(family, fixed, *args) -> dict:
    """The program of one ``PROGRAMS`` entry built each of the four ways."""
    if family == "threshold":
        lam = DegreeDistribution(fixed, normalize=True)
        rho = DegreeDistribution(args[0], normalize=True)
        table = sos.threshold_constraint_family(lam, rho)

        def moved(direction):
            nudged = table.copy()
            nudged[:, 0] = np.nextafter(table[:, 0], direction)
            return sos.build_threshold_problem(lam, rho, nudged)
    else:
        eps, degree = args

        def moved(direction):
            return build(family, fixed, float(np.nextafter(eps, direction)), degree)
    problem = build(family, fixed, *args)
    return {"eps": problem, "-ulp": moved(-np.inf), "+ulp": moved(np.inf),
            "reversed": reversed_rows(problem)}


def a8_programs() -> list:
    """The first ``A8_SAMPLE`` (lam, rho) pairs of the A8 generator, as
    ``PROGRAMS`` entries of threshold programs."""
    rng = np.random.default_rng(A8_SEED)

    def draw(max_degree):
        degrees = list(range(2, max_degree + 1))
        weights = rng.dirichlet(np.ones(len(degrees)))
        return {d: float(w) for d, w in zip(degrees, weights) if w > 1e-12}

    out = []
    for trial in range(A8_SAMPLE):
        lam = draw(int(rng.integers(3, 8)))
        rho = draw(int(rng.integers(3, 8)))
        out.append((f"a8_{trial:03d}", "threshold", lam, rho))
    return out


def census(programs) -> dict:
    """name -> {way: (status, iterations, objective)} for each program."""
    out = {}
    for name, *spec in programs:
        sols = {way: solver.solve(p) for way, p in variants(*spec).items()}
        out[name] = {way: (s.status, len(s.history) - 1, s.objective)
                     for way, s in sols.items()}
    return out


def run_threads(threads: int) -> dict:
    """The full census in a subprocess at ``threads`` BLAS threads."""
    env = dict(os.environ, **{var: str(threads) for var in BLAS_ENV})
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main():
    programs = PROGRAMS + a8_programs()
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(census(programs)))
        return 0
    by_threads = {t: run_threads(t) for t in BLAS_THREADS}
    columns = [(t, way) for t in BLAS_THREADS for way in WAYS]
    print(f"{'program':22s} {'status':17s} {'iterations, 1 / 2 threads':26s} "
          f"{'obj spread':>10s} flip")
    flipped = 0
    for name, *_ in programs:
        cells = [by_threads[t][name][way] for t, way in columns]
        statuses = [status for status, _, _ in cells]
        flip = len(set(statuses)) > 1
        flipped += flip
        # A flip shows every way's status by its first letter.
        status = " ".join("".join(s[0] for s in statuses[i:i + len(WAYS)])
                          for i in range(0, len(cells), len(WAYS))) if flip else statuses[0]
        iters = " / ".join(" ".join(f"{cells[i + j][1]:2d}" for j in range(len(WAYS)))
                           for i in range(0, len(cells), len(WAYS)))
        objs = [obj for status, _, obj in cells if status == "optimal"]
        spread = f"{max(objs) - min(objs):10.1e}" if objs else f"{'-':>10s}"
        print(f"{name:22s} {status:17s} {iters:26s} {spread} {'FLIP' if flip else ''}")
    totals = " / ".join(str(sum(by_threads[t][name]["eps"][1] for name, *_ in programs))
                        for t in BLAS_THREADS)
    print(f"\n{len(programs)} programs, {len(WAYS)} ways at each of "
          f"{len(BLAS_THREADS)} BLAS thread counts: {flipped} flipped; "
          f"{totals} iterations run at eps, at {' / '.join(map(str, BLAS_THREADS))} threads")
    return 1 if flipped else 0


if __name__ == "__main__":
    sys.exit(main())
