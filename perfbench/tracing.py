"""Spans around the calls into each ldpcopt module, and the per-layer split.

The benchmark does not edit the library: while a ``Tracer`` is installed it
replaces the public functions the CLI calls with wrappers that record a span
(name, start, end, parent) and a few counts taken from the arguments and the
result. Spans stay in memory; ``layer_metrics`` folds one pass of them into
the ``<module>.<metric>`` numbers.

Times named ``*_s`` are inclusive: ``de.bisect_s`` contains the kernel time
of its fixed-point runs, which ``kernels.s`` reports on its own.
``cli.self_s`` is the op time not covered by any library span.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _problem_shape(problem) -> dict:
    # The orthant of the canonical form: nonnegative scalars, box shifts and
    # one slack per finite upper bound (see solver._Canonical).
    box_pairs = sum(1 for hi in problem.box_hi if math.isfinite(hi))
    return {"rows": int(problem.A.shape[0]), "gram_dim": int(problem.psd_dim),
            "orthant": int(problem.n_nonneg + problem.n_box + box_pairs)}


def _record_build(args, kwargs, problem) -> dict:
    return _problem_shape(problem)


def _record_solve(args, kwargs, solution) -> dict:
    problem = args[0] if args else kwargs["problem"]
    attrs = _problem_shape(problem)
    # history holds iterates 0..last; `iterations` is the one returned, which
    # is earlier than the last when the best-iterate fallback answered.
    attrs["iters_run"] = max(len(solution.history) - 1, 0)
    attrs["iters_returned"] = int(solution.iterations)
    attrs["status"] = solution.status
    return attrs


def _record_de_final(args, kwargs, result) -> dict:
    return {"steps": int(result[1])}


def _record_de_trace(args, kwargs, result) -> dict:
    return {"steps": int(result[0].size - 1)}


def _targets():
    """(module, attribute, span name, recorder) for every traced call site.

    The CLI binds ``solve`` and ``check_de_feasible`` by name, so its own
    bindings are wrapped next to the defining modules'.
    """
    from ldpcopt import cli, de, ensemble, kernels, solver, sos

    return [
        (sos, "build_lambda_problem", "sos.build", _record_build),
        (sos, "build_rho_problem", "sos.build", _record_build),
        (sos, "build_threshold_problem", "sos.build", _record_build),
        (sos, "certificate_from_solution", "sos.cert", None),
        (sos, "verify_certificate", "sos.cert", None),
        (solver, "solve", "solver.solve", _record_solve),
        (cli, "solve", "solver.solve", _record_solve),
        (ensemble, "check_de_feasible", "ensemble.check", None),
        (cli, "check_de_feasible", "ensemble.check", None),
        (de, "bisect_threshold", "de.bisect", None),
        (de, "build_discretized_lp", "de.lp_build", None),
        (kernels, "de_final", "kernels", _record_de_final),
        (kernels, "de_trace", "kernels", _record_de_trace),
    ]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._open: Optional[Span] = None

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(), self._open)
        self.spans.append(sp)
        self._open = sp
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open = sp.parent

    def _wrap(self, name, fn, record):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if record is not None:
                sp.attrs = record(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, record in _targets():
                # A later version may drop a binding; its layer then reads 0.
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, record))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take(self) -> list:
        """Return the spans recorded so far and start a new batch."""
        spans, self.spans = self.spans, []
        return spans


# Per-layer metrics: name -> (unit, better, the end-to-end metric each
# should move, by workload).
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "wall_s on every workload, by a negligible share"),
    "sos.build_s": ("s", "lower", "design.wall_s, design_large.wall_s"),
    "sos.cert_s": ("s", "lower", "design.wall_s, design_large.wall_s"),
    "sos.gram_dim_max": ("count", "lower", "design.wall_s, design_large.wall_s"),
    "solver.solve_s": ("s", "lower", "design.wall_s, design_large.wall_s"),
    "solver.calls": ("count", "lower", "none: fixed by the workload"),
    "solver.iters_run": ("count", "lower",
                         "design.wall_s (iters_run - iters_returned is waste)"),
    "solver.iters_returned": ("count", "lower", "design.wall_s"),
    "solver.s_per_iter": ("s", "lower", "lp_sweep.wall_s"),
    "solver.rows_max": ("count", "lower", "lp_sweep.wall_s"),
    "solver.nonoptimal": ("count", "lower", "failed_frac on every workload"),
    "solver.fallbacks": ("count", "lower", "design.wall_s (best-iterate answers)"),
    "ensemble.check_s": ("s", "lower", "design.wall_s"),
    "de.bisect_s": ("s", "lower", "threshold.wall_s"),
    "de.lp_build_s": ("s", "lower", "lp_sweep.wall_s"),
    "kernels.calls": ("count", "lower", "threshold.wall_s; 0 elsewhere"),
    "kernels.steps": ("count", "lower", "threshold.wall_s; 0 elsewhere"),
    "kernels.s": ("s", "lower", "threshold.wall_s; 0 elsewhere"),
    "kernels.steps_per_s": ("1/s", "higher", "threshold.wall_s; 0 elsewhere"),
    "trace.overhead_s": ("s", "lower", "none: cost of tracing itself"),
}


def _total(spans, name) -> float:
    return sum(sp.seconds for sp in spans if sp.name == name)


def layer_metrics(spans: list) -> dict:
    """Fold one pass of spans into the per-layer metrics (without overhead)."""
    # A call that raised has no attrs; it still counts in the times.
    solves = [sp.attrs for sp in spans if sp.name == "solver.solve" and sp.attrs]
    builds = [sp.attrs for sp in spans if sp.name == "sos.build" and sp.attrs]
    kern = [sp for sp in spans if sp.name == "kernels" and sp.attrs]
    ops = [sp for sp in spans if sp.name == "cli.op"]
    child_s = sum(sp.seconds for sp in spans if sp.parent is not None
                  and sp.parent.name == "cli.op")
    solve_s = _total(spans, "solver.solve")
    iters_run = sum(s["iters_run"] for s in solves)
    kern_s = sum(sp.seconds for sp in kern)
    steps = sum(sp.attrs["steps"] for sp in kern)
    return {
        "cli.self_s": sum(sp.seconds for sp in ops) - child_s,
        "sos.build_s": _total(spans, "sos.build"),
        "sos.cert_s": _total(spans, "sos.cert"),
        "sos.gram_dim_max": max((b["gram_dim"] for b in builds), default=0),
        "solver.solve_s": solve_s,
        "solver.calls": len(solves),
        "solver.iters_run": iters_run,
        "solver.iters_returned": sum(s["iters_returned"] for s in solves),
        "solver.s_per_iter": solve_s / iters_run if iters_run else 0.0,
        "solver.rows_max": max((s["rows"] for s in solves), default=0),
        "solver.nonoptimal": sum(1 for s in solves if s["status"] != "optimal"),
        "solver.fallbacks": sum(1 for s in solves if s["status"] == "optimal"
                                and s["iters_returned"] < s["iters_run"]),
        "ensemble.check_s": _total(spans, "ensemble.check"),
        "de.bisect_s": _total(spans, "de.bisect"),
        "de.lp_build_s": _total(spans, "de.lp_build"),
        "kernels.calls": len(kern),
        "kernels.steps": steps,
        "kernels.s": kern_s,
        "kernels.steps_per_s": steps / kern_s if kern_s > 0 else 0.0,
    }


def solve_shapes(spans: list) -> list:
    """Per-solve problem shape and iteration counts, in call order."""
    out = []
    for sp in spans:
        if sp.name != "solver.solve":
            continue
        op = sp.parent
        while op is not None and op.parent is not None:
            op = op.parent
        out.append({"op": op.attrs.get("op") if op is not None else None,
                    **sp.attrs, "s": sp.seconds})
    return out


def median_metrics(per_pass: list) -> dict:
    return {key: median(m[key] for m in per_pass) for key in per_pass[0]}
