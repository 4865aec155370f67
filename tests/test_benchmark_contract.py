"""What the benchmark harness in ``perfbench/`` reads of the package.

``perfbench/tracing.py`` wraps module bindings by name and reads a few
attributes of the problems and solutions that pass through them;
``perfbench/run.py`` reads the kernel module. The tracer skips a binding
that no longer exists, so a renamed one would make its layer read 0 with no
error: each is named here.
"""

import pytest

from ldpcopt import cli, de, ensemble, kernels, solver, sos
from ldpcopt.ensemble import DegreeDistribution

TRACED = [
    (sos, "build_lambda_problem"),
    (sos, "build_rho_problem"),
    (sos, "build_threshold_problem"),
    (sos, "verify_certificate"),
    (solver, "solve"),
    (cli, "solve"),
    (ensemble, "check_de_feasible"),
    (cli, "check_de_feasible"),
    (de, "bisect_threshold"),
    (de, "build_discretized_lp"),
    (kernels, "de_final"),
    (kernels, "implementations"),
]


@pytest.mark.parametrize("module, name", TRACED,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in TRACED])
def test_traced_binding_exists(module, name):
    assert callable(getattr(module, name, None))


def test_active_kernel_is_an_implementation():
    assert kernels.ACTIVE_IMPL in kernels.implementations()


@pytest.mark.parametrize("problem", [
    sos.build_lambda_problem(DegreeDistribution({6: 1.0}), 0.49, 7),
    de.build_discretized_lp(DegreeDistribution({5: 1.0}), 0.56, 5, 10).problem,
], ids=["sos", "grid-lp"])
def test_problem_and_solution_attributes(problem):
    # The rows, Gram dimension and orthant size of a traced solve, and its
    # iterations run and returned and status.
    assert problem.A.shape[0] == problem.b.size
    assert problem.psd_dim == max(problem.psd_dims, default=0)
    assert problem.n_nonneg > 0
    assert problem.n_box == 0 and problem.box_hi.size == 0
    sol = solver.solve(problem)
    assert sol.status == "optimal"
    assert 0 <= sol.iterations <= len(sol.history) - 1


def test_cli_looks_traced_bindings_up_when_it_runs(monkeypatch, capsys):
    # The tracer sets its wrappers on the modules after ``cli`` is imported;
    # a command must call them, not bindings it took earlier.
    calls = []
    for module, name in [(sos, "build_lambda_problem"), (sos, "verify_certificate"),
                         (cli, "solve"), (cli, "check_de_feasible")]:
        def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    code = cli.main(["optimize-lambda", "--rho", '{"6": 1.0}', "--epsilon", "0.49",
                     "--max-var-degree", "7"])
    capsys.readouterr()
    assert code == 0
    assert sorted(calls) == ["build_lambda_problem", "check_de_feasible", "solve",
                             "verify_certificate"]


def test_working_set_goes_through_traced_bindings(monkeypatch, capsys):
    # At Dv = 14 the first rung answers: its program is built by the traced
    # builder and solved by the tracer's solve binding, so that perfbench
    # charges them to sos.build and solver.solve. Pricing it solves nothing.
    builds, solves = [], []
    real_build, real_solve = sos.build_lambda_problem, cli.solve

    def build(*args):
        builds.append(args[2])
        return real_build(*args)

    def solve(problem, **kwargs):
        solves.append(problem.psd_dims)
        return real_solve(problem, **kwargs)

    monkeypatch.setattr(sos, "build_lambda_problem", build)
    monkeypatch.setattr(cli, "solve", solve)
    code = cli.main(["optimize-lambda", "--rho", '{"6": 1.0}', "--epsilon", "0.48",
                     "--max-var-degree", "14"])
    capsys.readouterr()
    assert code == 0
    assert builds == [8]
    # The rung's Gram blocks (deg P / x = 34), and no other program.
    assert solves == [(18, 17)]
