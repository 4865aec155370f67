"""Tests for the benchmark's own answer checkers and tracer.

Run with:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as w  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def fake_main(text, code=0):
    def main(argv):
        print(text, end="")
        return code
    return main


def optimize_report(**changes):
    report = {"status": "optimal", "rate": 0.3, "delta": 0.05, "capacity": 0.52,
              "objective": w.CAP_SLACK_OBJECTIVE}
    report.update(changes)
    return json.dumps(report)


def design_op():
    return w._optimize_lambda("dv10", {6: 1.0}, 0.48, 10,
                              objective=w.CAP_SLACK_OBJECTIVE)


def test_exact_objective_passes():
    assert w.run_op(fake_main(optimize_report()), design_op()).failure is None


@pytest.mark.parametrize("shift", [2e-8, -2e-8, 1e-3])
def test_perturbed_objective_fails(shift):
    text = optimize_report(objective=w.CAP_SLACK_OBJECTIVE + shift)
    assert w.run_op(fake_main(text), design_op()).failure == w.WRONG


def test_rate_above_capacity_fails():
    text = optimize_report(rate=0.52 + 1e-5)
    assert w.run_op(fake_main(text), design_op()).failure == w.WRONG


def test_raised_exception_fails_with_its_type():
    def main(argv):
        raise TypeError("loop of ufunc does not support argument 0")
    outcome = w.run_op(main, design_op())
    assert outcome.failure == "exception:TypeError"


def test_nonzero_exit_fails_with_its_code():
    text = optimize_report(status="numerical-failure")
    assert w.run_op(fake_main(text, 3), design_op()).failure == "exit:3"


def test_verification_failed_report_fails():
    report = json.loads(optimize_report())
    report["status"] = "verification-failed"
    text = json.dumps(report, indent=2, sort_keys=True)
    assert w.run_op(fake_main(text, 3), design_op()).failure == w.VERIFICATION_FAILED


def test_unparseable_report_fails():
    assert w.run_op(fake_main("not json"), design_op()).failure == w.WRONG


SWEEP_HEADER = "N,rate,objective,lambda_2,lambda_3,lambda_4,lambda_5,status\n"


def sweep_csv(rates, lam4=0.0):
    lines = [SWEEP_HEADER]
    for n, rate in zip((10, 50, 100, 500, 1000), rates):
        lines.append(f"{n},{rate},0.4,0.5,0.2,{lam4},0.3,optimal\n")
    lines.append("inf,0.41,0.4,0.5,0.2,0,0.3,optimal\n")
    return "".join(lines)


def test_monotone_sweep_passes():
    assert w.check_sweep(sweep_csv([0.43, 0.42, 0.415, 0.412, 0.411])) is None


def test_non_monotone_sweep_fails():
    op = w.lp_sweep_ops()[0]
    text = sweep_csv([0.43, 0.42, 0.425, 0.412, 0.411])
    assert w.run_op(fake_main(text), op).failure == w.WRONG


@pytest.mark.parametrize("rates,lam4", [
    ([0.43, 0.42, 0.415, 0.412, 0.4099], 0.0),   # below the exact rate
    ([0.43, 0.425, 0.42, 0.419, 0.416], 0.0),    # 6e-3 above the exact rate
    ([0.43, 0.42, 0.415, 0.412, 0.411], 2e-3),   # lambda_4 not vanishing
])
def test_sweep_convergence_violations_fail(rates, lam4):
    assert w.check_sweep(sweep_csv(rates, lam4)) == w.WRONG


def test_failed_sweep_row_fails():
    text = sweep_csv([0.43, 0.42, 0.415, 0.412, 0.411]).replace(
        "1000,0.411,0.4,0.5,0.2,0.0,0.3,optimal",
        "1000,,,,,,,numerical-failure")
    assert w.check_sweep(text) == w.WRONG


def threshold_report(sdp, bisect):
    return json.dumps({"sdp": {"status": "optimal", "epsilon": sdp},
                       "bisect": {"epsilon": bisect}})


def test_threshold_agreement_passes():
    op = w.threshold_ops()[0]
    text = threshold_report(0.42944, 0.42944 + 5e-5)
    assert w.run_op(fake_main(text), op).failure is None


def test_threshold_disagreement_fails():
    op = w.seeded_threshold_ops(42)[0]
    text = threshold_report(0.30, 0.30 + 2e-4)
    assert w.run_op(fake_main(text), op).failure == w.WRONG


def test_regular_threshold_off_the_published_value_fails():
    op = w.threshold_ops()[0]
    assert w.run_op(fake_main(threshold_report(0.4310, 0.4310)), op).failure == w.WRONG


def test_seeded_pairs_follow_the_seed():
    argv = [op.argv for op in w.seeded_threshold_ops(7)]
    assert argv == [op.argv for op in w.seeded_threshold_ops(7)]
    assert argv != [op.argv for op in w.seeded_threshold_ops(8)]


def test_real_report_passes_and_is_traced():
    from ldpcopt import cli, solver

    original = solver.solve
    tracer = Tracer()
    op = w.design_ops()[0]
    with tracer.installed():
        with tracer.span("cli.op"):
            outcome = w.run_op(cli.main, op)
    assert outcome.failure is None
    assert solver.solve is original and cli.solve is original
    metrics = layer_metrics(tracer.take())
    assert metrics["solver.calls"] == 1
    assert metrics["sos.gram_dim_max"] == 13
    assert metrics["kernels.steps"] == 0
    assert 0.0 <= metrics["cli.self_s"] < outcome.seconds


def test_reference_rescales_by_the_mean_sample():
    import reference

    assert len(reference.take(3)) == 3
    assert reference.per_point(2) == 2 and reference.per_point(12) == 1
    nominal = reference.NOMINAL_S
    assert reference.scaled(2.0, [nominal, nominal]) == 2.0
    assert reference.scaled(2.0, [nominal, 3 * nominal]) == 1.0
