"""Command-line interface: pipelines, exit codes, report invariants."""

import json
import os
import resource
import subprocess
import sys

import pytest

from ldpcopt import cli, sos
from ldpcopt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_lambda_reference(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "0.49", "--max-var-degree", "7")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["rate"] == pytest.approx(0.4922, abs=2e-3)
    assert report["delta"] == pytest.approx(0.0349, abs=2e-3)
    assert report["certificate"]["psd_ok"]
    assert report["certificate"]["reconstruction_ok"]
    assert report["de_check"]["feasible"]


def test_optimize_lambda_degenerate_epsilon(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"2": 1.0}',
        "--epsilon", "0.0", "--max-var-degree", "3")
    assert code == 0
    report = json.loads(out)
    assert report["degenerate_epsilon"]
    assert report["objective"] == pytest.approx(0.5, abs=1e-6)


def test_optimize_rho(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-rho",
        "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--epsilon", "0.49", "--max-check-degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["objective"] <= 1.0 / 6.0 + 1e-3


def test_optimize_rho_regular_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-rho", "--lambda", '{"3": 1.0}',
        "--epsilon", "0.4294", "--max-check-degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["objective"] == pytest.approx(1.0 / 6.0, abs=2e-3)


def test_threshold_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
        "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert report["sdp"]["epsilon"] == pytest.approx(0.4294, abs=1e-3)
    assert report["bisect"]["epsilon"] == pytest.approx(0.4294, abs=1e-3)
    assert report["agreement"] <= 1e-4


def test_verify_feasible(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--rho", '{"6": 1.0}', "--epsilon", "0.49")
    assert code == 0
    report = json.loads(out)
    assert report["de_grid"]["feasible"] and report["de_minimum"]["feasible"]
    assert report["threshold_margin"] > 0.0


def test_verify_infeasible_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--rho", '{"6": 1.0}', "--epsilon", "0.60")
    assert code == 2
    report = json.loads(out)
    assert not report["de_minimum"]["feasible"]
    assert report["de_minimum"]["worst_value"] < 0.0


def test_verify_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "lambda": {"2": 0.4021, "3": 0.2137, "7": 0.3902},
        "rho": {"6": 1.0},
        "epsilon": 0.49,
    }))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["de_minimum"]["feasible"]


def test_round_trip_optimize_then_verify(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"4": 1.0}',
        "--epsilon", "0.64", "--max-var-degree", "5")
    assert code == 0
    ensemble = json.loads(out)["ensemble"]
    path = tmp_path / "designed.json"
    path.write_text(json.dumps(ensemble))
    code2, out2, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code2 == 0
    assert json.loads(out2)["de_minimum"]["feasible"]


def test_reports_byte_identical_modulo_duration(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
            "--method", "both")
        assert code == 0
        outs.append(json.loads(out))
    for rep in outs:
        rep.pop("duration_seconds")
    assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)


def test_malformed_distribution_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": "lots"}',
        "--epsilon", "0.49", "--max-var-degree", "7")
    assert code == 1
    assert "rho" in err


def test_bad_epsilon_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "1.4", "--max-var-degree", "7")
    assert code == 1
    assert "epsilon" in err


def test_missing_spec_fields_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"lambda": {"2": 1.0}}))
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 1
    assert "rho" in err


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "10,20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,rate,objective,lambda_2")
    assert lines[1].split(",")[0] == "10"
    assert lines[-1].split(",")[0] == "inf"
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates[0] >= rates[-1] - 1e-9


def test_sweep_reference_row_only(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
        "--max-var-degree", "5", "--grid-sizes", "")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "inf"


def test_report_output_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--lambda", '{"2": 0.4021, "3": 0.2137, "7": 0.3902}',
        "--rho", '{"6": 1.0}', "--epsilon", "0.49", "--output", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["de_minimum.feasible"] == "True"
    assert float(rows["rate"]) == pytest.approx(0.4889, abs=1e-3)


def test_threshold_reference_design(capsys):
    code, out, _ = run_cli(
        capsys, "threshold",
        "--lambda", '{"2": 0.5208, "3": 0.1458, "5": 0.3333}',
        "--rho", '{"4": 1.0}', "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert abs(report["sdp"]["epsilon"] - report["bisect"]["epsilon"]) <= 1e-4
    assert report["sdp"]["epsilon"] >= 0.64 - 1e-3


def test_verify_twelve_tap_design(capsys):
    lam = ('{"2": 0.4167, "3": 0.1667, "4": 0.1000, "5": 0.0700,'
           ' "6": 0.0532, "7": 0.0426, "8": 0.0353, "9": 0.0300,'
           ' "10": 0.0260, "11": 0.0229, "12": 0.0204, "13": 0.0165}')
    code, out, err = run_cli(
        capsys, "verify", "--lambda", lam, "--rho", '{"6": 1.0}',
        "--epsilon", "0.48")
    assert code == 0
    report = json.loads(out)
    assert report["de_minimum"]["feasible"]
    assert report["rate"] == pytest.approx(0.4998, abs=1e-3)
    # Quoted taps sum to 1.0003; ingestion renormalizes and says so.
    assert "renormalized" in err


def test_optimize_lambda_large_degree_cap(capsys):
    # q = 75 > 66: C(q, q/2) exceeds 2^63, so the Gram basis weights must be
    # computed from float binomials.
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "0.48", "--max-var-degree", "16")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["objective"] == pytest.approx(0.3341888841, abs=1e-8)


def test_design_verified_at_one_blas_thread():
    # The Dv = 20 design once failed its Gram reconstruction check at one
    # BLAS thread: its equality residual was met only to the solver
    # tolerance, which the monomial-basis certificate amplifies.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ldpcopt.cli", "optimize-lambda",
         "--rho", '{"4": 1.0}', "--epsilon", "0.6", "--max-var-degree", "20"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "optimal"
    assert report["certificate"]["reconstruction_ok"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ldpcopt.cli", "threshold",
         "--lambda", '{"2": 1.0}', "--rho", '{"2": 1.0}', "--method", "bisect"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["bisect"]["epsilon"] >= 1.0 - 2e-6


def test_unexpected_error_exits_three(monkeypatch, capsys):
    def broken_solve(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(cli, "solve", broken_solve)
    code, out, err = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 1.0}',
        "--epsilon", "0.49", "--max-var-degree", "5")
    assert code == 3
    assert out == ""
    assert err == "error: RuntimeError: solver exploded\n"


def test_solver_message_reported(monkeypatch, capsys):
    # The two-tap design ends on the best-iterate fallback; whatever the
    # solver says about how it got there reaches the report.
    solutions = []
    real_solve = cli.solve

    def recording_solve(*args, **kwargs):
        solutions.append(real_solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cli, "solve", recording_solve)
    code, out, _ = run_cli(
        capsys, "optimize-lambda", "--rho", '{"6": 0.48555, "7": 0.51445}',
        "--epsilon", "0.45", "--max-var-degree", "7")
    assert code == 0
    assert json.loads(out).get("message", "") == solutions[-1].message
    code, out, _ = run_cli(
        capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
        "--method", "sdp")
    assert code == 0
    assert json.loads(out)["sdp"].get("message", "") == solutions[-1].message


def _limit_address_space():
    # A refusal that regressed would try to allocate gigabytes; fail the
    # child with MemoryError instead of exhausting the host.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, fields", [
    (("optimize-lambda", "--rho", '{"6": 1.0}', "--epsilon", "0.4",
      "--max-var-degree", "200"), "field 'max-var-degree'"),
    (("optimize-rho", "--lambda", '{"3": 1.0}', "--epsilon", "0.4",
      "--max-check-degree", "1000"), "field 'max-check-degree'"),
    (("threshold", "--lambda", '{"300": 1.0}', "--rho", '{"6": 1.0}',
      "--method", "sdp"), "fields 'lambda', 'rho'"),
    (("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.4",
      "--max-var-degree", "200", "--grid-sizes", "10"), "field 'max-var-degree'"),
])
def test_oversized_sos_program_is_input_error(argv, fields):
    # Gram dimensions 996, 1999, 1496 and 996 are refused before any
    # program is built, naming the degree field that sets the size.
    proc = subprocess.run([sys.executable, "-m", "ldpcopt.cli", *argv],
                          capture_output=True, text=True,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {fields}: Gram dimension ")
    assert f"exceeds the limit of {sos.MAX_GRAM_DIM}" in proc.stderr


@pytest.mark.parametrize("method", ["sdp", "both"])
def test_threshold_unverified_certificate_downgraded(monkeypatch, capsys, method):
    def failing_check(cert, target):
        return sos.CertificateReport(psd_ok=True, reconstruction_ok=False,
                                     min_eig=0.0, max_residual=1.0,
                                     symmetry_residual=0.0)

    monkeypatch.setattr(sos, "verify_certificate", failing_check)
    code, out, err = run_cli(
        capsys, "threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
        "--method", method)
    assert code == 3
    report = json.loads(out)
    assert report["sdp"]["status"] == "verification-failed"
    assert not report["sdp"]["certificate"]["reconstruction_ok"]
    assert "verification" in err
