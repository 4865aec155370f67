#!/usr/bin/env python3
"""Digest the CLI reports of fixed command lines, to show byte identity.

Runs each command line below in-process through ``ldpcopt.cli.main`` and
prints one line per command: its label, its exit code, the first 12 hex
digits of the SHA-1 of its stdout report, with the ``duration_seconds`` line
left out (the one field that differs from run to run), and the same digest
of the report with its ``working_set`` block also left out (the JSON
report re-written without it, or the CSV report without its
``working_set.`` rows). The second digest equals the first for a report
without the block. Two versions write the same reports for these commands
when the output is the same for both:

    diff <(python benchmarks/report_digests.py) \\
         <(PYTHONPATH=other/src python benchmarks/report_digests.py)

and a change to how optimize-lambda climbs its working set (which rung
answers, and how it is priced) leaves every printed design, objective and
check as it was when the last column alone is the same.

The commands are the README examples (with ``design.json`` holding the
published Dv = 7 design), the 11 command lines of the benchmark's ``design``
workload, the type-MB ``verify``, two ``threshold`` pairs drawn by the A8
generator (seeds 0 and 1), the README ``sweep``, as CSV and as JSON, two
large-degree lines that take the root refinement to high degree (the
Dv = 26 design, and the closed-form threshold of a pair with degree-30
nodes on both sides), the ``optimize-rho`` design at eps = 0.95 (posed as
Q, its program had no strictly feasible point and its design broke the
stability condition eps lam_2 rho'(1) <= 1 by about 2e-5 and exited 3;
posed as Q / x it exits 0), and a ``verify`` just above its threshold,
which breaks that condition and exits 2. The README ``optimize-lambda`` and
``threshold`` again with ``--output csv`` cover the flattened report, and the
README sweep with ``--grid-sizes ""`` its exact row alone. The exact row
of a Dv = 10 sweep as JSON pins the numeric order of its two-digit degree
keys, and the eps = 0 ``optimize-lambda`` as CSV the JSON literals of its
null and boolean values. Three lines end on the solver's failure exits, past
eps_D, the (3, 6) threshold, where no lambda of degree up to 3 is feasible:
``optimize-lambda`` at eps = 0.5 (an infeasibility certificate, exit 2) and
at eps_D (1 + 1e-6) (iterates that diverge, refuted by the exact witness
of ``de.infeasibility_witness``, exit 2), and a sweep at eps = 0.6 whose
every row is infeasible (exit 2). A Dv = 12 sweep at
rho = x^5, eps = 0.48, with grid rows N = 100 and 1000, as JSON, pins the
full-precision taps of LP rows whose columns reach psi**11; the README
sweep's rows stop at psi**4. Two ``optimize-lambda`` lines pin the working
set's two outcomes: the Dv = 52 design at rho = x^5, eps = 0.48, which rung
8 answers, and rho = x^10 at eps = 0.3, Dv = 12, whose optimum needs
degrees above 8, so that the full program answers. The ``optimize-rho``
line at lambda = x^2, eps = 0.3, Dc = 12 pins the largest check-side
program (the other rho lines stop at Dc = 7); its design puts rho on
degrees 8 and 9. They
are copied here, so that a change to the benchmark does not change them.
Together they take about 1 s on a 2-vCPU host.
Run as:  python benchmarks/report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile

from ldpcopt.cli import main as cli_main

DESIGN_SPEC = {"lambda": {"2": 0.4021, "3": 0.2137, "7": 0.3902},
               "rho": {"6": 1.0}, "epsilon": 0.49}

README_THRESHOLD = ("threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
                    "--method", "both")
README_SWEEP = ("sweep", "--rho", '{"5": 1.0}', "--epsilon", "0.56",
                "--max-var-degree", "5", "--grid-sizes", "10,50,100,500,1000")


def _optimize_lambda(rho, eps, dv):
    return ("optimize-lambda", "--rho", rho, "--epsilon", eps,
            "--max-var-degree", dv)


README_OPTIMIZE_LAMBDA = _optimize_lambda('{"6": 1.0}', "0.49", "7")

# (label, argv); "{spec}" stands for the path of a file holding DESIGN_SPEC.
COMMANDS = [
    ("readme_optimize_lambda", README_OPTIMIZE_LAMBDA),
    ("readme_optimize_rho", ("optimize-rho", "--lambda", '{"3": 1.0}',
                             "--epsilon", "0.4294", "--max-check-degree", "6")),
    ("readme_threshold", README_THRESHOLD),
    ("readme_verify_spec", ("verify", "--spec", "{spec}")),
    ("check4_eps064", _optimize_lambda('{"4": 1.0}', "0.64", "5")),
    ("check6_eps049", _optimize_lambda('{"6": 1.0}', "0.49", "7")),
    ("check7_eps038", _optimize_lambda('{"7": 1.0}', "0.38", "5")),
    ("check8_eps033", _optimize_lambda('{"8": 1.0}', "0.33", "5")),
    ("anomalous_dv7", _optimize_lambda('{"5": 1.0}', "0.56", "7")),
    ("two_tap", _optimize_lambda('{"6": 0.48555, "7": 0.51445}', "0.45", "7")),
    ("rho_regular_3", ("optimize-rho", "--lambda", '{"3": 1.0}', "--epsilon", "0.4294",
                       "--max-check-degree", "6")),
    ("check6_eps048_dv10", _optimize_lambda('{"6": 1.0}', "0.48", "10")),
    ("check6_eps048_dv12", _optimize_lambda('{"6": 1.0}', "0.48", "12")),
    ("check6_eps048_dv14", _optimize_lambda('{"6": 1.0}', "0.48", "14")),
    ("check4_eps06_dv20", _optimize_lambda('{"4": 1.0}', "0.6", "20")),
    ("verify_type_mb", ("verify", "--lambda", '{"2": 0.4167, "3": 0.1667, "4": 0.1, "8": 0.3176}',
                        "--rho", '{"6": 1.0}', "--epsilon", "0.48")),
    ("a8_seed0", ("threshold",
                  "--lambda", '{"2": 0.261734514703962, "3": 0.0050844468007984825, '
                  '"4": 0.0005825449256005916, "5": 0.14127514141014663, '
                  '"6": 0.41841200612314605, "7": 0.17291134603634623}',
                  "--rho", '{"2": 0.05847091608829036, "3": 0.21805873233884018, '
                  '"4": 0.46895503149886264, "5": 0.2544156301409887, '
                  '"6": 9.968993301810097e-05}',
                  "--method", "both")),
    ("a8_seed1", ("threshold",
                  "--lambda", '{"2": 0.05002743991110336, "3": 0.871832076482597, '
                  '"4": 0.05943012973454977, "5": 0.018710353871750005}',
                  "--rho", '{"2": 0.6250226454637161, "3": 0.17316436978175762, '
                  '"4": 0.1914942803577319, "5": 0.010318704396794475}',
                  "--method", "both")),
    ("readme_sweep_csv", README_SWEEP),
    ("readme_sweep_json", README_SWEEP + ("--output", "json")),
    ("check6_eps048_dv26", _optimize_lambda('{"6": 1.0}', "0.48", "26")),
    ("threshold_deg30", ("threshold", "--lambda", '{"2": 0.5, "30": 0.5}',
                         "--rho", '{"30": 1.0}', "--method", "bisect")),
    ("rho_dv7_eps095", ("optimize-rho", "--lambda",
                        '{"7": 0.7035163711045316, "2": 0.2964836288954685}',
                        "--epsilon", "0.95", "--max-check-degree", "7")),
    ("verify_unstable_lam2", ("verify", "--lambda", '{"2": 0.904, "3": 0.096}',
                              "--rho", '{"2": 0.011, "3": 0.529, "4": 0.46}',
                              "--epsilon", "0.4517")),
    ("readme_optimize_lambda_csv", README_OPTIMIZE_LAMBDA + ("--output", "csv")),
    ("readme_threshold_csv", README_THRESHOLD + ("--output", "csv")),
    ("readme_sweep_exact_only", README_SWEEP[:-1] + ("",)),
    ("sweep_exact_json_dv10", ("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.48",
                               "--max-var-degree", "10", "--grid-sizes", "",
                               "--output", "json")),
    ("optimize_lambda_eps0_csv", _optimize_lambda('{"2": 1.0}', "0.0", "3")
     + ("--output", "csv")),
    ("infeasible_eps05_dv3", _optimize_lambda('{"6": 1.0}', "0.5", "3")),
    ("diverged_eps_d_dv3", _optimize_lambda('{"6": 1.0}', "0.42944024385930624", "3")),
    ("sweep_infeasible_eps06", ("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.6",
                                "--max-var-degree", "3", "--grid-sizes", "10,100")),
    ("sweep_json_dv12", ("sweep", "--rho", '{"6": 1.0}', "--epsilon", "0.48",
                         "--max-var-degree", "12", "--grid-sizes", "100,1000",
                         "--output", "json")),
    ("check6_eps048_dv52", _optimize_lambda('{"6": 1.0}', "0.48", "52")),
    ("climb_rho11_eps03_dv12", _optimize_lambda('{"11": 1.0}', "0.3", "12")),
    ("rho_regular_3_dc12", ("optimize-rho", "--lambda", '{"3": 1.0}', "--epsilon", "0.3",
                            "--max-check-degree", "12")),
]

# The JSON line `  "duration_seconds": ...` or the CSV row `duration_seconds,...`.
_DURATION = re.compile(r'^\s*"?duration_seconds"?[:,].*\n', re.MULTILINE)


# The CSV rows of the working set block.
_WORKING_SET_ROWS = re.compile(r"^working_set\..*\n", re.MULTILINE)


def _sha(report: str) -> str:
    """First 12 hex digits of the SHA-1 of a report without its duration
    line."""
    return hashlib.sha1(_DURATION.sub("", report).encode()).hexdigest()[:12]


def _without_working_set(report: str) -> str:
    """The report as the CLI writes it, less its ``working_set`` block."""
    try:
        data = json.loads(report)
    except ValueError:
        return _WORKING_SET_ROWS.sub("", report)
    if not isinstance(data, dict) or "working_set" not in data:
        return report
    del data["working_set"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def digest(argv) -> tuple:
    """(exit code, digest of the report, digest of the report without its
    working set) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    report = out.getvalue()
    return code, _sha(report), _sha(_without_working_set(report))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "design.json")
        with open(spec, "w") as f:
            json.dump(DESIGN_SPEC, f)
        print(f"{'command':26s} {'exit':>4s} {'report sha1':>12s} {'no working set':>14s}")
        for label, argv in COMMANDS:
            code, sha, stripped = digest([spec if a == "{spec}" else a for a in argv])
            print(f"{label:26s} {code:4d} {sha:>12s} {stripped:>14s}")


if __name__ == "__main__":
    main()
