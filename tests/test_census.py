"""The fast part of the 1-ulp census (``benchmarks/census.py``): each
benchmark program ends in one solver status when its erasure probability
moves by one ulp either way (a threshold program's fixed column, which has
none) and when its rows come in reverse order."""

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

import census  # noqa: E402
from ldpcopt import solver  # noqa: E402


@pytest.mark.parametrize("program", census.PROGRAMS, ids=[p[0] for p in census.PROGRAMS])
def test_one_status_under_rounding_level_changes(program):
    results = census.census([program])
    statuses = {way: status for way, (status, _, _) in results[program[0]].items()}
    assert len(set(statuses.values())) == 1, statuses


def test_reversed_rows_pose_the_same_program(rng):
    # The reversed program has the same rows as a set: A x - b and the
    # block terms' row sums agree row for row once the order is undone.
    problem = census.variants("lambda", {6: 1.0}, 0.48, 8)["eps"]
    back = census.reversed_rows(problem)
    x = rng.normal(size=problem.n_cols)
    core, core_back = solver._Core(problem), solver._Core(back)
    rows = solver._Rows(core, core.A.T).dot(core.flat(x)) - problem.b
    rows_back = solver._Rows(core_back, core_back.A.T).dot(core_back.flat(x)) - back.b
    assert np.allclose(rows_back[::-1], rows, rtol=1e-13, atol=1e-13)
