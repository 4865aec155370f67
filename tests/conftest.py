"""Shared fixtures and reference data for the test suite."""

import numpy as np
import pytest

from ldpcopt import kernels
from ldpcopt.ensemble import DegreeDistribution

# Published single-check-degree reference designs used across the suite.
# Rates are recomputed from the quoted taps via the design-rate formula; the
# check column gives the node degree of the regular check side.
REFERENCE_DESIGNS = {
    "check4_eps064": {
        "rho": {4: 1.0}, "eps": 0.64, "max_var_degree": 5,
        "rate": 0.3346, "delta": 0.0708,
        "lam": {2: 0.5208, 3: 0.1458, 5: 0.3333},
    },
    "check6_eps049": {
        "rho": {6: 1.0}, "eps": 0.49, "max_var_degree": 7,
        "rate": 0.4922, "delta": 0.0349,
        "lam": {2: 0.4021, 3: 0.2137, 7: 0.3902},
    },
    "check7_eps038": {
        "rho": {7: 1.0}, "eps": 0.38, "max_var_degree": 5,
        "rate": 0.593, "delta": 0.0435,
        "lam": {2: 0.4387, 3: 0.1456, 5: 0.4158},
    },
    "check8_eps033": {
        "rho": {8: 1.0}, "eps": 0.33, "max_var_degree": 5,
        "rate": 0.6439, "delta": 0.039,
        "lam": {2: 0.4331, 3: 0.1583, 5: 0.4086},
    },
}

# Anomalous column: the quoted tap vector is internally inconsistent (its
# recomputed rate exceeds capacity), and the quoted rate 0.421 is attained
# only with variable degrees up to 7, not the 5 the taps suggest.
ANOMALOUS_DESIGN = {
    "rho": {5: 1.0}, "eps": 0.56, "rate_target": 0.421,
    "max_var_degree": 7, "capacity": 0.44,
}

# Previously published twelve-tap and four-tap designs with degree-6 checks,
# verified at erasure probability 0.48.
COMPARISON_DESIGNS = {
    "type_a": {
        "lam": {2: 0.4167, 3: 0.1667, 4: 0.1000, 5: 0.0700, 6: 0.0532,
                7: 0.0426, 8: 0.0353, 9: 0.0300, 10: 0.0260, 11: 0.0229,
                12: 0.0204, 13: 0.0165},
        "rho": {6: 1.0}, "eps": 0.48, "rate": 0.4998,
    },
    "type_mb": {
        "lam": {2: 0.4167, 3: 0.1667, 4: 0.1000, 8: 0.3176},
        "rho": {6: 1.0}, "eps": 0.48, "rate": 0.4926,
    },
}

TWO_TAP_DESIGN = {
    "rho": {6: 0.48555, 7: 0.51445}, "eps": 0.45, "max_var_degree": 7,
    "rate_floor": 0.510, "capacity": 0.55,
}


def random_distribution(rng: np.random.Generator, max_degree: int,
                        min_degree: int = 2) -> DegreeDistribution:
    degrees = list(range(min_degree, max_degree + 1))
    weights = rng.dirichlet(np.ones(len(degrees)))
    taps = {d: float(w) for d, w in zip(degrees, weights) if w > 1e-12}
    return DegreeDistribution(taps, normalize=True)


def trajectory(lam, rho, eps, max_iters, tol, stop_below=0.0):
    """Iterates x_0 = eps, ..., x_n of one ``kernels.de_final`` run, as a
    float64 array, and its stopped-by-tol flag.

    Each iterate is one resumed single-step call from the previous iterate
    and step, so the pinned trajectories also check resumption: a run split
    into single steps must take the same steps as one call.
    """
    xs, start, stopped = [float(eps)], None, False
    for _ in range(int(max_iters)):
        x, _, stopped, d_last, _ = kernels.de_final(
            lam, rho, eps, 1, tol, stop_below, start)
        xs.append(x)
        if stopped or x < stop_below:
            break
        start = (x, d_last)
    return np.array(xs, dtype=np.float64), stopped


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
