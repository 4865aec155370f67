"""Erasure fixed-point kernels: contracts and pinned outputs."""

import hashlib

import numpy as np
import pytest

from ldpcopt import kernels
from ldpcopt.ensemble import DegreeDistribution

LAM = np.array([0.0, 0.35, 0.65])        # edge polynomial of {2: .35, 3: .65}
RHO = np.array([0.0, 0.0, 0.0, 0.0, 1.0])  # x^4


def test_active_implementation_reported():
    assert kernels.ACTIVE_IMPL == "python"
    assert kernels.implementations() == {"python": kernels}


def test_horner_matches_numpy(rng):
    coeffs = rng.normal(size=7)
    for x in rng.uniform(-1.5, 1.5, size=10):
        assert kernels.horner(coeffs, float(x)) == pytest.approx(
            float(np.polyval(coeffs[::-1], x)), rel=1e-12)


def test_de_trace_contract():
    trace, stopped = kernels.de_trace(LAM, RHO, 0.3, 1000, 1e-12)
    assert trace[0] == 0.3
    assert stopped
    assert trace[-1] < 1e-9


def test_de_final_matches_trace():
    trace, stopped = kernels.de_trace(LAM, RHO, 0.42, 500, 1e-12)
    final, steps, stopped2, d_last, d_prev = kernels.de_final(
        LAM, RHO, 0.42, 500, 1e-12)
    assert final == trace[-1]
    assert steps == trace.size - 1
    assert stopped2 == stopped
    if steps >= 2:
        assert d_last == trace[-1] - trace[-2]
        assert d_prev == trace[-2] - trace[-3]


def test_stop_below_early_exit():
    trace, stopped = kernels.de_trace(LAM, RHO, 0.3, 1000, 0.0, stop_below=1e-6)
    assert not stopped
    assert trace[-1] < 1e-6
    assert trace.size < 1000


TYPE_MB = {2: 0.4167, 3: 0.1667, 4: 0.1000, 8: 0.3176}

# Reference outputs, recorded with the numpy-indexed loop this kernel
# replaced; any change to the kernel's operation order shows here. Each case:
# (lam taps, eps, de_final(20_000 steps) as float.hex, de_trace(1_000 steps)
# as (length, stopped, last iterate, sha256 of the trace bytes));
# rho = {6: 1} throughout.
PINNED = [
    ({3: 1.0}, 0.40,
     ("0x1.24690f224468bp-36", 18, False, "-0x1.5a138a26eafdcp-20",
      "-0x1.776c0a36c4dd7p-12"),
     (19, False, "0x1.24690f224468bp-36", "7ab57e0ea60ce289")),
    ({3: 1.0}, 0.4294,
     ("0x1.106f08330cfb1p-50", 485, False, "-0x1.42691e7f7ca47p-27",
      "-0x1.efe42adcffcb0p-16"),
     (486, False, "0x1.106f08330cfb1p-50", "1c4d9aa3454cf0db")),
    ({3: 1.0}, 0.45,
     ("0x1.6bf9549970d61p-2", 83, True, "-0x1.1000000000000p-50",
      "-0x1.a000000000000p-50"),
     (84, True, "0x1.6bf9549970d61p-2", "7582600ea8a6ac71")),
    (TYPE_MB, 0.64,
     ("0x1.3fd36b8e06c47p-1", 20, True, "-0x1.4000000000000p-51",
      "-0x1.c000000000000p-49"),
     (21, True, "0x1.3fd36b8e06c47p-1", "bd557d0a01d047f5")),
]


@pytest.mark.parametrize("lam_taps, eps, final, trace", PINNED)
def test_pinned_outputs(lam_taps, eps, final, trace):
    lam = DegreeDistribution(lam_taps, normalize=True).edge_polynomial().coeffs
    rho = DegreeDistribution({6: 1.0}).edge_polynomial().coeffs
    x, steps, stopped, d_last, d_prev = kernels.de_final(
        lam, rho, eps, 20_000, 1e-15, 1e-10)
    assert (x.hex(), steps, stopped, d_last.hex(), d_prev.hex()) == final
    t, t_stopped = kernels.de_trace(lam, rho, eps, 1_000, 1e-15, 1e-10)
    assert (t.size, t_stopped, float(t[-1]).hex(),
            hashlib.sha256(t.tobytes()).hexdigest()[:16]) == trace
