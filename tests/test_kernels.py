"""Erasure fixed-point kernels: contracts and pinned outputs."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcopt import kernels
from ldpcopt.ensemble import DegreeDistribution

from conftest import random_distribution, trajectory

LAM = np.array([0.0, 0.35, 0.65])        # edge polynomial of {2: .35, 3: .65}
RHO = np.array([0.0, 0.0, 0.0, 0.0, 1.0])  # x^4


def test_active_implementation_reported():
    assert kernels.ACTIVE_IMPL == "python"
    assert kernels.implementations() == {"python": kernels}


def test_horner_matches_numpy(rng):
    # One step from x is eps * lam(1 - rho(1 - x)): both Horner recurrences
    # written out in the loop, checked against numpy's on random coefficients.
    lam, rho = rng.normal(size=7), rng.normal(size=5)
    for x in rng.uniform(-1.5, 1.5, size=10):
        step = kernels.de_final(lam, rho, 0.7, 1, 0.0, start=(float(x), 0.0))[0]
        inner = 1.0 - np.polyval(rho[::-1], 1.0 - x)
        assert step == pytest.approx(
            float(0.7 * np.polyval(lam[::-1], inner)), rel=1e-12)


def test_de_trace_contract():
    trace, stopped = trajectory(LAM, RHO, 0.3, 1000, 1e-12)
    assert trace[0] == 0.3
    assert stopped
    assert trace[-1] < 1e-9


def test_de_final_matches_trace():
    trace, stopped = trajectory(LAM, RHO, 0.42, 500, 1e-12)
    final, steps, stopped2, d_last, d_prev = kernels.de_final(
        LAM, RHO, 0.42, 500, 1e-12)
    assert final == trace[-1]
    assert steps == trace.size - 1
    assert stopped2 == stopped
    if steps >= 2:
        assert d_last == trace[-1] - trace[-2]
        assert d_prev == trace[-2] - trace[-3]


def test_stop_below_early_exit():
    final, steps, stopped, _, _ = kernels.de_final(
        LAM, RHO, 0.3, 1000, 0.0, stop_below=1e-6)
    assert not stopped
    assert final < 1e-6
    assert steps + 1 < 1000


TYPE_MB = {2: 0.4167, 3: 0.1667, 4: 0.1000, 8: 0.3176}

# Reference outputs, recorded with the numpy-indexed loop this kernel
# replaced; any change to the kernel's operation order shows here. Each case:
# (lam taps, eps, de_final(20_000 steps) as float.hex, the 1_000-step
# trajectory as (length, stopped, last iterate, sha256 of its bytes));
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
    t, t_stopped = trajectory(lam, rho, eps, 1_000, 1e-15, 1e-10)
    assert (t.size, t_stopped, float(t[-1]).hex(),
            hashlib.sha256(t.tobytes()).hexdigest()[:16]) == trace


def _edge_coeffs(dist):
    return dist.edge_polynomial().coeffs


def _a8_pair(seed):
    """One (lam, rho) pair from the A8 generator: max degrees 3..7."""
    rng = np.random.default_rng(seed)
    lam = random_distribution(rng, int(rng.integers(3, 8)))
    rho = random_distribution(rng, int(rng.integers(3, 8)))
    return _edge_coeffs(lam), _edge_coeffs(rho)


RHO6 = _edge_coeffs(DegreeDistribution({6: 1.0}))
RESUME_PAIRS = [
    (_edge_coeffs(DegreeDistribution({3: 1.0})), RHO6),
    (_edge_coeffs(DegreeDistribution(TYPE_MB, normalize=True)), RHO6),
]


def _bits(out):
    """(final, stopped, d_last, d_prev) with the floats as hex strings."""
    x, _, stopped, d_last, d_prev = out
    return x.hex(), stopped, d_last.hex(), d_prev.hex()


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(pair=st.one_of(st.sampled_from(RESUME_PAIRS),
                      st.integers(0, 2**32 - 1).map(_a8_pair)),
       eps=st.floats(0.05, 1.0), n=st.integers(1, 3_000),
       split=st.floats(0.0, 1.0),
       tol=st.sampled_from([0.0, float(np.nextafter(0.0, 1.0)), 1e-15]),
       stop_below=st.sampled_from([0.0, 1e-10]))
def test_resumed_run_equals_single_run(pair, eps, n, split, tol, stop_below):
    # Split an n-step run before its last step into a steps and a resumed
    # call for the n - a remaining ones; the resumed call must also stop
    # where the single run does. A resumed single step, whose d_prev is the
    # carried step, must match the (a + 1)-step run.
    lam, rho = pair
    whole = kernels.de_final(lam, rho, eps, n, tol, stop_below)
    a = int(split * (whole[1] - 1))
    x, steps, stopped, d_last, _ = kernels.de_final(
        lam, rho, eps, a, tol, stop_below)
    assert (steps, stopped, x < stop_below) == (a, False, False)
    rest = kernels.de_final(lam, rho, eps, n - a, tol, stop_below, (x, d_last))
    assert _bits(rest) == _bits(whole)
    assert a + rest[1] == whole[1]
    one = kernels.de_final(lam, rho, eps, 1, tol, stop_below, (x, d_last))
    assert _bits(one) == _bits(kernels.de_final(lam, rho, eps, a + 1, tol, stop_below))

