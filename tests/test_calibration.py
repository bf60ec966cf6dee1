import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt import (HamiltonianMatrix, effective_kappa,
                   effective_trap_rate, enaqt4_network, evolve_unitary,
                   fit_coupling_curve, pair_transfer, site_state)


def test_pair_transfer_full_beat():
    assert pair_transfer(1.0, 0.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert pair_transfer(1.0, 0.0, 0.0) == 0.0


def test_pair_transfer_detuned_maximum():
    # Omega = sqrt(2) at C=1, delta=2; peak transfer C^2/Omega^2 = 1/2
    z_peak = math.pi / (2 * math.sqrt(2))
    assert pair_transfer(1.0, 2.0, z_peak) == pytest.approx(0.5, abs=1e-14)


def test_pair_transfer_domain():
    with pytest.raises(ValueError):
        pair_transfer(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pair_transfer(1.0, 1.0, -0.1)


@given(c=st.floats(0.05, 5.0), delta=st.floats(-6.0, 6.0), z=st.floats(0.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_pair_transfer_matches_propagator(c, delta, z):
    h = HamiltonianMatrix(np.array([[0.0, c], [c, delta]]), 792.5, 2)
    trace = evolve_unitary(h, site_state(2, 0), [z])
    assert trace.populations[-1, 1] == pytest.approx(pair_transfer(c, delta, z),
                                                     abs=1e-10)


def test_fit_recovers_exact_exponential():
    curve = fit_coupling_curve([(s, 10.0 * math.exp(-s / 8.0)) for s in (10, 15, 20)])
    assert curve.amplitude_per_cm == pytest.approx(10.0, abs=1e-9)
    assert curve.decay_length_um == pytest.approx(8.0, abs=1e-9)


def test_fit_requires_two_distinct_separations():
    with pytest.raises(ValueError):
        fit_coupling_curve([(10.0, 1.0)])
    with pytest.raises(ValueError):
        fit_coupling_curve([(10.0, 1.0), (10.0, 1.1)])
    with pytest.raises(ValueError):
        fit_coupling_curve([(10.0, -1.0), (12.0, 1.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_refuses_non_finite_samples(bad):
    # NaN passes a "<= 0" check, and the fit would carry it into the curve
    for sample in ((bad, 1.0), (12.0, bad)):
        with pytest.raises(ValueError, match="positive and finite"):
            fit_coupling_curve([(10.0, 2.0), sample, (14.0, 0.5)])


def test_fit_refuses_an_amplitude_that_overflows():
    # finite samples whose extrapolation to zero separation is past 1e308
    with pytest.raises(ValueError, match="overflows"):
        fit_coupling_curve([(1.0, 1e300), (2.0, 1e-300)])


def test_fit_with_one_percent_noise_recovers_decay_length():
    rng = np.random.default_rng(42)
    seps = np.linspace(8.0, 24.0, 9)
    samples = [(s, 10.0 * math.exp(-s / 8.0) * (1.0 + 0.01 * rng.uniform(-1, 1)))
               for s in seps]
    curve = fit_coupling_curve(samples)
    assert curve.decay_length_um == pytest.approx(8.0, rel=0.05)


def test_effective_trap_rate_values():
    assert effective_trap_rate(1e-6, 1.0) < 1e-11
    assert effective_trap_rate(1 / math.sqrt(2), 1.0) == pytest.approx(
        math.sqrt(2), abs=1e-12)
    # design ratio 1.5/1.75 = 6/7 at c_sink = 1.75, the design network's sink
    assert effective_trap_rate(6 / 7, 1.75) == pytest.approx(4.992, abs=1e-3)
    assert effective_kappa(enaqt4_network()) == pytest.approx(4.992, abs=1e-3)


def test_effective_trap_rate_domain():
    for bad in (0.0, 1.0, 1.5, -0.3):
        with pytest.raises(ValueError):
            effective_trap_rate(bad, 1.0)
    with pytest.raises(ValueError):
        effective_trap_rate(0.5, 0.0)


@given(x=st.tuples(st.floats(0.01, 0.98), st.floats(0.01, 0.98)))
@settings(max_examples=60, deadline=None)
def test_effective_trap_rate_strictly_increasing(x):
    a, b = sorted(x)
    if a == b:
        return
    assert effective_trap_rate(a, 1.0) < effective_trap_rate(b, 1.0)
