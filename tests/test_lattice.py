import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt import DispersionModel, NetworkSpec, SinkSpec, build_hamiltonian
from enaqt.decoherence import coherent_efficiency
from conftest import DARK_VECTOR, LAMBDA0, design_network


def test_design_network_layout(design_net):
    assert design_net.n_sites == 4
    assert design_net.input_site == 0
    assert design_net.target_site == 2
    assert design_net.site_detunings == ((3, 1.0),)
    assert set((min(i, j), max(i, j)) for i, j, _ in design_net.couplings) == {
        (0, 1), (1, 2), (2, 3)}
    assert design_net.sink.c_trap_per_cm == 1.5
    assert design_net.sink.c_sink_per_cm == 1.75


def test_hamiltonian_exact_at_center(design_net):
    h = build_hamiltonian(design_net, LAMBDA0)
    m = h.entries
    assert np.array_equal(np.diag(m)[:4], [0.0, 0.0, 0.0, 1.0])
    assert m[0, 1] == m[1, 2] == m[2, 3] == 1.0
    assert m[2, 4] == 1.5  # target to first sink guide
    tail = np.diag(m[4:, 4:], k=1)
    assert np.all(tail == 1.75)
    assert np.all(np.diag(m)[4:] == 0.0)
    # everything not declared stays zero
    assert m[0, 2] == m[0, 3] == m[1, 3] == 0.0
    assert m[3, 4] == 0.0


def test_uniform_chain_when_detuning_zero():
    net = design_network(site_detunings=(), sink=None)
    h = build_hamiltonian(net, LAMBDA0)
    assert np.all(np.diag(h.entries) == np.diag(h.entries)[0])


def test_inverse_lambda_halves_detuning_at_double_wavelength():
    disp = DispersionModel(detuning0_per_cm=1.0, coupling_slope_per_nm=0.0)
    net = design_network(dispersion=disp, sink=None)
    h = build_hamiltonian(net, 2 * LAMBDA0)
    assert h.entries[3, 3] == pytest.approx(0.5, abs=1e-15)


def test_constant_law_keeps_detuning():
    disp = DispersionModel(detuning_law="constant", coupling_slope_per_nm=0.0)
    net = design_network(dispersion=disp, sink=None)
    for lam in (700.0, 792.5, 900.0):
        h = build_hamiltonian(net, lam)
        assert h.entries[3, 3] == 1.0


def test_coupling_slope_finite_difference(design_net):
    # d C(lambda)/d lambda at the center equals C0 * slope
    step = 0.01
    hp = build_hamiltonian(design_net, LAMBDA0 + step)
    hm = build_hamiltonian(design_net, LAMBDA0 - step)
    slope = (hp.entries[0, 1] - hm.entries[0, 1]) / (2 * step)
    expected = 1.0 * design_net.dispersion.coupling_slope_per_nm
    assert slope == pytest.approx(expected, rel=1e-6)


def test_dark_vector_is_eigenvector(h_system):
    # H v = (beta + C) v and the target component is exactly zero
    hv = h_system.entries @ DARK_VECTOR
    assert np.allclose(hv, 1.0 * DARK_VECTOR, atol=1e-15)
    assert DARK_VECTOR[2] == 0.0


@st.composite
def random_networks(draw):
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=len(pairs)))
    couplings = tuple(
        (i, j, draw(st.floats(0.1, 3.0, allow_nan=False))) for i, j in chosen)
    detunings = tuple(
        (s, draw(st.floats(-2.0, 2.0))) for s in range(n) if draw(st.booleans()))
    sink = SinkSpec(n_sink=draw(st.integers(1, 8))) if draw(st.booleans()) else None
    return NetworkSpec(n_sites=n, site_detunings=detunings, couplings=couplings,
                       sink=sink, input_site=0, target_site=n - 1)


@given(net=random_networks(), lam=st.floats(400.0, 1600.0))
@settings(max_examples=50, deadline=None)
def test_hamiltonian_always_symmetric(net, lam):
    h = build_hamiltonian(net, lam)
    assert np.array_equal(h.entries, h.entries.T)


def test_network_validation_errors():
    with pytest.raises(ValueError):
        NetworkSpec(n_sites=2, couplings=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        NetworkSpec(n_sites=2, couplings=((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValueError):
        NetworkSpec(n_sites=2, couplings=((0, 2, 1.0),))
    with pytest.raises(ValueError):
        NetworkSpec(n_sites=3, input_site=3)
    with pytest.raises(ValueError):
        NetworkSpec(n_sites=2, site_detunings=((5, 1.0),))
    with pytest.raises(ValueError, match="listed more than once"):
        NetworkSpec(n_sites=2, site_detunings=((1, 1.0), (1, 0.5)))


def test_dispersion_validation():
    with pytest.raises(ValueError):
        DispersionModel(detuning_law="quadratic")
    with pytest.raises(ValueError):
        DispersionModel(lambda0_nm=0.0)
    with pytest.raises(ValueError):
        SinkSpec(n_sink=0)
    with pytest.raises(ValueError):
        SinkSpec(c_trap_per_cm=-1.0)


@pytest.mark.parametrize("make, message", [
    (lambda v: DispersionModel(lambda0_nm=v), "lambda0_nm must be finite and positive"),
    (lambda v: DispersionModel(detuning0_per_cm=v), "detuning0_per_cm must be finite"),
    (lambda v: DispersionModel(coupling_slope_per_nm=v), "coupling_slope_per_nm must be finite"),
    (lambda v: SinkSpec(c_trap_per_cm=v), "c_trap_per_cm must be finite and positive"),
    (lambda v: SinkSpec(c_sink_per_cm=v), "c_sink_per_cm must be finite and positive"),
], ids=["lambda0", "detuning0", "coupling-slope", "c-trap", "c-sink"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_network_fields_are_refused(make, message, value):
    with pytest.raises(ValueError, match=message):
        make(value)


@pytest.mark.parametrize("use", [
    lambda net, lam: net.dispersion.detuning_scale(lam),
    lambda net, lam: net.dispersion.coupling_scale(lam),
    build_hamiltonian,
    lambda net, lam: coherent_efficiency(net, [LAMBDA0, lam], 15.0),
], ids=["detuning-scale", "coupling-scale", "build-hamiltonian", "coherent-efficiency"])
@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
def test_wavelength_must_be_finite_and_positive(design_net, use, lam):
    # a NaN wavelength used to surface as an asymmetric Hamiltonian or a
    # numpy warning, which did not name the wavelength
    with pytest.raises(ValueError, match=f"wavelength must be finite and positive, got {lam}"):
        use(design_net, lam)


def test_coupling_scale_is_one_at_center():
    for slope in (-0.02, 0.0, 0.01, 0.3):
        disp = DispersionModel(coupling_slope_per_nm=slope)
        assert disp.coupling_scale(LAMBDA0) == 1.0


def test_system_block_strips_sink(design_net):
    # the system block is built without the sink: the leading block of the
    # full H, bit for bit
    h = build_hamiltonian(design_net, LAMBDA0)
    block = build_hamiltonian(design_net, LAMBDA0, include_sink=False)
    assert block.dimension == 4
    assert not block.has_sink
    assert np.array_equal(block.entries, h.entries[:4, :4])
