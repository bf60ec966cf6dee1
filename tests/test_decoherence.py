import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt import decoherence
from enaqt import (AmplitudeState, DispersionModel, NetworkSpec, Spectrum,
                   build_hamiltonian, coherence_decay_pair, coherence_time,
                   decoherence_strength, ensemble_average, evolve_unitary, g1,
                   spectral_nodes, tophat_gamma_closed_form)
from conftest import LAMBDA0

DESIGN_TOPHAT = Spectrum.tophat(LAMBDA0, 95.0)


def two_guide_net(delta_beta=1.0):
    """Uncoupled pair: reference guide plus one detuned guide."""
    return NetworkSpec(
        n_sites=2,
        site_detunings=((1, delta_beta),),
        couplings=(),
        dispersion=DispersionModel(detuning0_per_cm=delta_beta,
                                   coupling_slope_per_nm=0.0),
        input_site=0,
        target_site=1,
    )


# ---------------------------------------------------------------------------
# spectra

def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum("comb", 800.0)
    with pytest.raises(ValueError):
        Spectrum("delta", 800.0, fwhm_nm=10.0)
    with pytest.raises(ValueError):
        Spectrum.tophat(-1.0, 10.0)
    with pytest.raises(ValueError):
        Spectrum.discrete([])


def test_discrete_weights_normalize():
    spec = Spectrum.discrete([(780.0, 2.0), (800.0, 6.0)])
    assert sum(w for _, w in spec.lines) == pytest.approx(1.0, abs=1e-15)
    assert spec.lines[1][1] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# first-order coherence

def test_g1_is_one_at_zero_delay():
    for spec in (DESIGN_TOPHAT, Spectrum.gaussian(800.0, 40.0), Spectrum.delta(800.0),
                 Spectrum.discrete([(780.0, 1.0), (800.0, 1.0)])):
        assert abs(g1(spec, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_g1_tophat_first_zero():
    spec = DESIGN_TOPHAT
    tau_zero = 2 * math.pi / spec.angular_width
    assert abs(g1(spec, tau_zero)) < 1e-12


def test_g1_delta_never_decoheres():
    spec = Spectrum.delta(LAMBDA0)
    for tau in (1e-12, 3e-11, 7e-10):
        assert abs(g1(spec, tau)) == pytest.approx(1.0, abs=1e-12)


def test_g1_tophat_matches_direct_band_average():
    # brute-force oracle: average exp(-i w tau) over a dense uniform sample
    # of the angular band and compare with the sinc closed form
    spec = Spectrum.tophat(LAMBDA0, 10.0)
    w0, dw = spec.center_angular_frequency, spec.angular_width
    n = 200_000
    omegas = w0 + dw * ((np.arange(n) + 0.5) / n - 0.5)  # midpoint rule
    for tau in (0.0, 0.2e-12, 1.0e-12):
        direct = np.mean(np.exp(-1j * omegas * tau))
        assert g1(spec, tau) == pytest.approx(complex(direct), abs=5e-9)


# ---------------------------------------------------------------------------
# decoherence strength

def test_gamma_design_point():
    gamma = decoherence_strength(DESIGN_TOPHAT, 1.0)
    # exact closed form is 0.01907851...; the familiar 5-digit quote is a
    # hair low, so pin the closed form tightly and the quote at its own
    # rounding precision
    assert gamma == pytest.approx(tophat_gamma_closed_form(1.0, 95.0, LAMBDA0),
                                  rel=1e-6)
    assert gamma == pytest.approx(0.019077, abs=2e-6)
    assert gamma == pytest.approx(0.02, rel=0.05)


def test_gamma_zero_for_monochromatic():
    assert decoherence_strength(Spectrum.delta(LAMBDA0), 1.0) == 0.0
    assert decoherence_strength(Spectrum.tophat(LAMBDA0, 0.0), 1.0) == 0.0
    assert decoherence_strength(
        Spectrum.discrete([(780.0, 1.0), (800.0, 1.0)]), 1.0) == 0.0


def test_gamma_quadrature_matches_closed_form_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        db = rng.uniform(0.2, 3.0)
        lam0 = rng.uniform(500.0, 1200.0)
        dl = rng.uniform(1.0, 0.2 * lam0)
        got = decoherence_strength(Spectrum.tophat(lam0, dl), db)
        want = tophat_gamma_closed_form(db, dl, lam0)
        assert got == pytest.approx(want, rel=1e-6)


def test_tophat_sinc2_quadrature_runs_once(monkeypatch):
    # the sinc^2 integral does not depend on the tophat width
    calls = []
    blocks = decoherence._gauss_blocks

    def counting(*args, **kwargs):
        calls.append(args)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(decoherence, "_gauss_blocks", counting)
    decoherence._sinc2_half_line.cache_clear()
    for dl in (5.0, 45.0, 95.0):
        got = decoherence_strength(Spectrum.tophat(LAMBDA0, dl), 1.0)
        assert got == pytest.approx(tophat_gamma_closed_form(1.0, dl, LAMBDA0), rel=1e-6)
    assert len(calls) == 1


def test_gamma_gaussian_against_analytic_coherence_time():
    spec = Spectrum.gaussian(LAMBDA0, 40.0)
    sigma = spec.angular_width / (2 * math.sqrt(2 * math.log(2)))
    assert coherence_time(spec) == pytest.approx(math.sqrt(math.pi) / sigma, rel=1e-9)
    gamma = decoherence_strength(spec, 1.0)
    assert gamma > 0


def test_gamma_domain():
    with pytest.raises(ValueError):
        decoherence_strength(DESIGN_TOPHAT, 0.0)
    with pytest.raises(ValueError):
        decoherence_strength(DESIGN_TOPHAT, 1.0, lambda0_nm=-5.0)


# ---------------------------------------------------------------------------
# pair coherence decay

def test_pair_coherence_at_zero_distance():
    assert coherence_decay_pair(1.0, LAMBDA0, DESIGN_TOPHAT, 0.0, 0.5 + 0.1j) == \
        pytest.approx(0.5 + 0.1j, abs=1e-15)


def test_pair_coherence_monochromatic_preserves_modulus():
    spec = Spectrum.delta(LAMBDA0)
    for z in (1.0, 5.0, 42.0):
        out = coherence_decay_pair(1.0, LAMBDA0, spec, z, 0.5)
        assert abs(out) == pytest.approx(0.5, abs=1e-12)


def test_pair_coherence_first_zero_at_inverse_gamma():
    # the first null of the tophat envelope sits at z = 1/gamma
    gamma = tophat_gamma_closed_form(1.0, 95.0, LAMBDA0)
    out = coherence_decay_pair(1.0, LAMBDA0, DESIGN_TOPHAT, 1.0 / gamma, 0.5)
    assert abs(out) < 1e-12


def test_pair_coherence_matches_two_guide_ensemble():
    # cross-module oracle: average the explicit two-guide system over the
    # band and compare the off-diagonal against the closed form
    net = two_guide_net(1.0)
    psi0 = AmplitudeState(np.array([1.0, 1.0]) / math.sqrt(2))
    for z in np.linspace(0.5, 20.0, 10):
        ens = ensemble_average(net, DESIGN_TOPHAT, psi0, float(z), nodes=41)
        predicted = coherence_decay_pair(1.0, LAMBDA0, DESIGN_TOPHAT, float(z), 0.5)
        assert ens.averaged_density[1, 0] == pytest.approx(predicted, abs=1e-6)


# ---------------------------------------------------------------------------
# spectral ensemble

def test_nodes_include_center_for_odd_counts():
    for n in (1, 5, 41):
        lams, wts = spectral_nodes(DESIGN_TOPHAT, n)
        assert np.any(np.abs(lams - LAMBDA0) < 1e-9)
        assert wts.sum() == pytest.approx(1.0, abs=1e-12)


def test_nodes_discrete_uses_lines():
    spec = Spectrum.discrete([(780.0, 1.0), (800.0, 3.0)])
    lams, wts = spectral_nodes(spec, 99)
    assert list(lams) == [780.0, 800.0]
    assert wts.tolist() == [0.25, 0.75]


def test_delta_ensemble_equals_single_run(design_net):
    h = build_hamiltonian(design_net, LAMBDA0)
    psi0 = AmplitudeState.site(h.dimension, 0)
    single = evolve_unitary(h, psi0, [15.0])
    ens = ensemble_average(design_net, Spectrum.delta(LAMBDA0), psi0, 15.0)
    assert ens.node_count == 1
    assert np.max(np.abs(ens.averaged_populations[:4]
                         - single.populations[-1])) < 1e-12


def test_ensemble_density_is_physical(design_net):
    psi0 = AmplitudeState.site(design_net.dimension, 0)
    ens = ensemble_average(design_net, DESIGN_TOPHAT, psi0, 15.0)
    rho = ens.averaged_density
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(ens.averaged_populations - np.diag(rho).real)) < 1e-12
    assert ens.averaged_populations.sum() == pytest.approx(1.0, abs=1e-9)


def test_ensemble_quadrature_convergence(design_net):
    psi0 = AmplitudeState.site(design_net.dimension, 0)
    sink = {}
    for nodes in (41, 81):
        ens = ensemble_average(design_net, DESIGN_TOPHAT, psi0, 15.0, nodes=nodes)
        sink[nodes] = 1.0 - ens.averaged_populations[:4].sum()
    assert abs(sink[41] - sink[81]) < 1e-4


def test_ensemble_purity_non_increasing_in_bandwidth(design_net):
    psi0 = AmplitudeState.site(design_net.dimension, 0)
    purities = []
    for dl in (0.0, 15.0, 35.0, 60.0, 95.0):
        spec = Spectrum.tophat(LAMBDA0, dl) if dl else Spectrum.delta(LAMBDA0)
        rho = ensemble_average(design_net, spec, psi0, 15.0).averaged_density
        purities.append(float(np.trace(rho @ rho).real))
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
    assert purities[0] == pytest.approx(1.0, abs=1e-9)


@given(nodes=st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_ensemble_weights_normalized(nodes):
    lams, wts = spectral_nodes(Spectrum.gaussian(800.0, 30.0), nodes)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(wts >= 0)
