import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt import (DispersionModel, NetworkSpec, Spectrum,
                   build_hamiltonian, coherence_decay_pair, coherence_time,
                   decoherence_strength, ensemble_average, evolve_unitary, g1,
                   site_state, spectral_nodes, tophat_gamma_closed_form)
from enaqt import decoherence
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
        Spectrum("delta", 800.0)
    with pytest.raises(ValueError):
        Spectrum.tophat(-1.0, 10.0)
    with pytest.raises(ValueError):
        Spectrum.gaussian(800.0, -1.0)


@pytest.mark.parametrize("center, fwhm", [
    (800.0, math.nan), (800.0, math.inf), (math.nan, 10.0), (math.inf, 10.0)])
def test_spectrum_refuses_non_finite_center_or_width(center, fwhm):
    with pytest.raises(ValueError, match="must be finite"):
        Spectrum.tophat(center, fwhm)


# ---------------------------------------------------------------------------
# the band fit's exact mean

def test_band_fit_mean_is_exact_for_a_polynomial():
    # p(x) = 1 + 2x + 3x^2 + 4x^3 averages to 1 + t^2 over [-t, t]
    coeffs = np.polynomial.chebyshev.poly2cheb([1.0, 2.0, 3.0, 4.0])
    fit = decoherence.BandFit(center=2.4e15, half_width=8.0e13, coeffs=coeffs, tail=0.0)
    t = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.max(np.abs(fit.mean(t * fit.half_width) - (1.0 + t * t))) < 1e-14
    with pytest.raises(ValueError, match="outside the fitted band"):
        fit.mean([0.0, 1.01 * fit.half_width])
    # a fit of zero width is its one value
    point = decoherence.BandFit(center=2.4e15, half_width=0.0, coeffs=np.array([0.3]), tail=0.0)
    assert point.mean([0.0]).tolist() == [0.3]


# ---------------------------------------------------------------------------
# first-order coherence

def test_g1_is_one_at_zero_delay():
    for spec in (DESIGN_TOPHAT, Spectrum.gaussian(800.0, 40.0), Spectrum.tophat(800.0, 0.0)):
        assert abs(g1(spec, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_g1_tophat_first_zero():
    spec = DESIGN_TOPHAT
    tau_zero = 2 * math.pi / spec.angular_width
    assert abs(g1(spec, tau_zero)) < 1e-12


def test_g1_delta_never_decoheres():
    spec = Spectrum.tophat(LAMBDA0, 0.0)
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
    assert decoherence_strength(Spectrum.tophat(LAMBDA0, 0.0), 1.0) == 0.0
    assert decoherence_strength(Spectrum.gaussian(LAMBDA0, 0.0), 1.0) == 0.0


def test_gamma_quadrature_matches_closed_form_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        db = rng.uniform(0.2, 3.0)
        lam0 = rng.uniform(500.0, 1200.0)
        dl = rng.uniform(1.0, 0.2 * lam0)
        got = decoherence_strength(Spectrum.tophat(lam0, dl), db)
        want = tophat_gamma_closed_form(db, dl, lam0)
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)


def test_gamma_gaussian_against_analytic_coherence_time():
    spec = Spectrum.gaussian(LAMBDA0, 40.0)
    sigma = spec.angular_width / (2 * math.sqrt(2 * math.log(2)))
    assert coherence_time(spec) == pytest.approx(math.sqrt(math.pi) / sigma, rel=2e-15,
                                                abs=0.0)
    gamma = decoherence_strength(spec, 1.0)
    assert gamma > 0


def test_gamma_domain():
    with pytest.raises(ValueError):
        decoherence_strength(DESIGN_TOPHAT, 0.0)


# ---------------------------------------------------------------------------
# pair coherence decay

def test_pair_coherence_at_zero_distance():
    assert coherence_decay_pair(1.0, LAMBDA0, DESIGN_TOPHAT, 0.0, 0.5 + 0.1j) == \
        pytest.approx(0.5 + 0.1j, abs=1e-15)


def test_pair_coherence_monochromatic_preserves_modulus():
    spec = Spectrum.tophat(LAMBDA0, 0.0)
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
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
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


@pytest.mark.parametrize("spectrum", [DESIGN_TOPHAT, Spectrum.gaussian(LAMBDA0, 30.0)],
                         ids=["tophat", "gaussian"])
def test_nodes_are_the_same_bits_on_every_call(spectrum):
    first = [a.copy() for a in spectral_nodes(spectrum, 41)]
    lams, wts = spectral_nodes(spectrum, 41)
    assert np.array_equal(lams, first[0]) and np.array_equal(wts, first[1])
    # a caller that writes into the returned arrays changes no later call
    lams[:] = 0.0
    wts *= 2.0
    again = spectral_nodes(spectrum, 41)
    assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])


def test_delta_ensemble_equals_single_run(design_net):
    h = build_hamiltonian(design_net, LAMBDA0)
    psi0 = site_state(h.dimension, 0)
    single = evolve_unitary(h, psi0, [15.0])
    ens = ensemble_average(design_net, Spectrum.tophat(LAMBDA0, 0.0), psi0, 15.0, nodes=41)
    assert ens.node_count == 1
    assert np.max(np.abs(ens.averaged_populations[:4]
                         - single.populations[-1])) < 1e-12


def test_ensemble_density_is_physical(design_net):
    psi0 = site_state(design_net.dimension, 0)
    ens = ensemble_average(design_net, DESIGN_TOPHAT, psi0, 15.0, nodes=41)
    rho = ens.averaged_density
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(ens.averaged_populations - np.diag(rho).real)) < 1e-12
    assert ens.averaged_populations.sum() == pytest.approx(1.0, abs=1e-9)


def test_ensemble_rejects_unnormalised_state(design_net):
    psi0 = 2.0 * np.eye(design_net.dimension)[0]
    with pytest.raises(ValueError, match="normalized"):
        ensemble_average(design_net, DESIGN_TOPHAT, psi0, 15.0, nodes=5)


def test_ensemble_quadrature_convergence(design_net):
    psi0 = site_state(design_net.dimension, 0)
    sink = {}
    for nodes in (41, 81):
        ens = ensemble_average(design_net, DESIGN_TOPHAT, psi0, 15.0, nodes=nodes)
        sink[nodes] = 1.0 - ens.averaged_populations[:4].sum()
    assert abs(sink[41] - sink[81]) < 1e-4


def test_ensemble_purity_non_increasing_in_bandwidth(design_net):
    psi0 = site_state(design_net.dimension, 0)
    purities = []
    for dl in (0.0, 15.0, 35.0, 60.0, 95.0):
        spec = Spectrum.tophat(LAMBDA0, dl)
        rho = ensemble_average(design_net, spec, psi0, 15.0, nodes=41).averaged_density
        purities.append(float(np.trace(rho @ rho).real))
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
    assert purities[0] == pytest.approx(1.0, abs=1e-9)


@given(nodes=st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_ensemble_weights_normalized(nodes):
    lams, wts = spectral_nodes(Spectrum.gaussian(800.0, 30.0), nodes)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(wts >= 0)
