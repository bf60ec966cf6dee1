import csv
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from enaqt import analysis, decoherence
from enaqt import (DispersionModel, HamiltonianMatrix, Spectrum,
                   build_hamiltonian, dark_state_diagnostics, enaqt4_network, enaqt_map,
                   ensemble_average, evolve_trapped, SweepResult, site_state,
                   spectral_nodes, sweep_bandwidth, sweep_wavelength,
                   tophat_gamma_closed_form, wavelength_grid)
from conftest import DARK_VECTOR, LAMBDA0


# ---------------------------------------------------------------------------
# dark-state diagnostics

def test_dark_diagnostics_design_point(h_system):
    report = dark_state_diagnostics(h_system, target=2, input_site=0)
    assert report.n_dark == 1
    vec = report.dark_vectors[:, 0]
    sign = np.sign(vec[np.argmax(np.abs(vec))]) * np.sign(
        DARK_VECTOR[np.argmax(np.abs(vec))])
    assert np.max(np.abs(vec - sign * DARK_VECTOR)) < 1e-10
    assert report.target_overlaps[report.dark_indices[0]] < 1e-12
    assert report.efficiency_bound == pytest.approx(2 / 3, abs=1e-12)


def test_dark_diagnostics_detuned_has_none():
    net = enaqt4_network(delta_beta=1.2, sink=None)
    h = build_hamiltonian(net, LAMBDA0)
    report = dark_state_diagnostics(h, target=2)
    assert report.n_dark == 0
    assert report.efficiency_bound == 1.0


def test_dark_diagnostics_two_site_chain():
    h = HamiltonianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), LAMBDA0, 2)
    report = dark_state_diagnostics(h, target=1)
    assert report.n_dark == 0


def test_dark_diagnostics_rejects_sink(design_net):
    h = build_hamiltonian(design_net, LAMBDA0)
    with pytest.raises(ValueError):
        dark_state_diagnostics(h, target=2)


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before the numerics values were checked")


@pytest.mark.parametrize("threshold", [2.0, 0.0])
def test_dark_diagnostics_refuse_a_threshold_outside_its_range(h_system, monkeypatch,
                                                               threshold):
    # numerics.dark_overlap_threshold's own range: at 2.0 every mode would be dark
    monkeypatch.setattr(analysis, "_eigh", _must_not_run)
    with pytest.raises(ValueError, match=r"^numerics\.dark_overlap_threshold: "):
        dark_state_diagnostics(h_system, target=2, threshold=threshold)


def test_dark_bound_matches_long_run_trapping():
    # the coherent ceiling must equal where the trapped evolution saturates
    rng = np.random.default_rng(7)
    kept = 0
    while kept < 20:
        m = np.zeros((4, 4))
        for i in range(3):
            m[i, i + 1] = m[i + 1, i] = rng.uniform(0.3, 2.0)
        for i in range(4):
            m[i, i] = rng.uniform(-1.5, 1.5)
        kappa = rng.uniform(1.0, 10.0)
        target = int(rng.integers(0, 4))
        energies, modes = np.linalg.eigh(m)
        overlaps = np.abs(modes[target, :]) ** 2
        # skip nets with nearly-dark bright modes: they trap too slowly to
        # reach the asymptote at any affordable z
        if np.any((overlaps >= 1e-12) & (overlaps < 0.02)):
            continue
        kept += 1
        h = HamiltonianMatrix(m, LAMBDA0, 4)
        report = dark_state_diagnostics(h, target=target, input_site=0)
        trace = evolve_trapped(h, kappa, target, site_state(4, 0), [2000.0])
        assert trace.sink_population[-1] == pytest.approx(report.efficiency_bound,
                                                          abs=1e-3)


# ---------------------------------------------------------------------------
# sweeps

def test_wavelength_grid_contains_center():
    grid = wavelength_grid(792.5, 745.0, 840.0, 0.5)
    assert 792.5 in grid
    assert grid[0] == 745.0 and grid[-1] == 840.0
    coarse = wavelength_grid(792.5, 745.0, 840.0, 1.0)
    assert 792.5 in coarse


def test_sweep_flat_without_dispersion():
    disp = DispersionModel(detuning_law="constant", coupling_slope_per_nm=0.0)
    net = enaqt4_network(dispersion=disp)
    lams = np.array([760.0, 792.5, 825.0])
    result = sweep_wavelength(net, lams, 10.0)
    etas = result.column("efficiency")
    assert np.max(np.abs(etas - etas[0])) < 1e-12


def test_sweeps_of_no_wavelengths_have_no_rows(design_net):
    # the wavelength sweep used to fail in the Bessel table of no arguments,
    # while the bandwidth sweep and the map already gave no rows
    assert len(sweep_wavelength(design_net, [], 15.0).column("efficiency")) == 0
    assert decoherence.coherent_efficiency(design_net, [], 15.0).shape == (0,)
    assert len(sweep_bandwidth(design_net, [], 15.0).column("bandwidth_nm")) == 0
    assert len(enaqt_map(design_net, [0.0, 1.0], []).column("efficiency")) == 0


def test_sweep_mirror_symmetry_under_slope_flip():
    # constant detuning: flipping the coupling slope mirrors the curve
    lams = wavelength_grid(LAMBDA0, 772.5, 812.5, 5.0)
    def run(slope):
        disp = DispersionModel(detuning_law="constant",
                               coupling_slope_per_nm=slope)
        return sweep_wavelength(enaqt4_network(dispersion=disp), lams, 10.0)
    plus = run(0.01).column("efficiency")
    minus = run(-0.01).column("efficiency")
    assert np.max(np.abs(plus - minus[::-1])) < 1e-10


def test_sweep_minimum_converges_to_center():
    net = enaqt4_network()
    lams = wavelength_grid(LAMBDA0, 782.5, 802.5, 0.5)
    z = 50.0
    sized = dataclasses.replace(
        net, sink=dataclasses.replace(net.sink, n_sink=200))
    result = sweep_wavelength(sized, lams, z)
    etas = result.column("efficiency")
    lam_min = lams[np.argmin(etas)]
    assert abs(lam_min - LAMBDA0) <= 0.5


def test_sweep_result_csv_round_trip(tmp_path):
    net = enaqt4_network()
    lams = np.array([790.0, 792.5, 795.0])
    result = sweep_wavelength(net, lams, 5.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    result.write_csv(p1)
    sweep_wavelength(net, lams, 5.0).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "wavelength_nm,efficiency"


def test_bandwidth_sweep_shape_and_monotonicity(design_net):
    bws = np.array([0.0, 45.0, 95.0])
    result = sweep_bandwidth(design_net, bws, 15.0, sensitivity=0.1)
    ens = result.column("enaqt_ensemble")
    lind = result.column("enaqt_lindblad")
    assert ens[0] == pytest.approx(0.0, abs=1e-12)
    assert lind[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(ens) > 0)
    assert np.all(np.diff(lind) > 0)
    assert ens[-1] > 0.01
    # paired strength axis follows the closed form
    gammas = result.column("gamma_per_cm")
    for bw, g in zip(bws[1:], gammas[1:]):
        assert g == pytest.approx(tophat_gamma_closed_form(1.0, bw, LAMBDA0), rel=1e-6)
    # detuning sensitivity band: a mismatched design has no exact dark
    # mode, so its baseline is higher and its relative enhancement lower;
    # the band therefore sits at or below the matched curve
    low = result.column("enaqt_lindblad_low")
    high = result.column("enaqt_lindblad_high")
    assert np.all(low <= high)
    assert np.all(high[1:] <= lind[1:] + 1e-12)
    assert low[0] == pytest.approx(0.0, abs=1e-9)
    assert result.metadata["measured_reference"]["enaqt_percent"] == 7.6


@pytest.mark.parametrize("kwargs, key", [
    ({"sensitivity": 1.5}, "sensitivity_fraction"),
    ({"sensitivity": -0.5}, "sensitivity_fraction"),
    ({"sensitivity": 1.0}, "sensitivity_fraction"),
])
def test_bandwidth_sweep_refuses_numerics_outside_their_range(design_net, monkeypatch,
                                                              kwargs, key):
    # the ranges are NumericsConfig's, checked before any propagation
    monkeypatch.setattr(analysis, "band_fit", _must_not_run)
    monkeypatch.setattr(analysis, "_lindblad_runs", _must_not_run)
    with pytest.raises(ValueError, match=rf"^numerics\.{key}: "):
        sweep_bandwidth(design_net, [0.0, 45.0], 15.0, **kwargs)


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
def test_bandwidth_sweep_refuses_non_finite_bandwidths(design_net, monkeypatch, bandwidth):
    monkeypatch.setattr(analysis, "band_fit", _must_not_run)
    monkeypatch.setattr(analysis, "_lindblad_runs", _must_not_run)
    with pytest.raises(ValueError, match="finite and non-negative"):
        sweep_bandwidth(design_net, [0.0, bandwidth], 15.0)


def test_ensemble_column_is_the_exact_band_mean(design_net):
    # a 201-node Gauss rule on the coherent runs themselves is exact to degree
    # 401, past the 257-point fit of a 150 nm band; a 41-node rule is ~5e-9 off
    bws = [0.0, 75.0, 150.0]
    res = sweep_bandwidth(design_net, bws, 15.0, sensitivity=0.0)
    assert res.metadata["ensemble_fit"]["points"] == 257
    for bw, eta in zip(bws[1:], res.column("efficiency_ensemble")[1:]):
        lams, weights = spectral_nodes(Spectrum.tophat(LAMBDA0, bw), 201)
        reference = float(weights @ decoherence.coherent_efficiency(design_net, lams, 15.0))
        assert abs(eta - reference) < 1e-12, bw


def test_ensemble_is_weighted_sum_of_coherent_sweep(design_net):
    # tracing out the wavelength: eta_ens = sum_k w_k eta_coh(lambda_k)
    spectrum = Spectrum.tophat(LAMBDA0, 95.0)
    lams, weights = spectral_nodes(spectrum, 41)
    psi0 = site_state(design_net.dimension, design_net.input_site)
    ens = ensemble_average(design_net, spectrum, psi0, 15.0, nodes=41)
    coherent = sweep_wavelength(design_net, lams, 15.0).column("efficiency")
    assert abs(ens.trapped_fraction - float(weights @ coherent)) < 1e-12


DEFAULT_BANDWIDTHS = 5.0 * np.arange(20)  # the bundled 0..95 nm grid


@pytest.fixture(scope="module")
def direct_ensembles(design_net):
    psi0 = site_state(design_net.dimension, design_net.input_site)
    return np.array([
        ensemble_average(design_net, Spectrum.tophat(LAMBDA0, float(b)), psi0, 15.0,
                         nodes=41).trapped_fraction for b in DEFAULT_BANDWIDTHS])


def _fit_gap(net, direct):
    res = sweep_bandwidth(net, DEFAULT_BANDWIDTHS, 15.0, sensitivity=0.0)
    gap = float(np.max(np.abs(res.column("efficiency_ensemble") - direct)))
    return gap, res.metadata["ensemble_fit"]


def test_band_fit_matches_direct_ensembles(design_net, direct_ensembles):
    gap, fit = _fit_gap(design_net, direct_ensembles)
    assert gap < 1e-12
    assert fit["tail"] < decoherence.FIT_TAIL
    assert decoherence.FIT_FIRST_POINTS < fit["points"] <= decoherence.FIT_MAX_POINTS


def test_band_fit_stopped_early_misses_the_bound(design_net, direct_ensembles,
                                                 monkeypatch):
    # the bound above can fail: a fit cut off at 33 points is too coarse
    monkeypatch.setattr(decoherence, "FIT_FIRST_POINTS", 33)
    monkeypatch.setattr(decoherence, "FIT_TAIL", math.inf)
    gap, fit = _fit_gap(design_net, direct_ensembles)
    assert fit["points"] == 33
    assert gap > 1e-12


def _record_kernel_calls(monkeypatch):
    """The wavelengths of each call band_fit makes to the propagator."""
    calls = []
    kernel = decoherence._wavelength_amplitudes

    def recording(net, wavelengths, amps, z, rows=None):
        calls.append(np.asarray(wavelengths).tolist())
        return kernel(net, wavelengths, amps, z, rows)

    monkeypatch.setattr(decoherence, "_wavelength_amplitudes", recording)
    return calls


def test_band_fit_runs_each_point_once(design_net, monkeypatch):
    # doubling nests the points: the wavelengths of one sweep are the fit's
    # points, each handed to the propagator once
    calls = _record_kernel_calls(monkeypatch)
    res = sweep_bandwidth(design_net, [0.0, 45.0, 95.0], 15.0,
                          sensitivity=0.0)
    lams = [lam for call in calls for lam in call]
    assert len(lams) == res.metadata["ensemble_fit"]["points"]
    assert len(set(lams)) == len(lams)
    assert len(lams) > decoherence.FIT_FIRST_POINTS


def test_band_fit_bundled_sweep_takes_one_propagator_call(design_net, monkeypatch):
    # the first call samples 129 points, which hold the sizes 17, 33 and 65,
    # and the fit converges at 129
    calls = _record_kernel_calls(monkeypatch)
    res = sweep_bandwidth(design_net, DEFAULT_BANDWIDTHS, 15.0, sensitivity=0.0)
    assert res.metadata["ensemble_fit"]["points"] == 129
    assert [len(lams) for lams in calls] == [129]


def test_band_fit_past_the_first_call_runs_only_new_points(design_net, monkeypatch):
    # a 150 nm band needs 257 points: one doubling past the 129 sampled, which
    # runs only the 128 new points, and each wavelength once
    calls = _record_kernel_calls(monkeypatch)
    fit = decoherence.band_fit(design_net, Spectrum.tophat(LAMBDA0, 150.0), 15.0)
    assert [len(lams) for lams in calls] == [129, 128]
    assert fit.points == 257
    assert fit.tail < decoherence.FIT_TAIL
    lams = [lam for call in calls for lam in call]
    assert len(set(lams)) == len(lams)


def test_band_fit_converges_on_a_nested_subset(design_net, monkeypatch):
    # a 20 nm band converges at 33 points, every 4th point of the 129 sampled,
    # with the coefficients of those 33 samples alone
    samples = []
    efficiency = decoherence.coherent_efficiency

    def recording(*args):
        samples.append(efficiency(*args))
        return samples[-1]

    monkeypatch.setattr(decoherence, "coherent_efficiency", recording)
    fit = decoherence.band_fit(design_net, Spectrum.tophat(LAMBDA0, 20.0), 15.0)
    assert [s.size for s in samples] == [129]
    assert fit.points == 33
    assert np.array_equal(fit.coeffs, decoherence._lobatto_coefficients(samples[0][::4]))


def test_band_fit_degenerate_cases(design_net):
    # zero bandwidth only: one coherent run, the reference row itself
    psi0 = site_state(design_net.dimension, design_net.input_site)
    res = sweep_bandwidth(design_net, [0.0], 15.0, sensitivity=0.0)
    assert res.metadata["ensemble_fit"] == {"points": 1, "tail": 0.0}
    assert res.column("enaqt_ensemble")[0] == 0.0
    center = ensemble_average(design_net, Spectrum.tophat(LAMBDA0, 0.0), psi0, 15.0, nodes=41)
    assert res.column("efficiency_ensemble")[0] == pytest.approx(
        center.trapped_fraction, abs=1e-15)
    # z = 0: eta is zero to rounding everywhere, so the first size is enough
    fit = decoherence.band_fit(design_net, Spectrum.tophat(LAMBDA0, 95.0), 0.0)
    assert fit.points == decoherence.FIT_FIRST_POINTS
    lams, _ = spectral_nodes(Spectrum.tophat(LAMBDA0, 95.0), 41)
    assert np.max(np.abs(fit(lams))) < 1e-14
    # the fit does not extrapolate
    with pytest.raises(ValueError, match="outside the fitted band"):
        fit([LAMBDA0 + 60.0])


def test_enhancements_are_zero_at_zero_length(design_net):
    # nothing is trapped at z = 0: every enhancement is 0, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sweep_bandwidth(design_net, [0.0, 45.0, 95.0], 0.0)
        grid = enaqt_map(design_net, [0.0], [0.0, 0.01])
    columns = [name for name in res.columns if name.startswith("enaqt_")]
    assert len(columns) == 4
    for name in columns:
        assert np.all(res.column(name) == 0.0), name
    assert np.all(grid.column("enhancement") == 0.0)


def test_write_csv_pins_its_bytes(tmp_path):
    # integer columns print as floats; -0.0, 1e-300 and rounding-prone values
    # keep their shortest round-trip repr
    result = SweepResult(metadata={}, columns={
        "n": np.array([3, -2, 0]),
        "x_cm": np.array([-0.0, 1e-300, 0.1 + 0.2]),
        "y": [1.5, -7, 2.5e16],
    })
    path = tmp_path / "t.csv"
    result.write_csv(path)
    assert path.read_bytes() == (b"n,x_cm,y\n"
                                 b"3.0,-0.0,1.5\n"
                                 b"-2.0,1e-300,-7.0\n"
                                 b"0.0,0.30000000000000004,2.5e+16\n")


def _csv_module_reference(result, path):
    # the csv.writer version of write_csv, kept as a byte reference
    names = list(result.columns.keys())
    cols = [np.asarray(result.columns[n], dtype=float) for n in names]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for lo in range(0, result.n_rows, 256):
            writer.writerows(zip(*(col[lo:lo + 256].tolist() for col in cols)))


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 513])
def test_write_csv_matches_the_csv_module(rows, tmp_path):
    values = np.array([-0.0, 0.0, 5e-324, 1e-300, 3.0, 1e16, np.nan, np.inf, -np.inf])
    result = SweepResult(metadata={}, columns={
        "a": np.resize(values, rows),
        "b_cm": np.resize(values[::-1], rows),
        "n": np.arange(rows),
        # runs of one value across the 256-row block boundary, and -0.0
        # beside 0.0 in one block
        "runs": np.repeat(values, 60)[:rows],
    })
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    digest = result.write_csv(got)
    _csv_module_reference(result, want)
    assert got.read_bytes() == want.read_bytes()
    assert digest == hashlib.sha256(want.read_bytes()).hexdigest()
    assert got.read_bytes().count(b"\n") == rows + 1


def test_enaqt_map_adds_the_coherent_base_run(design_net):
    zs = np.array([0.0, 2.0, 7.5, 15.0])
    with_base = enaqt_map(design_net, zs, [0.0, 0.01, 0.03])
    without = enaqt_map(design_net, zs, [0.01, 0.03])
    assert without.n_rows == 2 * zs.size
    for name in ("efficiency", "enhancement"):
        assert np.array_equal(without.column(name), with_base.column(name)[zs.size:])
    assert without.metadata["n_gamma"] == 2


def _augmented_efficiency(net, gamma, z):
    # an independent reference: the column-major Liouvillian with
    # d eta/dz = kappa rho_tt as a last component, one scipy exponential per z
    h = build_hamiltonian(net, LAMBDA0, include_sink=False).entries
    kappa, t, site = analysis.effective_kappa(net), net.target_site, analysis.dephasing_site(net)
    eye, proj, damped = np.eye(4), np.zeros((4, 4)), np.zeros((4, 4))
    proj[t, t] = 1.0
    damped[site, :] = damped[:, site] = 1.0
    damped[site, site] = 0.0
    gen = np.zeros((17, 17), dtype=complex)
    gen[:16, :16] = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
                     - 0.5 * kappa * (np.kron(eye, proj) + np.kron(proj, eye))
                     - gamma * np.diag(damped.ravel(order="F")))
    gen[16, t * 5] = kappa
    start = np.zeros(17)
    start[0] = 1.0
    return (scipy.linalg.expm(gen * z) @ start)[16].real


def test_map_efficiency_at_small_z_matches_the_augmented_exponential(design_net):
    # taken as 1 - tr rho, eta here loses up to 1e-10 and the enhancement 4e-3
    zs = wavelength_grid(0.0, 0.0, 15.0, 0.1)
    gammas = np.array([0.0, 0.001, 0.02])
    result = enaqt_map(design_net, zs, gammas)
    eta = result.column("efficiency").reshape(gammas.size, zs.size)
    enh = result.column("enhancement").reshape(gammas.size, zs.size)
    for zi in (1, 2, 5):
        want = np.array([_augmented_efficiency(design_net, g, zs[zi]) for g in gammas])
        assert np.max(np.abs(eta[:, zi] / want - 1.0)) < 1e-12, zs[zi]
        assert np.max(np.abs(enh[1:, zi] / (want[1:] / want[0] - 1.0) - 1.0)) < 1e-6, zs[zi]


def test_enaqt_map_structure(design_net):
    zs = np.array([0.0, 5.0, 10.0, 15.0])
    gammas = np.array([0.0, 0.01, 0.02])
    result = enaqt_map(design_net, zs, gammas)
    assert result.n_rows == zs.size * gammas.size
    eta = result.column("efficiency").reshape(gammas.size, zs.size)
    enh = result.column("enhancement").reshape(gammas.size, zs.size)
    # coherent column: no enhancement by construction
    assert np.all(enh[0] == 0.0)
    # every z slice is non-decreasing in gamma
    assert np.all(np.diff(eta, axis=0) >= -1e-9)
    # z = 0 row: nothing trapped anywhere
    assert np.all(eta[:, 0] == 0.0)
    # gamma = 0 column reproduces the coherent trapped run
    h = build_hamiltonian(design_net, LAMBDA0, include_sink=False)
    kappa = result.metadata["kappa_per_cm"]
    coherent = evolve_trapped(h, kappa, 2, site_state(4, 0), zs)
    assert np.max(np.abs(eta[0] - coherent.sink_population)) < 1e-6
