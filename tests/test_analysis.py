import dataclasses

import numpy as np
import pytest

from enaqt import (AmplitudeState, DispersionModel, HamiltonianMatrix,
                   build_hamiltonian, dark_state_diagnostics, efficiency, enaqt4_network,
                   enaqt_map, enaqt_metric, evolve_trapped, sweep_bandwidth,
                   sweep_wavelength, tophat_gamma_closed_form, wavelength_grid)
from conftest import DARK_VECTOR, LAMBDA0


# ---------------------------------------------------------------------------
# efficiency and the enhancement metric

def test_efficiency_zero_at_start(h_system, design_kappa):
    trace = evolve_trapped(h_system, design_kappa, 2, AmplitudeState.site(4, 0),
                           [0.0, 1.0, 2.0])
    assert efficiency(trace, 0.0) == 0.0


def test_efficiency_refuses_off_grid(h_system, design_kappa):
    trace = evolve_trapped(h_system, design_kappa, 2, AmplitudeState.site(4, 0),
                           [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        efficiency(trace, 1.5)


def test_efficiency_long_run_limit(h_system, design_kappa):
    trace = evolve_trapped(h_system, design_kappa, 2, AmplitudeState.site(4, 0),
                           [0.0, 500.0])
    assert efficiency(trace, 500.0) == pytest.approx(2 / 3, abs=1e-3)


def test_enaqt_metric_reference_arithmetic():
    lams = np.linspace(745.0, 840.0, 191)
    flat = np.full_like(lams, 0.684)
    flat[np.argmin(np.abs(lams - 792.5))] = 0.636
    # away from the center the curve is flat at 0.684, so the band average
    # over any reasonable bandwidth is ~0.684 and the metric ~0.0755
    out = enaqt_metric(lams, flat, 95.0, 792.5)
    assert out == pytest.approx((0.684 - 0.636) / 0.636, rel=1e-2)


def test_enaqt_metric_trivial_cases():
    lams = np.linspace(700.0, 900.0, 201)
    etas = 0.7 + 0.1 * np.sin(lams / 17.0)
    assert enaqt_metric(lams, etas, 0.0, 800.0) == 0.0
    flat = np.full_like(lams, 0.5)
    assert enaqt_metric(lams, flat, 60.0, 800.0) == pytest.approx(0.0, abs=1e-12)


def test_enaqt_metric_scale_invariant():
    lams = np.linspace(700.0, 900.0, 201)
    etas = 0.5 + 0.2 * np.cos((lams - 800.0) / 25.0)
    a = enaqt_metric(lams, etas, 80.0, 800.0)
    b = enaqt_metric(lams, 3.7 * etas, 80.0, 800.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_enaqt_metric_band_must_fit():
    lams = np.linspace(780.0, 805.0, 26)
    with pytest.raises(ValueError):
        enaqt_metric(lams, np.full_like(lams, 0.5), 95.0, 792.0)
    with pytest.raises(ValueError):
        enaqt_metric(lams, np.full_like(lams, 0.5), 10.0, 600.0)


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
        trace = evolve_trapped(h, kappa, target, AmplitudeState.site(4, 0), [2000.0])
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


def test_efficiency_points_view():
    from enaqt import EfficiencyPoint, effective_kappa

    net = enaqt4_network()
    assert effective_kappa(net) == pytest.approx(4.992, abs=1e-3)
    result = sweep_wavelength(net, np.array([790.0, 792.5]), 5.0)
    points = result.efficiency_points("wavelength_nm", 5.0)
    assert [p.axis_value for p in points] == [790.0, 792.5]
    assert all(0.0 <= p.efficiency <= 1.0 for p in points)
    with pytest.raises(ValueError):
        EfficiencyPoint(800.0, 5.0, 1.7)


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
    result = sweep_bandwidth(design_net, bws, 15.0, nodes=21, sensitivity=0.1)
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
    coherent = evolve_trapped(h, kappa, 2, AmplitudeState.site(4, 0), zs)
    assert np.max(np.abs(eta[0] - coherent.sink_population)) < 1e-6
