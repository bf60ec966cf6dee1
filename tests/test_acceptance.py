"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL line (run with ``pytest -s`` to see them
inline).  These are the exit criteria for the package; module test files
cover the finer-grained behavior.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from enaqt import (HamiltonianMatrix, Spectrum,
                   build_hamiltonian, coherence_decay_pair, dark_state_diagnostics,
                   decoherence_strength, effective_trap_rate,
                   ensemble_average, evolve_lindblad, evolve_trapped, evolve_unitary,
                   pair_transfer, sink_no_return_check, site_state, sweep_bandwidth,
                   sweep_wavelength, tophat_gamma_closed_form, wavelength_grid)
from enaqt.cli import main as cli_main
from enaqt.config import default_config_dict
from conftest import DARK_VECTOR, LAMBDA0, design_network


def _criterion(number: int, description: str, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def test_criterion_01_dark_state(h_system):
    def body():
        report = dark_state_diagnostics(h_system, target=2, input_site=0)
        assert report.n_dark == 1
        k = report.dark_indices[0]
        assert report.target_overlaps[k] < 1e-12
        vec = report.dark_vectors[:, 0]
        align = np.sign(np.dot(vec, DARK_VECTOR))
        assert np.max(np.abs(vec - align * DARK_VECTOR)) < 1e-12
        assert report.efficiency_bound == pytest.approx(2 / 3, abs=1e-12)

    _criterion(1, "dark mode (-1,-1,0,1)/sqrt(3) with ceiling 2/3", body)


def test_criterion_02_asymptotic_efficiency(h_system):
    def body():
        kappa = effective_trap_rate(1.5 / 1.75, 1.75)
        trace = evolve_trapped(h_system, kappa, 2, site_state(4, 0), [500.0])
        assert trace.sink_population[-1] == pytest.approx(2 / 3, abs=1e-3)

    _criterion(2, "trapped fraction reaches 2/3 by z = 500 cm", body)


def test_criterion_03_gamma_closed_form():
    def body():
        spec = Spectrum.tophat(792.5, 95.0)
        gamma = decoherence_strength(spec, 1.0)
        closed = tophat_gamma_closed_form(1.0, 95.0, 792.5)
        # coherence length against the exact closed form at the stated 1e-6
        # relative; the 5-digit quote 0.019077 is checked at its own
        # rounding precision (the closed form is 0.0190785...)
        assert gamma == pytest.approx(closed, rel=1e-6)
        assert gamma == pytest.approx(0.019077, abs=2e-6)
        assert gamma == pytest.approx(0.02, rel=0.05)

    _criterion(3, "decoherence strength 0.019077 /cm from the coherence length", body)


def test_criterion_04_pair_coherence_consistency():
    def body():
        from test_decoherence import two_guide_net

        net = two_guide_net(1.0)
        spec = Spectrum.tophat(LAMBDA0, 95.0)
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
        for z in np.linspace(0.5, 20.0, 10):
            ens = ensemble_average(net, spec, psi0, float(z), nodes=41)
            want = coherence_decay_pair(1.0, LAMBDA0, spec, float(z), 0.5)
            assert abs(ens.averaged_density[1, 0] - want) < 1e-6

    _criterion(4, "two-guide ensemble reproduces the coherence envelope", body)


def test_criterion_05_two_guide_oracle():
    def body():
        rng = np.random.default_rng(123)
        for _ in range(100):
            c = rng.uniform(0.05, 4.0)
            db = rng.uniform(-6.0, 6.0)
            z = rng.uniform(0.0, 25.0)
            h = HamiltonianMatrix(np.array([[0.0, c], [c, db]]), 2)
            trace = evolve_unitary(h, site_state(2, 0), [z])
            assert abs(trace.populations[-1, 1] - pair_transfer(c, db, z)) < 1e-10

    _criterion(5, "propagator matches the beat formula on 100 random pairs", body)


def test_criterion_06_effective_rate_validity(design_net_short_sink, h_system,
                                              design_kappa):
    def body():
        # A 21-guide chain is a sink only until its far-end reflection
        # reaches the system; the rate model promises the trapped fraction,
        # not the per-site transients (README, "Install and test").
        net = design_net_short_sink
        zs = np.arange(0.0, 15.0 + 1e-9, 0.1)
        # the check over [0, z] for each z of the grid
        absorbs = [sink_no_return_check(net, zs[:k + 1], threshold=1e-3).max_system_shift
                   <= 1e-3 for k in range(zs.size)]
        assert not absorbs[-1], "the 21-guide chain no longer reflects by 15 cm"
        i = max((k for k, ok in enumerate(absorbs) if ok), default=0)
        z_valid = zs[i]
        assert z_valid >= 10.0, (
            f"the 21-guide chain stops absorbing at z = {z_valid:.1f} cm, "
            f"before 10 cm")

        h = build_hamiltonian(net, LAMBDA0)
        explicit = evolve_unitary(h, site_state(h.dimension, 0), zs)
        effective = evolve_trapped(h_system, design_kappa, 2,
                                   site_state(4, 0), zs)
        gap = abs(explicit.sink_population[i] - effective.sink_population[i])
        assert gap <= 0.05, (
            f"explicit (21 sink guides) vs effective-rate trapped fraction "
            f"disagree by {gap:.4f} > 0.05 at z_valid = {z_valid:.1f} cm, the "
            f"last z at which the chain still absorbs")

    _criterion(6, "effective rate reproduces a 21-guide sink's efficiency "
                  "within 0.05 while the chain absorbs", body)


def test_criterion_07_monotonic_enhancement(h_system):
    def body():
        kappa = effective_trap_rate(1.5 / 1.75, 1.75)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        etas = []
        for gamma in np.arange(0.0, 0.0201, 0.002):
            trace = evolve_lindblad(h_system, kappa, 2, float(gamma), 3, rho0,
                                    [0.0, 15.0])
            etas.append(trace.sink_population[-1])
        assert np.all(np.diff(etas) >= 0.0)

        net = design_network()
        res = sweep_bandwidth(net, [0.0, 20.0], 15.0, sensitivity=0.0)
        assert res.column("enaqt_ensemble")[0] == pytest.approx(0.0, abs=1e-12)
        assert res.column("enaqt_lindblad")[0] == pytest.approx(0.0, abs=1e-9)

    _criterion(7, "efficiency non-decreasing in gamma; zero enhancement at "
                  "zero bandwidth", body)


def test_criterion_08_asymptotic_enhancement(h_system):
    def body():
        kappa = effective_trap_rate(1.5 / 1.75, 1.75)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        trace = evolve_lindblad(h_system, kappa, 2, 0.5, 3, rho0, [0.0, 500.0])
        assert trace.sink_population[-1] >= 0.95

    _criterion(8, "strong dephasing drives the efficiency above 0.95 by "
                  "z = 500 cm", body)


def test_criterion_09_sweep_anchors():
    def body():
        # (a) the efficiency dip sits at the design wavelength once the
        #     quasi-dark leak has had room to act
        net = design_network()
        z = 50.0
        sized = dataclasses.replace(net, sink=dataclasses.replace(net.sink, n_sink=290))
        lams = wavelength_grid(LAMBDA0, 745.0, 840.0, 1.0)
        sweep = sweep_wavelength(sized, lams, z)
        lam_min = lams[int(np.argmin(sweep.column("efficiency")))]
        assert abs(lam_min - LAMBDA0) <= 1.0

        # (b) enhancement positive and increasing with bandwidth; the bench
        #     reference (7.6 +- 1.2 % at 95 nm) is carried in the metadata,
        #     not asserted numerically, since it depends on unmeasured
        #     device dispersion
        res = sweep_bandwidth(net, [0.0, 45.0, 95.0], 15.0,
                              sensitivity=0.0)
        ens = res.column("enaqt_ensemble")
        assert np.all(np.diff(ens) > 0)
        assert ens[-1] > 0.0
        ref = res.metadata["measured_reference"]
        assert ref["enaqt_percent"] == 7.6 and ref["bandwidth_nm"] == 95.0

    _criterion(9, "efficiency minimum at the design wavelength; enhancement "
                  "positive and increasing", body)


def test_criterion_10_worker_determinism(tmp_path):
    def body():
        raw = default_config_dict()
        raw["experiment"].update({
            "wavelength_min_nm": 788.0, "wavelength_max_nm": 798.0,
            "wavelength_step_nm": 0.5, "z_cm": 5.0,
        })
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        blobs = set()
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            rc = cli_main(["sweep-wavelength", str(cfg), "--output-dir", str(out),
                           "--workers", str(workers)])
            assert rc == 0
            blobs.add((out / "wavelength_sweep.csv").read_bytes())
        assert len(blobs) == 1

    _criterion(10, "CSV output byte-identical across 1, 2, and 8 workers", body)
