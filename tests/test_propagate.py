import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enaqt import (DispersionModel, HamiltonianMatrix, NetworkSpec, SinkSpec,
                   build_hamiltonian, bundled_network_path,
                   evolve_lindblad, evolve_trapped, evolve_unitary, parse_config,
                   sink_no_return_check, site_state, tophat_gamma_closed_form,
                   wavelength_grid)
from enaqt import analysis, decoherence, propagate
from enaqt.lattice import DETUNING_LAWS
from enaqt.propagate import (NumericalError, _check_density_stack, _density_margins, _expm,
                             _lindblad_runs, _propagate, _scaling_exponent,
                             _unitary_amplitudes, _wavelength_amplitudes)
from conftest import DARK_VECTOR, LAMBDA0, design_network

ZS = np.arange(0.0, 15.0 + 1e-9, 0.1)


# ---------------------------------------------------------------------------
# unitary engine

def test_single_guide_is_phase_only():
    h = HamiltonianMatrix(np.array([[3.7]]), 1)
    trace = evolve_unitary(h, site_state(1, 0), [10.0])
    assert trace.populations[-1, 0] == pytest.approx(1.0, abs=1e-12)


def test_two_guide_beat():
    h = HamiltonianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    trace = evolve_unitary(h, site_state(2, 0), [math.pi / 4])
    assert trace.populations[-1] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_dark_initial_state_is_stationary(h_system):
    trace = evolve_unitary(h_system, DARK_VECTOR, ZS)
    expected = np.array([1 / 3, 1 / 3, 0.0, 1 / 3])
    assert np.max(np.abs(trace.populations - expected)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_unitary_norm_conservation_random_h(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-2.0, 2.0, size=(12, 12))
    h = HamiltonianMatrix((m + m.T) / 2, 12)
    psi0 = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi0 = psi0 / np.linalg.norm(psi0)
    trace = evolve_unitary(h, psi0, np.linspace(0.0, 100.0, 11))
    totals = trace.populations.sum(axis=1)
    assert np.max(np.abs(totals - 1.0)) < 1e-10


def test_population_bookkeeping_explicit_sink(design_net):
    h = build_hamiltonian(design_net, LAMBDA0)
    trace = evolve_unitary(h, site_state(h.dimension, 0), ZS)
    # system + trapped account for everything
    assert np.max(np.abs(trace.populations.sum(axis=1)
                         + trace.sink_population - 1.0)) < 1e-6
    assert trace.populations.shape[1] == 4


def test_unitary_requires_normalized_state(h_system):
    with pytest.raises(ValueError):
        evolve_unitary(h_system, np.array([0.5, 0, 0, 0]), [1.0])


NAN_VECTOR = np.array([np.nan, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("run", [
    lambda h, kappa: evolve_unitary(h, NAN_VECTOR, [1.0]),
    lambda h, kappa: evolve_trapped(h, kappa, 2, NAN_VECTOR, [1.0]),
    lambda h, kappa: evolve_lindblad(h, kappa, 2, 0.1, 3, NAN_VECTOR, [1.0]),
    lambda h, kappa: evolve_lindblad(h, kappa, 2, 0.1, 3, np.diag(NAN_VECTOR), [1.0]),
    lambda h, kappa: evolve_lindblad(h, kappa, 2, 0.1, 3, np.diag([np.inf, 0.0, 0.0, 0.0]),
                                     [1.0]),
], ids=["evolve_unitary", "evolve_trapped", "evolve_lindblad-vector",
        "evolve_lindblad-matrix", "evolve_lindblad-inf-matrix"])
def test_non_finite_initial_state_is_refused(h_system, design_kappa, run):
    # NaN passes every norm and trace bound; it must be refused by name
    with pytest.raises(ValueError, match="finite"):
        run(h_system, design_kappa)


# ---------------------------------------------------------------------------
# trapped engine

def test_pure_decay_single_site():
    h = HamiltonianMatrix(np.array([[0.0]]), 1)
    trace = evolve_trapped(h, 1.0, 0, site_state(1, 0), [3.0])
    assert trace.populations[-1, 0] == pytest.approx(math.exp(-3.0), rel=1e-10)


def test_zero_kappa_matches_unitary(h_system):
    psi0 = site_state(4, 0)
    free = evolve_unitary(h_system, psi0, ZS)
    trapped = evolve_trapped(h_system, 0.0, 2, psi0, ZS)
    assert np.max(np.abs(free.populations - trapped.populations)) < 1e-12


def test_asymptotic_sink_population(h_system, design_kappa):
    trace = evolve_trapped(h_system, design_kappa, 2, site_state(4, 0), [500.0])
    assert trace.sink_population[-1] == pytest.approx(2 / 3, abs=1e-3)


def test_trapped_norm_non_increasing(h_system, design_kappa):
    trace = evolve_trapped(h_system, design_kappa, 2, site_state(4, 0), ZS)
    survival = trace.populations.sum(axis=1)
    assert np.all(np.diff(survival) <= 1e-12)


def test_dark_state_never_trapped(h_system, design_kappa):
    trace = evolve_trapped(h_system, design_kappa, 2, DARK_VECTOR, ZS)
    assert np.max(trace.sink_population) < 1e-9


def test_trapped_rejects_negative_kappa(h_system):
    with pytest.raises(ValueError):
        evolve_trapped(h_system, -0.1, 2, site_state(4, 0), [1.0])
    # a NaN passes kappa < 0, and NaN and inf used to fail only at the 1-norm
    # check, with NumericalError
    psi0 = site_state(4, 0)
    for kappa in (np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
            evolve_trapped(h_system, kappa, 2, psi0, [1.0])
        with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
            evolve_lindblad(h_system, kappa, 2, 0.1, 0, psi0, [1.0])


# ---------------------------------------------------------------------------
# master-equation engine

@pytest.mark.parametrize("psi0", [site_state(4, 0), DARK_VECTOR], ids=["input", "dark"])
@pytest.mark.parametrize("zs", [ZS, [111.7]], ids=["map-grid", "long-z"])
def test_trapped_is_the_lindblad_engine_without_dephasing(h_system, design_kappa, psi0, zs):
    trapped = evolve_trapped(h_system, design_kappa, 2, psi0, zs)
    lind = evolve_lindblad(h_system, design_kappa, 2, 0.0, 3, psi0, zs)
    for field in ("z_grid", "populations", "sink_population", "densities"):
        assert np.array_equal(getattr(trapped, field), getattr(lind, field)), field


def test_lindblad_closed_limit_matches_trapped(h_system, design_kappa):
    zs = np.linspace(0.0, 15.0, 16)
    psi0 = site_state(4, 0)
    trapped = evolve_trapped(h_system, design_kappa, 2, psi0, zs)
    lind = evolve_lindblad(h_system, design_kappa, 2, 0.0, 3,
                           np.outer(psi0, psi0.conj()), zs)
    assert np.max(np.abs(trapped.populations - lind.populations)) < 1e-6


@pytest.mark.parametrize("state", [site_state(4, 0), np.diag([1.0, 0.0, 0.0, 0.0])],
                         ids=["vector", "matrix"])
def test_lindblad_accepts_every_initial_state_form(h_system, design_kappa, state):
    zs = [0.0, 2.0, 5.0]
    want = evolve_trapped(h_system, design_kappa, 2, site_state(4, 0), zs)
    got = evolve_lindblad(h_system, design_kappa, 2, 0.0, 3, state, zs)
    assert np.max(np.abs(got.populations - want.populations)) < 1e-12


@pytest.mark.parametrize("state", [np.array([0.5, 0.0, 0.0, 0.0]),
                                   np.diag([0.5, 0.0, 0.0, 0.0])],
                         ids=["vector", "matrix"])
def test_lindblad_rejects_initial_trace_other_than_one(h_system, state):
    with pytest.raises(ValueError, match="unit trace"):
        evolve_lindblad(h_system, 1.0, 2, 0.0, 3, state, [1.0])


def _unit_trace_matrix(top_left):
    rho = np.zeros((4, 4))
    rho[:2, :2] = top_left
    return rho


@pytest.mark.parametrize("state, message", [
    (_unit_trace_matrix([[0.5, 1e-11], [0.0, 0.5]]), "not Hermitian"),
    (_unit_trace_matrix([[0.5, 0.9], [0.9, 0.5]]), "eigenvalue -4.000e-01"),
    (_unit_trace_matrix([[1.0 + 1e-8, 0.0], [0.0, -1e-8]]), "eigenvalue -1.000e-08"),
], ids=["hermiticity-error-1e-11", "negative-eigenvalue", "eigenvalue-minus-1e-8"])
def test_lindblad_refuses_an_unphysical_initial_density(h_system, state, message):
    # an input fault, not an engine failure: ValueError before any step
    with pytest.raises(ValueError, match=message):
        evolve_lindblad(h_system, 1.0, 2, 0.0, 3, state, [1.0])


def test_lindblad_accepts_an_initial_density_within_rounding(h_system, design_kappa):
    # errors at the bounds' scale of rounding, not of physics, pass; the
    # engine starts from the Hermitian part of rho0
    rho0 = _unit_trace_matrix([[1.0 + 1e-10, 1e-13], [0.0, -1e-10]])
    trace = evolve_lindblad(h_system, design_kappa, 2, 0.0, 3, rho0, [0.0, 1.0])
    assert trace.densities[0][0, 1] == 5e-14


def test_lindblad_pure_coherence_decay():
    # free, untrapped pair with an initial coherence: the damped element
    # decays at exactly the dephasing rate
    h = HamiltonianMatrix(np.zeros((2, 2)), 2)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    trace = evolve_lindblad(h, 0.0, 0, 0.2, 1, rho0, [0.0, 5.0])
    assert trace.densities[-1][0, 1] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-7)
    assert trace.densities[-1][0, 0] == pytest.approx(0.5, abs=1e-9)


def test_lindblad_dephasing_increases_trapping(h_system, design_kappa):
    rho0 = site_state(4, 0)
    quiet = evolve_lindblad(h_system, design_kappa, 2, 0.0, 3, rho0, [0.0, 15.0])
    noisy = evolve_lindblad(h_system, design_kappa, 2, 0.02, 3, rho0, [0.0, 15.0])
    assert noisy.sink_population[-1] > quiet.sink_population[-1]


def test_lindblad_state_stays_physical(h_system, design_kappa):
    psi0 = site_state(4, 0)
    rho0 = np.outer(psi0, psi0.conj())
    trace = evolve_lindblad(h_system, design_kappa, 2, 0.01, 3, rho0,
                            np.linspace(0.0, 15.0, 31))
    for rho in trace.densities:
        assert np.array_equal(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= propagate.MIN_EIGENVALUE
    traces = np.einsum("zii->z", trace.densities).real
    assert np.all(np.diff(traces) <= propagate.MAX_TRACE_INCREASE)


def test_propagate_matches_one_expm_per_z():
    # a random contraction: -i(H - i L/2) with H Hermitian and loss L >= 0
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    gen = -1j * (m + m.conj().T) - 0.5 * np.diag(rng.uniform(0.0, 2.0, size=6))
    v0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    v0 /= np.linalg.norm(v0)
    # non-zero start, repeated z values and uneven steps
    zs = np.array([0.3, 0.3, 0.8, 1.3, 2.05, 4.0, 4.0, 7.5])
    got = _propagate(gen[None], v0, zs)[0]
    want = np.array([scipy.linalg.expm(gen * z) @ v0 for z in zs])
    assert np.max(np.abs(got - want)) < 1e-13


def _moved(zs, index):
    zs = zs.copy()
    zs[index] = np.nextafter(zs[index], np.inf)
    return zs


def _count_expm_calls(monkeypatch):
    """The number of matrices of each ``_expm`` call, in call order."""
    sizes = []

    def counting(stack, s):
        sizes.append(stack.shape[0])
        return _expm(stack, s)

    monkeypatch.setattr(propagate, "_expm", counting)
    return sizes


@pytest.mark.parametrize("zs, per_run", [
    # rounded differences spread over 8 values, all of them 0.1
    (0.1 * np.arange(151), 1),
    (np.linspace(0.0, 15.0, 31), 1),
    # the first step, 0.5, and then h
    (0.5 + 0.1 * np.arange(151), 2),
    # one interior z off the uniform grid: one exponential per distinct step
    (_moved(0.1 * np.arange(151), 75), None),
], ids=["cli-grid", "linspace", "non-zero-start", "moved-z"])
def test_uniform_grid_steps_with_one_exponential(zs, per_run, monkeypatch):
    if per_run is None:
        steps = np.unique(np.diff(zs, prepend=0.0))
        per_run = np.count_nonzero(steps)
        assert per_run > 2
    sizes = _count_expm_calls(monkeypatch)
    gens = np.stack([_unit_norm_generator(4, seed) for seed in (11, 12)])
    # a third run whose largest step has 1-norm 40: three squarings, against
    # none for the two unit-norm runs
    steep = _unit_norm_generator(4, 13) * 40.0 / np.max(np.diff(zs, prepend=0.0))
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    got = _propagate(np.concatenate([gens, steep[None]]), v0, zs)
    # the two runs of one scaling share a call, the third has one of its own
    assert sizes == [2 * per_run, per_run]
    for gen, run in zip(gens, got):
        want = np.array([scipy.linalg.expm(gen * z) @ v0 for z in zs])
        assert np.max(np.abs(run - want)) < 1e-13
    sizes.clear()
    assert np.array_equal(got[2], _propagate(steep[None], v0, zs)[0])
    assert sizes == [per_run]


def test_cli_stacks_exponentiate_in_capped_calls(monkeypatch):
    # every bundled run shares one scaling: sweep-bandwidth's 60 runs go
    # through ceil(60 / 16) = 4 calls, map's 21 through 2
    config = parse_config(bundled_network_path())
    net, exp, num = config.network, config.experiment, config.numerics
    sizes = _count_expm_calls(monkeypatch)
    analysis.sweep_bandwidth(
        net, wavelength_grid(0.0, 0.0, exp.bandwidth_max_nm, exp.bandwidth_step_nm),
        exp.z_cm, sensitivity=num.sensitivity_fraction)
    assert len(sizes) == 4 and sum(sizes) == 60
    assert max(sizes) <= propagate.EXPM_STACK
    sizes.clear()
    analysis.enaqt_map(net, wavelength_grid(0.0, 0.0, exp.z_cm, exp.z_step_cm),
                       wavelength_grid(0.0, 0.0, exp.gamma_max_per_cm,
                                       exp.gamma_step_per_cm))
    assert len(sizes) == 2 and sum(sizes) == 21


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_generator_in_a_stack_fails_before_any_step(bad, monkeypatch):
    def no_step(*args):
        raise AssertionError("a step was exponentiated")

    monkeypatch.setattr(propagate, "_expm", no_step)
    # the bad run is the last one, in the second chunk of runs
    gens = np.stack([_unit_norm_generator(4, seed) for seed in range(70)])
    gens[-1, 1, 2] = bad
    h = HamiltonianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    # refused before any generator is scaled by a step: inf times a step is
    # a complex product with an inf times 0 in it, which numpy reports as invalid
    with pytest.raises(NumericalError, match="1-norm"):
        _propagate(gens, np.array([1.0, 0.0, 0.0, 0.0]), ZS)
    # a bad rate is refused before any generator is built
    with pytest.raises(ValueError, match="dephasing rate must be finite and non-negative"):
        _lindblad_runs([h, h], [[0.1, 0.2], [0.3, bad]], 0.5, 1, 0,
                       site_state(2, 0), ZS)


def _unit_norm_generator(n, seed):
    # -i(H - iL/2) with H Hermitian and loss L >= 0, scaled to 1-norm 1
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gen = -1j * (m + m.conj().T) - 0.5 * np.diag(rng.uniform(0.0, 2.0, size=n))
    return gen / np.abs(gen).sum(axis=0).max()


@pytest.mark.parametrize("stack", [
    np.zeros((1, 3, 3)),
    np.array([[[-0.4 + 1.3j, 1.0], [0.0, -0.4 + 1.3j]]]),  # defective
    np.stack([_unit_norm_generator(16, 5) * s for s in (1e-3, 1e-1, 1.0, 1e1, 1e2)]),
    # 1-norm 40 > theta_13 = 5.37: three squarings
    np.stack([_unit_norm_generator(4, 7) * 40.0]),
], ids=["zero", "jordan-block", "mixed-norm-stack", "squared"])
def test_expm_matches_scipy(stack):
    # one scaling for the stack, set by its largest 1-norm
    got = _expm(stack, _scaling_exponent(float(np.abs(stack).sum(axis=-2).max())))
    for a, exp_a in zip(stack, got):
        want = scipy.linalg.expm(a)
        assert np.max(np.abs(exp_a - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_failure_is_numerical_error(monkeypatch):
    with pytest.raises(NumericalError, match="1-norm"):
        _expm(np.full((1, 2, 2), np.nan), _scaling_exponent(math.nan))

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalError, match="singular"):
        _expm(np.eye(2)[None], _scaling_exponent(1.0))


def test_lindblad_matches_liouvillian_exponential(h_system, design_kappa):
    # independent reference: the column-major (Fortran-order) Liouvillian,
    # exponentiated once per z
    gamma, target, site = 0.05, 2, 3
    h = h_system.entries
    eye = np.eye(4)
    proj = np.zeros((4, 4))
    proj[target, target] = 1.0
    damped = np.zeros((4, 4))
    damped[site, :] = damped[:, site] = 1.0
    damped[site, site] = 0.0
    gen = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
           - 0.5 * design_kappa * (np.kron(eye, proj) + np.kron(proj, eye))
           - gamma * np.diag(damped.ravel(order="F")))
    rho0 = np.outer(DARK_VECTOR + np.eye(4)[0], DARK_VECTOR + np.eye(4)[0]).astype(complex)
    rho0 /= np.trace(rho0)
    zs = np.array([0.0, 0.7, 3.0, 15.0, 40.0])
    trace = evolve_lindblad(h_system, design_kappa, target, gamma, site, rho0, zs)
    want = np.array([(scipy.linalg.expm(gen * z) @ rho0.ravel(order="F"))
                     .reshape(4, 4, order="F") for z in zs])
    assert np.max(np.abs(trace.densities - want)) < 1e-12


@pytest.mark.parametrize("index, value, message", [
    ((1, 0, 0), 1.5, "trace grows"),
    (1, [[0.7, 0.6], [0.6, 0.3]], "eigenvalue"),
])
def test_density_stack_check_rejects_unphysical(index, value, message):
    rhos = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.1], [0.1, 0.3]]], dtype=complex)
    _check_density_stack(rhos)  # a physical stack passes
    rhos[index] = value
    with pytest.raises(NumericalError, match=message):
        _check_density_stack(rhos)


@pytest.mark.parametrize("index, value, field, want", [
    ((1, 0, 0), 1.5, "max_trace_increase", 0.8),  # trace 1.0 -> 1.8
    (1, [[0.7, 0.6], [0.6, 0.3]], "min_eigenvalue", 0.5 - math.sqrt(0.4)),
])
def test_density_margins_read_the_injected_value(index, value, field, want):
    rhos = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.1], [0.1, 0.3]]], dtype=complex)
    good = _check_density_stack(rhos)
    assert set(good) == {"max_trace_increase", "min_eigenvalue"}
    assert good["max_trace_increase"] == 0.0
    assert good["min_eigenvalue"] == pytest.approx(0.0, abs=1e-15)
    rhos[index] = value
    assert _density_margins(rhos)[field] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("run, z", [(0, 0), (2, 3)], ids=["first", "last"])
def test_density_margins_read_a_negative_eigenvalue_anywhere_in_a_stack(run, z):
    # 3 runs x 4 z of one physical density; the injected one keeps its trace
    rhos = np.tile(np.array([[0.5, 0.1], [0.1, 0.3]], dtype=complex), (3, 4, 1, 1))
    assert _density_margins(rhos)["min_eigenvalue"] > 0.0
    rhos[run, z] = [[0.5, 0.6], [0.6, 0.3]]
    assert _density_margins(rhos)["min_eigenvalue"] == pytest.approx(
        0.4 - math.sqrt(0.37), abs=1e-15)
    with pytest.raises(NumericalError, match="eigenvalue"):
        _check_density_stack(rhos)


def _map_grid():
    return np.arange(151) * 0.1, np.arange(21) * 0.0025


def _extended_grid():
    return np.arange(101) * 5.0, np.arange(21) * 0.025


def _bandwidth_grid():
    gammas = np.array([tophat_gamma_closed_form(1.0, b, LAMBDA0) for b in range(0, 100, 5)])
    return np.array([0.0, 15.0]), gammas


def _detuned(net, scale):
    return dataclasses.replace(net, site_detunings=tuple(
        (s, d * scale) for s, d in net.site_detunings))


@pytest.mark.parametrize("grid", [_map_grid, _extended_grid, _bandwidth_grid,
                                  lambda: (np.array([0.3, 0.3, 0.8, 1.3, 2.05, 4.0, 4.0, 7.5]),
                                           # rates far apart: runs need different scalings
                                           np.array([0.0, 0.01, 0.2, 40.0]))],
                         ids=["map", "map-extended", "bandwidth", "non-zero-start-repeated-z"])
def test_stacked_runs_match_one_at_a_time(grid, design_net_open, design_kappa):
    zs, gammas = grid()
    scales = (1.0, 0.9, 1.1)
    hams = [build_hamiltonian(_detuned(design_net_open, s), LAMBDA0) for s in scales]
    rates = [s * gammas for s in scales]
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    stacked, etas, margins = _lindblad_runs(hams, rates, design_kappa, 2, 3, rho0, zs)
    assert stacked.shape == (3 * gammas.size, zs.size, 4, 4)
    assert etas.shape == (3 * gammas.size, zs.size)
    traces = [evolve_lindblad(h, design_kappa, 2, float(g), 3, rho0, zs)
              for h, row in zip(hams, rates) for g in row]
    alone = np.array([trace.densities for trace in traces])
    alone_etas = np.array([trace.sink_population for trace in traces])
    assert np.array_equal(stacked, alone)
    assert np.array_equal(etas, alone_etas)
    assert margins == _check_density_stack(alone, alone_etas)


def _augmented_liouvillian(h, kappa, target, gamma, site):
    """The complex row-major generator of rho and eta: -i(H_eff x I - I x
    conj(H_eff)) - gamma diag(mask), with deta/dz = kappa rho_tt."""
    d = h.shape[0]
    h_eff = h - 0.5j * kappa * np.diag(np.eye(d)[target])
    mask = np.zeros((d, d))
    mask[site, :] = mask[:, site] = 1.0
    mask[site, site] = 0.0
    eye = np.eye(d)
    gen = np.zeros((d * d + 1, d * d + 1), dtype=complex)
    gen[:-1, :-1] = (-1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
                     - gamma * np.diag(mask.ravel()))
    gen[-1, target * (d + 1)] = kappa
    return gen


@st.composite
def lindblad_problems(draw):
    """Random system blocks of 2 to 6 guides, each with its own dephasing
    rates, a trapping rate and target, a dephasing site, a mixed start
    density and a non-decreasing z grid."""
    d = draw(st.integers(2, 6))
    entries = st.lists(st.floats(-1.5, 1.5), min_size=d * d, max_size=d * d)
    hams = [HamiltonianMatrix(np.triu(m) + np.triu(m, 1).T, d)
            for m in (np.reshape(draw(entries), (d, d))
                      for _ in range(draw(st.integers(1, 2))))]
    n_rates = draw(st.integers(1, 3))
    rates = [draw(st.lists(st.floats(0.0, 1.0), min_size=n_rates, max_size=n_rates))
             for _ in hams]
    rank = draw(st.integers(1, d))
    parts = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d * rank,
                                     max_size=2 * d * rank)), (2, d, rank))
    vectors = parts[0] + 1j * parts[1]
    rho0 = vectors @ vectors.conj().T
    trace = np.trace(rho0).real
    assume(trace > 1e-3)
    rho0 = 0.5 * (rho0 + rho0.conj().T) / trace
    # no z between 0 and 1e-6: scipy's expm of a triangular generator divides
    # by differences of its diagonal, which overflows at a subnormal z
    z = st.one_of(st.just(0.0), st.floats(1e-6, 8.0))
    zs = sorted(draw(st.lists(z, min_size=1, max_size=4)))
    return (hams, rates, draw(st.floats(0.0, 2.0)), draw(st.integers(0, d - 1)),
            draw(st.integers(0, d - 1)), rho0, zs)


@given(problem=lindblad_problems())
@settings(max_examples=40, deadline=None)
def test_lindblad_runs_match_expm_of_the_complex_liouvillian(problem):
    hams, rates, kappa, target, site, rho0, zs = problem
    rhos, etas, _ = _lindblad_runs(hams, rates, kappa, target, site, rho0, zs)
    d = rho0.shape[0]
    start = np.append(rho0.ravel(), 0.0)
    runs = [(h, g) for h, row in zip(hams, rates) for g in row]
    for run, (h, gamma) in enumerate(runs):
        gen = _augmented_liouvillian(h.entries, kappa, target, gamma, site)
        want = np.array([scipy.linalg.expm(gen * z) @ start for z in zs])
        assert np.max(np.abs(rhos[run] - want[:, :-1].reshape(-1, d, d))) < 1e-12
        assert np.max(np.abs(etas[run] - want[:, -1].real)) < 1e-12


def test_a_subnormal_step_is_exponentiated_unscaled(h_system, design_kappa):
    # its 1-norm over theta_13 underflows to 0, whose log2 is undefined
    assert _scaling_exponent(5e-324) == 0
    rhos, etas, _ = _lindblad_runs([h_system], [[0.01]], design_kappa, 2, 3,
                                   site_state(4, 0), [0.0, 5e-324])
    assert np.max(np.abs(rhos[0, 1] - rhos[0, 0])) < 1e-15
    assert np.max(etas) < 1e-300


def test_engine_densities_are_exactly_hermitian(cli_stacks):
    # each density is scattered from its real coordinates: rho_ji is the
    # conjugate of rho_ij to the bit
    for rhos in cli_stacks.values():
        assert np.array_equal(rhos, np.conj(np.swapaxes(rhos, -1, -2)))


def test_balance_check_reads_and_rejects_a_trapped_fraction_off_the_trace():
    # two runs that lose half their light, of which eta holds all
    rhos = np.tile(np.diag([0.25, 0.25]).astype(complex), (2, 3, 1, 1))
    rhos[:, 0] = np.diag([1.0, 0.0])
    etas = np.tile([0.0, 0.5, 0.5], (2, 1))
    assert _check_density_stack(rhos, etas)["max_balance_error"] == 0.0
    assert "max_balance_error" not in _check_density_stack(rhos)
    etas[1, 2] += 5e-10
    assert _check_density_stack(rhos, etas)["max_balance_error"] == pytest.approx(
        5e-10, rel=1e-6, abs=0.0)
    etas[1, 2] += 1.5e-9
    with pytest.raises(NumericalError, match="do not sum to 1 \\(error 2.000e-09\\)"):
        _check_density_stack(rhos, etas)
    etas[1, 2] = np.nan
    with pytest.raises(NumericalError, match="do not sum to 1 \\(error nan\\)"):
        _check_density_stack(rhos, etas)


def test_density_check_never_compares_across_runs():
    # run 1 decays to trace 0.4; run 2 starts at trace 1 again
    decaying = np.array([np.diag([1.0, 0.0]), np.diag([0.2, 0.2])], dtype=complex)
    stack = np.array([decaying, np.array([np.diag([0.5, 0.5]), np.diag([0.3, 0.3])])])
    margins = _check_density_stack(stack)
    assert margins["max_trace_increase"] == pytest.approx(0.0, abs=1e-15)
    # growth inside one run still fails
    stack[1, 1] = np.diag([0.6, 0.45])
    with pytest.raises(NumericalError, match="trace grows by 5.000e-02"):
        _check_density_stack(stack)


@pytest.fixture(scope="module")
def cli_stacks():
    """The density stacks that map, map --extended and sweep-bandwidth check
    on the bundled config."""
    config = parse_config(bundled_network_path())
    net, exp, num = config.network, config.experiment, config.numerics
    stacks = []

    def keep(*args, **kwargs):
        rhos, etas, margins = _lindblad_runs(*args, **kwargs)
        stacks.append(rhos)
        return rhos, etas, margins

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_lindblad_runs", keep)
        analysis.enaqt_map(net, wavelength_grid(0.0, 0.0, exp.z_cm, exp.z_step_cm),
                           wavelength_grid(0.0, 0.0, exp.gamma_max_per_cm,
                                           exp.gamma_step_per_cm))
        analysis.enaqt_map(net, wavelength_grid(0.0, 0.0, 500.0, 5.0),
                           wavelength_grid(0.0, 0.0, 0.5, 0.025))
        analysis.sweep_bandwidth(
            net, wavelength_grid(0.0, 0.0, exp.bandwidth_max_nm, exp.bandwidth_step_nm),
            exp.z_cm, sensitivity=num.sensitivity_fraction)
    return dict(zip(["map", "map-extended", "bandwidth"], stacks))


def _margins_run_by_run(rhos):
    # the margins as a loop over runs and one eigvalsh of the whole stack take them
    growth = 0.0
    for run in rhos.reshape((-1,) + rhos.shape[-3:]):
        traces = np.real(np.einsum("zii->z", run))
        growth = max(growth, float(np.max(np.diff(traces), initial=0.0)),
                     float(traces.max()) - 1.0)
    return {"max_trace_increase": growth,
            "min_eigenvalue": float(np.linalg.eigvalsh(rhos).min())}


def _screen_shift(rhos):
    # the shift each matrix of a stack gets in the screen
    d = rhos.shape[-1]
    return 64 * d * d * np.finfo(float).eps * np.abs(
        rhos.diagonal(axis1=-2, axis2=-1)).max(axis=-1)


@pytest.mark.parametrize("name", ["map", "map-extended", "bandwidth"])
def test_margins_of_the_cli_stacks_are_the_run_by_run_margins(cli_stacks, name):
    rhos = cli_stacks[name]
    margins = _density_margins(rhos)
    assert margins["min_eigenvalue"] == float(np.linalg.eigvalsh(rhos).min())
    assert margins == _margins_run_by_run(rhos)


def _random_density(rng, d, rank):
    v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("factor", [-10.0, -0.1, 0.1, 10.0])
def test_min_eigenvalue_is_lapacks_on_perturbed_rank_deficient_stacks(d, factor):
    # each density gets one more eigenvalue of +-tau/10 or +-10 tau on a null
    # vector: around the screen's shift tau, on either side of 0
    rng = np.random.default_rng(7 + d)
    rhos = np.empty((5, 300, d, d), dtype=complex)  # chunks of 1 run at d = 2, 3 at d = 4
    for idx in np.ndindex(rhos.shape[:2]):
        rhos[idx] = _random_density(rng, d, rank=int(rng.integers(1, d)))
    tau = _screen_shift(rhos)
    for idx in np.ndindex(rhos.shape[:2]):
        null = np.linalg.eigh(rhos[idx])[1][:, 0]
        rhos[idx] += factor * tau[idx] * np.outer(null, null.conj())
    eigs = np.linalg.eigvalsh(rhos).min(axis=-1)
    certified = propagate._certified_positive(rhos.reshape(-1, d, d))
    assert np.all(eigs.ravel()[certified] > 0.0)
    assert _density_margins(rhos)["min_eigenvalue"] == float(eigs.min())


def _spy_eigvalsh(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(int(np.prod(a.shape[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def test_a_positive_stack_takes_the_whole_stack_eigvalsh(monkeypatch):
    rng = np.random.default_rng(3)
    rhos = np.array([[_random_density(rng, 4, 4) for _ in range(20)] for _ in range(6)])
    sizes = _spy_eigvalsh(monkeypatch)
    margins = _density_margins(rhos)
    assert sizes == [rhos.shape[0] * rhos.shape[1]]
    assert margins["min_eigenvalue"] > 0.0
    assert margins["min_eigenvalue"] == float(np.linalg.eigvalsh(rhos).min())


@pytest.mark.parametrize("run, z", [(0, 0), (24, 99), (9, 99), (10, 0)],
                         ids=["first-chunk", "last-chunk", "end-of-chunk", "start-of-chunk"])
def test_a_small_negative_eigenvalue_is_recorded_in_any_chunk(run, z):
    # 25 runs x 100 z of 4x4 densities go in chunks of 10 runs
    rng = np.random.default_rng(11)
    rhos = np.tile(_random_density(rng, 4, 4), (25, 100, 1, 1))
    modes = np.linalg.eigh(_random_density(rng, 4, 4))[1]
    rhos[run, z] = modes @ np.diag([0.5, 0.3, 0.2, -1e-12]) @ modes.conj().T
    least = _density_margins(rhos)["min_eigenvalue"]
    assert least == float(np.linalg.eigvalsh(rhos).min())
    assert least == pytest.approx(-1e-12, rel=1e-3, abs=0.0)


def test_the_map_stack_sends_few_matrices_to_eigvalsh(cli_stacks, monkeypatch):
    sizes = _spy_eigvalsh(monkeypatch)
    # each matrix's shift is set by its own diagonal: the long, strongly
    # dephased runs of map --extended have decayed far below the start density
    for name, size, most in [("map", 3171, 400), ("map-extended", 2121, 200)]:
        rhos = cli_stacks[name]
        sizes.clear()
        _density_margins(rhos)
        assert rhos.shape[0] * rhos.shape[1] == size
        assert len(sizes) == 1 and 0 < sizes[0] <= most


@pytest.mark.parametrize("negative", [0, 1, 2], ids=["scale-1", "scale-1e-35", "scale-1e-300"])
def test_min_eigenvalue_is_lapacks_on_stacks_of_mixed_scale(negative):
    # 3 runs x 30 z of 4x4 densities, run r scaled by 1, 1e-35 and 1e-300;
    # one matrix of the negative run's scale has eigenvalue -1e-12 of it
    rng = np.random.default_rng(5)
    scales = np.array([1.0, 1e-35, 1e-300])
    rhos = np.array([[s * _random_density(rng, 4, 4) for _ in range(30)] for s in scales])
    modes = np.linalg.eigh(_random_density(rng, 4, 4))[1]
    rhos[negative, 7] = scales[negative] * (
        modes @ np.diag([0.5, 0.3, 0.2, -1e-12]) @ modes.conj().T)
    certified = propagate._certified_positive(rhos.reshape(-1, 4, 4)).reshape(3, 30)
    assert not certified[2].any()  # shifts below tiny/eps certify nothing
    assert certified[:2].sum() >= 2 * 30 - 1
    assert not certified[negative, 7]
    least = _density_margins(rhos)["min_eigenvalue"]
    assert least < 0.0
    assert least == float(np.linalg.eigvalsh(rhos).min())


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("run", [0, -1], ids=["first-run", "last-run"])
def test_a_non_finite_density_stack_is_refused(value, run):
    rhos = np.tile(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex), (4, 6, 1, 1))
    _check_density_stack(rhos)
    rhos[run, run, 1, 0] = value
    with pytest.raises(NumericalError, match="density stack is not finite"):
        _check_density_stack(rhos)


@pytest.mark.parametrize("zs", [[0.0], [0.0, 0.0, 0.0]])
def test_zero_steps_are_not_exponentiated(zs, h_system, design_kappa, monkeypatch):
    def no_expm(stack):
        raise AssertionError(f"_expm called on a stack of shape {stack.shape}")

    monkeypatch.setattr(propagate, "_expm", no_expm)
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rhos, etas, _ = _lindblad_runs([h_system], [[0.0, 0.01]], design_kappa, 2, 3, rho0, zs)
    assert np.all(rhos == rho0)
    assert np.all(etas == 0.0)
    v0 = np.array([1.0, 0.0])
    assert np.all(_propagate(np.eye(2)[None].repeat(3, axis=0), v0, np.array(zs)) == v0)


# ---------------------------------------------------------------------------
# explicit sink vs effective rate

def test_effective_rate_tracks_explicit_efficiency(design_kappa, h_system):
    # With a reflection-free chain, the effective rate reproduces the
    # trapped fraction closely; site-resolved transients differ much more
    # (the chain has memory), so only the efficiency is asserted tightly.
    net = design_network()  # 90 sink guides: no end reflection within 15 cm
    h = build_hamiltonian(net, LAMBDA0)
    explicit = evolve_unitary(h, site_state(h.dimension, 0), ZS)
    effective = evolve_trapped(h_system, design_kappa, 2, site_state(4, 0), ZS)
    eta_gap = np.abs(explicit.sink_population - effective.sink_population)
    assert eta_gap[-1] < 5e-3
    assert np.max(eta_gap) < 0.1
    site_gap = np.max(np.abs(explicit.populations - effective.populations))
    assert site_gap < 0.2


def test_no_return_check_passes_default(design_net):
    report = sink_no_return_check(design_net, ZS, threshold=1e-3)
    assert report.passed
    assert report.max_end_population < 1e-3
    assert report.max_system_shift < 1e-3


def test_no_return_check_flags_short_chain():
    net = design_network(sink=SinkSpec(n_sink=2))
    report = sink_no_return_check(net, ZS, threshold=1e-3)
    assert not report.passed


def test_no_return_check_trivial_at_zero_length(design_net):
    report = sink_no_return_check(design_net, [0.0], threshold=1e-3)
    assert report.passed
    assert report.max_end_population < 1e-30  # eigenbasis round-trip residue


@pytest.mark.parametrize("zs", [[0.0, 0.05, 2.0, 15.04], np.arange(0.0, 15.5, 1.0), ZS],
                         ids=["uneven", "coarse", "uniform"])
def test_no_return_check_samples_exactly_its_grid(design_net, zs, monkeypatch):
    # both runs sample the z they are given, no more and no fewer
    grids = []

    def spy(h, amps, zs, guides):
        grids.append(np.array(zs))
        return _unitary_amplitudes(h, amps, zs, guides)

    monkeypatch.setattr(propagate, "_unitary_amplitudes", spy)
    sink_no_return_check(design_net, zs, threshold=1e-3)
    assert len(grids) == 2
    for grid in grids:
        assert np.array_equal(grid, zs)


def test_no_return_check_refuses_negative_z_max(design_net):
    with pytest.raises(ValueError, match="z must be finite and non-negative"):
        sink_no_return_check(design_net, [0.0, -0.1], threshold=1e-3)


_Z_ENTRY_POINTS = {
    "evolve_unitary": lambda net, z: evolve_unitary(
        build_hamiltonian(net, LAMBDA0), site_state(net.dimension, 0), [0.0, z]),
    "evolve_trapped": lambda net, z: evolve_trapped(
        build_hamiltonian(net, LAMBDA0, include_sink=False), 1.0, 2, site_state(4, 0),
        [0.0, z]),
    "evolve_lindblad": lambda net, z: evolve_lindblad(
        build_hamiltonian(net, LAMBDA0, include_sink=False), 1.0, 2, 0.0, 3,
        site_state(4, 0), [0.0, z]),
    "coherent_efficiency": lambda net, z: decoherence.coherent_efficiency(net, [LAMBDA0], z),
    "enaqt_map": lambda net, z: analysis.enaqt_map(net, [0.0, z], [0.0, 0.01]),
    "sweep_bandwidth": lambda net, z: analysis.sweep_bandwidth(net, [0.0, 20.0], z),
    "sink_no_return_check": lambda net, z: sink_no_return_check(net, [0.0, z],
                                                                threshold=1e-3),
}


@pytest.mark.parametrize("z", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", list(_Z_ENTRY_POINTS))
def test_non_finite_z_is_refused(design_net, entry, z):
    # a NaN z used to give NaN populations or a NumericalError, and an inf z
    # numpy's warnings or a size error
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        _Z_ENTRY_POINTS[entry](design_net, z)


def test_no_return_requires_explicit_sink(design_net_open):
    with pytest.raises(ValueError):
        sink_no_return_check(design_net_open, ZS, threshold=1e-3)


# ---------------------------------------------------------------------------
# batched wavelength propagator

def _eigh_rows(net, lams, amps, z):
    return np.array([_unitary_amplitudes(build_hamiltonian(net, float(lam)), amps,
                                         np.array([z]), slice(None))[0] for lam in lams])


@pytest.fixture(scope="module")
def bundled_sweep():
    """The bundled network, its wavelength-sweep grid and z, the input state
    and the per-wavelength eigendecomposition rows."""
    config = parse_config(bundled_network_path())
    net, exp = config.network, config.experiment
    lams = wavelength_grid(net.dispersion.lambda0_nm, exp.wavelength_min_nm,
                           exp.wavelength_max_nm, exp.wavelength_step_nm)
    amps = site_state(net.dimension, net.input_site)
    return net, lams, exp.z_cm, amps, _eigh_rows(net, lams, amps, exp.z_cm)


def test_wavelength_amplitudes_match_eigh_on_bundled_sweep(bundled_sweep):
    net, lams, z, amps, want = bundled_sweep
    assert lams.size == 191
    assert np.max(np.abs(_wavelength_amplitudes(net, lams, amps, z) - want)) < 1e-12


def test_wavelength_amplitudes_loosened_truncation_misses(bundled_sweep, monkeypatch):
    # the bound above can fail: a series cut at weight 1e-8 is too short
    monkeypatch.setattr(propagate, "SERIES_TOL", 1e-8)
    net, lams, z, amps, want = bundled_sweep
    assert np.max(np.abs(_wavelength_amplitudes(net, lams, amps, z) - want)) > 1e-12


def test_long_series_wavelengths_take_the_eigh_route(bundled_sweep, monkeypatch):
    # a z spans 33 to 84 across the sweep: the long end is split off
    net, lams, z, amps, want = bundled_sweep
    monkeypatch.setattr(propagate, "SERIES_MAX_ARGUMENT", 70.0)
    eigh, calls = np.linalg.eigh, []

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    got = _wavelength_amplitudes(net, lams, amps, z)
    assert 0 < len(calls) < lams.size
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("tol", [propagate.SERIES_TOL, 1e-4], ids=["series", "short-series"])
def test_returned_rows_match_the_full_state(bundled_sweep, monkeypatch, tol):
    # the system rows alone: the light cone skips no work that reaches them.
    # A short series gives its last orders large weights, so an order that
    # misses guides the returned rows need shows at any series length
    monkeypatch.setattr(propagate, "SERIES_TOL", tol)
    net, lams, z, amps, _ = bundled_sweep
    full = _wavelength_amplitudes(net, lams, amps, z)
    system = _wavelength_amplitudes(net, lams, amps, z, rows=net.n_sites)
    assert system.shape == (lams.size, net.n_sites)
    assert np.max(np.abs(system - full[:, : net.n_sites])) < 1e-15


def test_wavelength_alone_matches_batch(bundled_sweep):
    net, lams, z, amps, _ = bundled_sweep
    batch = _wavelength_amplitudes(net, lams, amps, z)
    alone = np.array([_wavelength_amplitudes(net, [lam], amps, z)[0] for lam in lams])
    assert np.max(np.abs(alone - batch)) < 1e-15


@st.composite
def dispersive_networks(draw):
    n = draw(st.integers(2, 6))
    couplings = tuple((i, i + 1, draw(st.floats(0.2, 2.0))) for i in range(n - 1))
    if n > 2 and draw(st.booleans()):
        couplings += ((0, n - 1, draw(st.floats(-2.0, -0.2))),)
    detuned = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    detunings = tuple((s, draw(st.floats(-2.0, 2.0).filter(bool))) for s in detuned)
    dispersion = DispersionModel(
        detuning_law=draw(st.sampled_from(DETUNING_LAWS)),
        coupling_slope_per_nm=draw(st.floats(-0.01, 0.01)))
    sink = None
    if draw(st.booleans()):
        sink = SinkSpec(n_sink=draw(st.integers(1, 20)),
                        c_trap_per_cm=draw(st.floats(0.2, 2.0)),
                        c_sink_per_cm=draw(st.floats(0.5, 2.0)))
    # the input at either end of the system: the forward cone starts at the
    # first guide or already spans every system guide
    return NetworkSpec(n_sites=n, site_detunings=detunings, couplings=couplings,
                       dispersion=dispersion, sink=sink,
                       input_site=draw(st.sampled_from([0, n - 1])), target_site=n - 1)


@given(net=dispersive_networks(), z=st.floats(0.0, 30.0),
       lams=st.lists(st.floats(700.0, 900.0), min_size=1, max_size=6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_wavelength_amplitudes_match_eigh_random_networks(net, z, lams, data):
    amps = site_state(net.dimension, net.input_site)
    rows = data.draw(st.sampled_from([None, *range(1, net.n_sites + 1)]), label="rows")
    got = _wavelength_amplitudes(net, lams, amps, z, rows)
    want = _eigh_rows(net, lams, amps, z)[:, :rows]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@given(net=dispersive_networks(), z=st.floats(0.0, 30.0), center=st.floats(750.0, 850.0),
       fwhm=st.floats(0.0, 100.0), shape=st.sampled_from(decoherence.SPECTRUM_SHAPES),
       nodes=st.integers(1, 7))
# a positive width whose band underflows to its center: once 0/0 in the nodes
@example(net=design_network(sink=None), z=1.0, center=750.0, fwhm=5e-324,
         shape="gaussian", nodes=3)
@settings(max_examples=40, deadline=None)
def test_ensemble_average_of_a_complex_state_matches_eigh_random_networks(
        net, z, center, fwhm, shape, nodes):
    # the kernel takes real launches; a complex state runs as its real and
    # imaginary parts, whose averaged density must be the eigh route's
    amps = np.exp(1j * np.arange(net.dimension)) / math.sqrt(net.dimension)
    spectrum = decoherence.Spectrum(shape, center, fwhm)
    got = decoherence.ensemble_average(net, spectrum, amps, z, nodes).averaged_density
    lams, weights = decoherence.spectral_nodes(spectrum, nodes)
    states = _eigh_rows(net, lams, amps, z)
    want = np.einsum("k,ki,kj->ij", weights, states, states.conj())
    assert np.max(np.abs(got - want)) < 1e-12


def test_wavelength_amplitudes_refuse_an_imaginary_launch(design_net):
    amps = site_state(design_net.dimension, 0)
    _wavelength_amplitudes(design_net, [LAMBDA0], amps, 1.0)  # zero imaginary part
    mixed = (amps + 1j * site_state(design_net.dimension, 1)) / math.sqrt(2)
    for launch in (1j * amps, mixed):
        with pytest.raises(ValueError, match="launch vector must be real"):
            _wavelength_amplitudes(design_net, [LAMBDA0], launch, 1.0)


def test_wavelength_amplitudes_exact_without_spread(bundled_sweep):
    net, lams, _, amps, _ = bundled_sweep
    single = NetworkSpec(n_sites=1, site_detunings=((0, 0.7),),
                         dispersion=DispersionModel())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # z = 0: the identity at every wavelength
        assert np.array_equal(_wavelength_amplitudes(net, lams, amps, 0.0),
                              np.tile(amps, (lams.size, 1)))
        # one guide, no couplings: zero spectral width, a phase alone
        got = _wavelength_amplitudes(single, lams, np.array([1.0 + 0j]), 12.0)
    want = [np.exp(-1j * build_hamiltonian(single, lam).entries[0, 0] * 12.0)
            for lam in lams]
    assert np.array_equal(got[:, 0], want)


def test_wavelength_amplitudes_reject_negative_z(design_net):
    amps = site_state(design_net.dimension, 0)
    with pytest.raises(ValueError, match="non-negative"):
        _wavelength_amplitudes(design_net, [LAMBDA0], amps, -1.0)


# ---------------------------------------------------------------------------
# Bessel table of the series weights

BESSEL_X = np.array([0.0, 1e-12, 1e-6, 0.5, 33.0, 87.0, 999.0])


def test_bessel_j_matches_scipy():
    table = propagate._bessel_j(BESSEL_X)
    want = scipy.special.jv(np.arange(table.shape[0])[:, None], BESSEL_X)
    assert np.max(np.abs(table - want)) < 1e-13


def test_bessel_j_column_matches_its_x_alone():
    table = propagate._bessel_j(BESSEL_X)
    for i, x in enumerate(BESSEL_X):
        alone = propagate._bessel_j(np.array([x]))[:, 0]
        assert np.array_equal(table[:alone.size, i], alone)
        assert not table[alone.size:, i].any()


def test_bessel_j_rescales_a_tiny_argument():
    # at x = 1e-10 the recurrence grows by 2k/x > 1e11 an order: without a
    # rescale the table overflows long before order 0
    table = propagate._bessel_j(np.array([1e-10, 50.0]))
    assert np.all(np.isfinite(table))
    assert table[0, 0] == 1.0
    assert table[1, 0] == pytest.approx(5e-11, rel=1e-12, abs=0.0)
    assert not table[2:, 0].any()
    want = scipy.special.jv(np.arange(table.shape[0]), 50.0)
    assert np.max(np.abs(table[:, 1] - want)) < 1e-14


# ---------------------------------------------------------------------------
# start states

def test_amplitude_state_validation():
    h = HamiltonianMatrix(np.zeros((3, 3)), 3)
    with pytest.raises(ValueError, match="normalized"):
        evolve_unitary(h, np.array([1.0, 1.0, 0.0]), [1.0])
    with pytest.raises(ValueError, match="shape"):
        evolve_unitary(h, np.eye(3), [1.0])
    # site_state is complex, as the eigh route needs for its bits
    state = site_state(3, 1)
    assert state.dtype == complex
    assert np.array_equal(state, [0.0, 1.0, 0.0])
    for site in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            site_state(3, site)


def test_density_state_validation():
    h = HamiltonianMatrix(np.zeros((2, 2)), 2)
    for rho0, message in [(np.array([[0.5, 0.9], [0.1, 0.5]]), "not Hermitian"),
                          (np.array([[1.5, 0.0], [0.0, 0.0]]), "unit trace"),
                          (np.eye(3) / 3.0, "shape")]:
        with pytest.raises(ValueError, match=message):
            evolve_lindblad(h, 0.0, 0, 0.0, 1, rho0, [1.0])
    # trapping rate and sites are checked where the trapping generator is built
    with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
        evolve_lindblad(h, -1.0, 0, 0.0, 1, site_state(2, 0), [1.0])
    for target, dephasing_site in [(2, 1), (0, 2)]:
        with pytest.raises(ValueError, match="out of range"):
            evolve_lindblad(h, 0.0, target, 0.0, dephasing_site, site_state(2, 0), [1.0])
    psi0 = site_state(2, 0)
    trace = evolve_lindblad(h, 0.0, 0, 0.0, 1, np.outer(psi0, psi0.conj()), [0.0])
    assert np.array_equal(trace.densities[0], [[1.0, 0.0], [0.0, 0.0]])
