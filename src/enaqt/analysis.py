"""Efficiency metrics, dark-state diagnostics, and the sweep experiments.

Three numerical experiments are provided: a coherent wavelength sweep with
an explicit sink (device-like), a bandwidth sweep comparing the spectral
ensemble against a pure-dephasing master equation (the two routes to the
same decoherence), and an efficiency/enhancement map over propagation
length and dephasing rate.  Every sweep runs in the calling process: on
these 4-guide problems a process pool costs more to start than the work
it would spread.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__ as _version
from .calibration import effective_trap_rate
from .decoherence import Spectrum, decoherence_strength, ensemble_average
from .lattice import HamiltonianMatrix, NetworkSpec, build_hamiltonian
from .propagate import (AmplitudeState, EvolutionTrace, evolve_lindblad,
                        evolve_unitary)

DARK_OVERLAP_THRESHOLD = 1e-12


@dataclass(frozen=True)
class EfficiencyPoint:
    """One sweep sample: an axis coordinate, a length, and an efficiency."""

    axis_value: float
    z_cm: float
    efficiency: float

    def __post_init__(self):
        if not -1e-9 <= self.efficiency <= 1.0 + 1e-9:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")


def effective_kappa(net: NetworkSpec) -> float:
    """Trapping rate equivalent to the network's explicit sink chain."""
    return _effective_kappa(net, None)


def efficiency(trace: EvolutionTrace, z: float) -> float:
    """Trapped fraction at a grid point z of an evolution trace.

    z must lie on the trace grid; interpolation is refused so efficiencies
    always come from actually simulated points.
    """
    hits = np.nonzero(np.abs(trace.z_grid - z) <= 1e-9 * max(1.0, abs(z)))[0]
    if hits.size == 0:
        raise ValueError(f"z={z} is not on the trace grid; refusing to interpolate")
    return float(trace.sink_population[hits[0]])


def enaqt_metric(wavelengths_nm: Sequence[float], etas: Sequence[float],
                 bandwidth_nm: float, lambda0_nm: float) -> float:
    """Relative enhancement of the band-averaged efficiency over eta(lambda0).

    The band average is uniform in wavelength over
    (lambda0 - bandwidth/2, lambda0 + bandwidth/2), computed by trapezoid
    on the sweep grid with linearly interpolated band edges.  Invariant
    under rescaling all efficiencies, and exactly 0 at zero bandwidth.
    """
    lams = np.asarray(wavelengths_nm, dtype=float)
    vals = np.asarray(etas, dtype=float)
    if lams.ndim != 1 or lams.shape != vals.shape or lams.size < 2:
        raise ValueError("need matching 1-d wavelength and efficiency arrays")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("wavelength grid must be strictly increasing")
    if bandwidth_nm < 0:
        raise ValueError(f"bandwidth must be non-negative, got {bandwidth_nm}")

    on_grid = np.nonzero(np.abs(lams - lambda0_nm) <= 1e-9 * lambda0_nm)[0]
    if on_grid.size == 0:
        raise ValueError(f"lambda0={lambda0_nm} nm is not on the sweep grid")
    eta0 = vals[on_grid[0]]
    if eta0 == 0:
        raise ValueError("efficiency at the center wavelength is zero")
    if bandwidth_nm == 0:
        return 0.0

    lo = lambda0_nm - 0.5 * bandwidth_nm
    hi = lambda0_nm + 0.5 * bandwidth_nm
    if lo < lams[0] - 1e-9 or hi > lams[-1] + 1e-9:
        raise ValueError(
            f"band [{lo}, {hi}] nm exceeds the sweep range [{lams[0]}, {lams[-1]}] nm")

    inside = (lams > lo) & (lams < hi)
    xs = np.concatenate(([lo], lams[inside], [hi]))
    ys = np.concatenate(([np.interp(lo, lams, vals)], vals[inside],
                         [np.interp(hi, lams, vals)]))
    mean_eta = np.trapezoid(ys, xs) / (hi - lo)
    return float((mean_eta - eta0) / eta0)


@dataclass(frozen=True)
class DarkStateReport:
    """Eigenmode occupancies of the target site and the coherent ceiling."""

    eigenvalues: Tuple[float, ...]
    target_overlaps: Tuple[float, ...]
    dark_indices: Tuple[int, ...]
    dark_vectors: np.ndarray
    efficiency_bound: float

    @property
    def n_dark(self) -> int:
        return len(self.dark_indices)


def dark_state_diagnostics(h: HamiltonianMatrix, target: int,
                           input_site: int = 0,
                           threshold: float = DARK_OVERLAP_THRESHOLD) -> DarkStateReport:
    """Find eigenmodes with no amplitude on the target site.

    A mode that never touches the target can never be trapped, so the
    trapping efficiency at infinite propagation is capped at
    1 - sum_dark |<mode|input>|^2.  Operates on the system block only;
    pass a Hamiltonian without a sink chain.
    """
    if h.has_sink:
        raise ValueError("diagnostics expect the system block only; strip the sink first")
    if not 0 <= target < h.dimension or not 0 <= input_site < h.dimension:
        raise ValueError("target or input site out of range")
    energies, modes = np.linalg.eigh(h.entries)
    overlaps = np.abs(modes[target, :]) ** 2
    dark = np.nonzero(overlaps < threshold)[0]
    bound = 1.0 - float(np.sum(np.abs(modes[input_site, dark]) ** 2))
    return DarkStateReport(
        eigenvalues=tuple(float(e) for e in energies),
        target_overlaps=tuple(float(o) for o in overlaps),
        dark_indices=tuple(int(i) for i in dark),
        dark_vectors=modes[:, dark].copy(),
        efficiency_bound=bound,
    )


@dataclass(eq=False)
class SweepResult:
    """Flat table of sweep output: parallel columns plus run metadata."""

    kind: str
    columns: Dict[str, np.ndarray]
    metadata: Dict

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: {lengths}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def write_csv(self, path) -> None:
        """One row per grid point; header carries the unit-suffixed names.

        Floats are written with shortest round-trip repr, so identical
        results serialize to identical bytes.
        """
        names = list(self.columns.keys())
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            for row in zip(*(self.columns[n] for n in names)):
                writer.writerow([repr(float(v)) for v in row])

    def efficiency_points(self, axis: str, z_cm: float) -> List[EfficiencyPoint]:
        """View an efficiency column as typed sweep samples."""
        return [EfficiencyPoint(float(a), z_cm, float(e))
                for a, e in zip(self.columns[axis], self.columns["efficiency"])]


def network_fingerprint(net: NetworkSpec) -> str:
    """Stable content hash of a network description."""
    blob = json.dumps(dataclasses.asdict(net), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _base_metadata(net: NetworkSpec, **extra) -> Dict:
    md = {"network_sha": network_fingerprint(net), "engine_version": _version}
    md.update(extra)
    return md


def wavelength_grid(lambda0_nm: float, min_nm: float, max_nm: float,
                    step_nm: float) -> np.ndarray:
    """Uniform grid anchored so that lambda0 is exactly on it."""
    if step_nm <= 0:
        raise ValueError(f"step must be positive, got {step_nm}")
    k_lo = math.ceil((min_nm - lambda0_nm) / step_nm - 1e-12)
    k_hi = math.floor((max_nm - lambda0_nm) / step_nm + 1e-12)
    if k_hi < k_lo:
        raise ValueError("empty wavelength grid")
    return lambda0_nm + step_nm * np.arange(k_lo, k_hi + 1)


def sweep_wavelength(net: NetworkSpec, wavelengths_nm: Sequence[float],
                     z_cm: float) -> SweepResult:
    """Coherent transport efficiency versus illumination wavelength.

    One explicit-sink run per wavelength.  With dispersive detunings and
    couplings the efficiency dips where the detuning matches the coupling;
    the dip converges onto that wavelength as z grows, while at short z the
    shallow minimum can sit a few nm off-center (the quasi-dark mode there
    holds slightly more of the input and has barely started to leak).
    """
    lams = np.asarray(wavelengths_nm, dtype=float)
    psi0 = AmplitudeState.site(net.dimension, net.input_site)
    etas = np.array([evolve_unitary(build_hamiltonian(net, float(l)), psi0, [z_cm])
                     .sink_population[-1] for l in lams])
    return SweepResult(
        kind="wavelength-sweep",
        columns={"wavelength_nm": lams, "efficiency": etas},
        metadata=_base_metadata(net, z_cm=z_cm),
    )


def _effective_kappa(net: NetworkSpec, kappa: Optional[float]) -> float:
    if kappa is not None:
        return kappa
    if net.sink is None:
        raise ValueError("no sink on the network and no explicit kappa given")
    return effective_trap_rate(net.sink.c_trap_per_cm / net.sink.c_sink_per_cm,
                               net.sink.c_sink_per_cm)


def dephasing_site(net: NetworkSpec) -> int:
    """Site whose propagation constant drifts across the band: the most
    detuned one.  Falls back to the last site for detuning-free networks."""
    if net.site_detunings:
        return max(net.site_detunings, key=lambda sd: abs(sd[1]))[0]
    return net.n_sites - 1


def sweep_bandwidth(net: NetworkSpec, bandwidths_nm: Sequence[float], z_cm: float,
                    nodes: int = 41, kappa: Optional[float] = None,
                    sensitivity: float = 0.1) -> SweepResult:
    """Transport enhancement versus illumination bandwidth, both routes.

    For each tophat bandwidth the enhancement over the coherent run at the
    center wavelength is computed two ways and reported side by side: the
    spectral ensemble with the explicit sink (what a broadband measurement
    on the device realizes) and a pure dephasing master equation at the
    equivalent strength gamma with the effective trapping rate (the theory
    idealization).  Columns ``enaqt_lindblad_low/high`` bound the dephasing
    route when the design detuning is off by +-``sensitivity`` (gamma
    rescaled consistently), the dominant fabrication uncertainty.

    Each quantity is computed once: one spectral ensemble per bandwidth
    (nominal network only) and one gamma per bandwidth, scaled with the
    detuning for the sensitivity runs (gamma is proportional to it).  A
    zero bandwidth on the grid doubles as the reference.
    """
    bws = np.asarray(bandwidths_nm, dtype=float)
    if np.any(bws < 0):
        raise ValueError("bandwidths must be non-negative")
    kap = _effective_kappa(net, kappa)
    lam0 = net.dispersion.lambda0_nm
    delta_beta = net.dispersion.detuning0_per_cm

    # the coherent run at the center wavelength is the reference; a zero
    # bandwidth on the grid is reused for it
    if np.any(bws == 0.0):
        points, rows = bws, slice(None)
    else:
        points, rows = np.concatenate(([0.0], bws)), slice(1, None)
    ref = int(np.argmax(points == 0.0))
    gammas = np.array([
        decoherence_strength(Spectrum.tophat(lam0, float(b)), delta_beta, lam0)
        if b else 0.0 for b in points])

    def enhancement(etas: np.ndarray) -> np.ndarray:
        return (etas[rows] - etas[ref]) / etas[ref]

    def lindblad_etas(scale: float) -> np.ndarray:
        grid = enaqt_map(_scale_detuning(net, scale), [0.0, z_cm], scale * gammas, kap)
        return grid.column("efficiency")[1::2]

    psi0 = AmplitudeState.site(net.dimension, net.input_site)

    def ensemble_eta(bandwidth: float) -> float:
        spectrum = Spectrum.tophat(lam0, bandwidth) if bandwidth else Spectrum.delta(lam0)
        ens = ensemble_average(net, spectrum, psi0, z_cm, nodes=nodes)
        return 1.0 - float(ens.averaged_populations[: net.n_sites].sum())

    eta_ens = np.array([ensemble_eta(float(b)) for b in points])
    eta_lind = lindblad_etas(1.0)

    columns = {
        "bandwidth_nm": bws,
        "gamma_per_cm": gammas[rows],
        "efficiency_ensemble": eta_ens[rows],
        "efficiency_lindblad": eta_lind[rows],
        "enaqt_ensemble": enhancement(eta_ens),
        "enaqt_lindblad": enhancement(eta_lind),
    }
    if sensitivity:
        e_lo = enhancement(lindblad_etas(1.0 - sensitivity))
        e_hi = enhancement(lindblad_etas(1.0 + sensitivity))
        columns["enaqt_lindblad_low"] = np.minimum(e_lo, e_hi)
        columns["enaqt_lindblad_high"] = np.maximum(e_lo, e_hi)

    md = _base_metadata(
        net, z_cm=z_cm, nodes=nodes, kappa_per_cm=kap, sensitivity=sensitivity,
        measured_reference={
            # bench measurement on the device this model describes
            "enaqt_percent": 7.6, "enaqt_uncertainty_percent": 1.2,
            "bandwidth_nm": 95.0, "min_efficiency": 0.636,
            "min_efficiency_uncertainty": 0.002,
        },
    )
    return SweepResult(kind="bandwidth-sweep", columns=columns, metadata=md)


def _scale_detuning(net: NetworkSpec, scale: float) -> NetworkSpec:
    if scale == 1.0:
        return net
    detunings = tuple((s, d * scale) for s, d in net.site_detunings)
    disp = dataclasses.replace(
        net.dispersion, detuning0_per_cm=net.dispersion.detuning0_per_cm * scale)
    return dataclasses.replace(net, site_detunings=detunings, dispersion=disp)


def enaqt_map(net: NetworkSpec, z_grid: Sequence[float], gamma_grid: Sequence[float],
              kappa: Optional[float] = None) -> SweepResult:
    """Efficiency and enhancement over (z, gamma) with the dephasing model.

    One master-equation integration per gamma covers the whole z column.
    Enhancement is relative to the coherent (gamma = 0) column; rows where
    the coherent efficiency is still zero report zero enhancement.
    """
    zs = np.asarray(z_grid, dtype=float)
    gammas = np.asarray(gamma_grid, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gamma grid must be non-negative")
    kap = _effective_kappa(net, kappa)
    lam0 = net.dispersion.lambda0_nm
    h_sys = build_hamiltonian(net, lam0, include_sink=False)
    rho0 = np.zeros((net.n_sites, net.n_sites), dtype=complex)
    rho0[net.input_site, net.input_site] = 1.0
    deph_site = dephasing_site(net)

    def column(gamma: float) -> np.ndarray:
        return evolve_lindblad(h_sys, kap, net.target_site, gamma, deph_site, rho0,
                               zs).sink_population

    etas = np.array([column(float(g)) for g in gammas])  # (n_gamma, nz)
    if 0.0 in gammas:
        base = etas[np.nonzero(gammas == 0.0)[0][0]]
    else:
        base = column(0.0)
    denom = np.where(np.abs(base) < 1e-15, 1.0, base)
    enhancement = np.where(np.abs(base) < 1e-15, 0.0, (etas - base[None, :]) / denom)

    gg, zz = np.meshgrid(gammas, zs, indexing="ij")
    return SweepResult(
        kind="enaqt-map",
        columns={
            "gamma_per_cm": gg.ravel(),
            "z_cm": zz.ravel(),
            "efficiency": etas.ravel(),
            "enhancement": enhancement.ravel(),
        },
        metadata=_base_metadata(net, kappa_per_cm=kap,
                                n_gamma=int(gammas.size), n_z=int(zs.size)),
    )
