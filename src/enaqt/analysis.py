"""Dark-state diagnostics and the sweep experiments.

Three numerical experiments are provided: a coherent wavelength sweep with
an explicit sink (device-like), a bandwidth sweep comparing the spectral
ensemble against a pure-dephasing master equation (the two routes to the
same decoherence), and an efficiency/enhancement map over propagation
length and dephasing rate; the dephasing route of both is the rate model,
``effective_rate_runs``.  Every sweep runs in the calling process: on
these 4-guide problems a process pool costs more to start than the work
it would spread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .calibration import effective_trap_rate
from .config import ConfigError, NumericsConfig
from .decoherence import Spectrum, band_fit, coherent_efficiency, decoherence_strength
from .lattice import HamiltonianMatrix, NetworkSpec, build_hamiltonian
from .propagate import _eigensolve, _lindblad_runs, _trapped_hamiltonian, site_state

# reference efficiencies below this have trapped nothing yet but rounding
ENHANCEMENT_FLOOR = 1e-15


def effective_kappa(net: NetworkSpec) -> float:
    """Trapping rate equivalent to the network's explicit sink chain; a
    network without one is a config error, which the CLI exits 2 on."""
    if net.sink is None:
        raise ConfigError("network.sink", "the trapping rate comes from the sink chain; "
                                          "the network has none")
    return effective_trap_rate(net.sink.c_trap_per_cm / net.sink.c_sink_per_cm,
                               net.sink.c_sink_per_cm)


@dataclass(frozen=True)
class DarkStateReport:
    """Eigenmode occupancies of the target site and the coherent ceiling."""

    target_overlaps: Tuple[float, ...]
    dark_indices: Tuple[int, ...]
    dark_vectors: np.ndarray
    efficiency_bound: float

    @property
    def n_dark(self) -> int:
        return len(self.dark_indices)


def dark_state_diagnostics(h: HamiltonianMatrix, target: int,
                           input_site: int = 0,
                           threshold: float = NumericsConfig.dark_overlap_threshold
                           ) -> DarkStateReport:
    """Find eigenmodes with no amplitude on the target site.

    A mode that never touches the target can never be trapped, so the
    trapping efficiency at infinite propagation is capped at
    1 - sum_dark |<mode|input>|^2.  Operates on the system block only;
    pass a Hamiltonian without a sink chain.  ``threshold`` is
    ``numerics.dark_overlap_threshold`` and is refused outside its range.
    """
    NumericsConfig(dark_overlap_threshold=threshold)
    if h.has_sink:
        raise ValueError("diagnostics expect the system block only; strip the sink first")
    if not 0 <= target < h.dimension or not 0 <= input_site < h.dimension:
        raise ValueError("target or input site out of range")
    _, modes = _eigensolve(np.linalg.eigh, h.entries)
    overlaps = np.abs(modes[target, :]) ** 2
    dark = np.nonzero(overlaps < threshold)[0]
    bound = 1.0 - float(np.sum(np.abs(modes[input_site, dark]) ** 2))
    return DarkStateReport(
        target_overlaps=tuple(float(o) for o in overlaps),
        dark_indices=tuple(int(i) for i in dark),
        dark_vectors=modes[:, dark].copy(),
        efficiency_bound=bound,
    )


@dataclass(eq=False)
class SweepResult:
    """Flat table of sweep output: parallel columns plus run metadata."""

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

    def write_csv(self, path) -> str:
        """One row per grid point; header carries the unit-suffixed names.
        Returns the SHA-256 hex digest of the bytes written.

        Floats are written with shortest round-trip repr of Python floats
        (3.0, -0.0, 1e-300, nan), so identical results serialize to
        identical bytes.  Each distinct value of the table, told apart by
        its bits so that -0.0 and 0.0 stay apart, is formatted once; rows
        take their texts by index and are joined in blocks of 256, which
        bounds the memory of the joined text.  Each block is encoded once,
        written, and fed to the digest, so the file is never read back.
        """
        names = list(self.columns)
        bits, inverse = np.unique(
            np.array([self.columns[n] for n in names], dtype=float).view(np.uint64),
            return_inverse=True)
        # 256 values at a time, so no list holds every value as a Python float
        texts = np.empty(bits.size, dtype=object)
        for lo in range(0, bits.size, 256):
            texts[lo:lo + 256] = list(map(repr, bits[lo:lo + 256].view(float).tolist()))
        del bits  # not held through the blocks
        rows = inverse.reshape(len(names), self.n_rows).T
        blocks = ("\n".join(map(",".join, texts[rows[lo:lo + 256]].tolist())) + "\n"
                  for lo in range(0, self.n_rows, 256))
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for text in itertools.chain([",".join(names) + "\n"], blocks):
                data = text.encode()
                fh.write(data)
                digest.update(data)
        return digest.hexdigest()


def network_fingerprint(net: NetworkSpec) -> str:
    """Stable content hash of a network description."""
    blob = json.dumps(dataclasses.asdict(net), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _relative_enhancement(etas, base) -> np.ndarray:
    """(etas - base) / base, and 0 wherever |base| < ``ENHANCEMENT_FLOOR``:
    relative to a reference that has trapped nothing, the ratio would be
    rounding divided by rounding."""
    etas, base = np.asarray(etas, dtype=float), np.asarray(base, dtype=float)
    empty = np.abs(base) < ENHANCEMENT_FLOOR
    return np.where(empty, 0.0, (etas - base) / np.where(empty, 1.0, base))


def _base_metadata(net: NetworkSpec, **extra) -> Dict:
    return {"network_sha": network_fingerprint(net), **extra}


def sweep_wavelength(net: NetworkSpec, wavelengths_nm: Sequence[float],
                     z_cm: float) -> SweepResult:
    """Coherent transport efficiency versus illumination wavelength.

    Every wavelength's explicit-sink run comes from one batched propagator
    call (``coherent_efficiency``).  With dispersive detunings and
    couplings the efficiency dips where the detuning matches the coupling;
    the dip converges onto that wavelength as z grows, while at short z the
    shallow minimum can sit a few nm off-center (the quasi-dark mode there
    holds slightly more of the input and has barely started to leak).
    """
    lams = np.asarray(wavelengths_nm, dtype=float)
    etas = coherent_efficiency(net, lams, z_cm)
    return SweepResult(
        columns={"wavelength_nm": lams, "efficiency": etas},
        metadata=_base_metadata(net, z_cm=z_cm),
    )


def dephasing_site(net: NetworkSpec) -> int:
    """Site whose propagation constant drifts across the band: the most
    detuned one.  Falls back to the last site for detuning-free networks."""
    if net.site_detunings:
        return max(net.site_detunings, key=lambda sd: abs(sd[1]))[0]
    return net.n_sites - 1


def sweep_bandwidth(net: NetworkSpec, bandwidths_nm: Sequence[float], z_cm: float,
                    sensitivity: float = NumericsConfig.sensitivity_fraction) -> SweepResult:
    """Transport enhancement versus illumination bandwidth, both routes.

    For each tophat bandwidth the enhancement over the coherent run at the
    center wavelength is computed two ways and reported side by side: the
    spectral ensemble with the explicit sink (what a broadband measurement
    on the device realizes) and a pure dephasing master equation at the
    equivalent strength gamma with the effective trapping rate (the theory
    idealization).  Columns ``enaqt_lindblad_low/high`` bound the dephasing
    route when the design detuning is off by +-``sensitivity`` (gamma
    rescaled consistently), the dominant fabrication uncertainty.

    Each quantity is computed once.  Every tophat averages the same smooth
    eta_coh(omega) over a nested band about the center, so one Chebyshev
    fit over the widest band (``band_fit``) replaces the coherent runs:
    each ensemble efficiency is the fit's exact mean over that bandwidth's
    band (``BandFit.mean``), and the metadata records the fit's size and
    tail as ``ensemble_fit``.  There is one gamma per bandwidth, scaled
    with the detuning for the sensitivity runs (gamma is proportional to
    it), and every (detuning scale, gamma) run of the dephasing route is
    one master-equation stack at z_cm, whose density margins the metadata
    records as ``diagnostics.lindblad``.  A zero bandwidth on
    the grid doubles as the reference.  ``sensitivity`` is
    ``numerics.sensitivity_fraction`` and is refused outside its range.
    """
    NumericsConfig(sensitivity_fraction=sensitivity)
    bws = np.asarray(bandwidths_nm, dtype=float)
    if not np.all(np.isfinite(bws) & (bws >= 0)):
        raise ValueError("bandwidths must be finite and non-negative")
    lam0, delta_beta = net.dispersion.lambda0_nm, net.dispersion.detuning0_per_cm
    points, rows, ref = _with_reference(bws)
    gammas = np.array([decoherence_strength(Spectrum.tophat(lam0, float(b)), delta_beta)
                       for b in points])

    def enhancement(etas: np.ndarray) -> np.ndarray:
        return _relative_enhancement(etas[rows], etas[ref])

    scales = (1.0, 1.0 - sensitivity, 1.0 + sensitivity) if sensitivity else (1.0,)
    etas, margins, kap = effective_rate_runs(net, [s * gammas for s in scales], [z_cm], scales)
    eta_lind = etas.reshape(len(scales), points.size)

    fit = band_fit(net, Spectrum.tophat(lam0, float(points.max())), z_cm)
    eta_ens = fit.mean([Spectrum.tophat(lam0, float(b)).half_band for b in points])

    columns = {
        "bandwidth_nm": bws,
        "gamma_per_cm": gammas[rows],
        "efficiency_ensemble": eta_ens[rows],
        "efficiency_lindblad": eta_lind[0][rows],
        "enaqt_ensemble": enhancement(eta_ens),
        "enaqt_lindblad": enhancement(eta_lind[0]),
    }
    if sensitivity:
        e_lo, e_hi = enhancement(eta_lind[1]), enhancement(eta_lind[2])
        columns["enaqt_lindblad_low"] = np.minimum(e_lo, e_hi)
        columns["enaqt_lindblad_high"] = np.maximum(e_lo, e_hi)

    md = _base_metadata(
        net, z_cm=z_cm, kappa_per_cm=kap, sensitivity=sensitivity,
        ensemble_fit={"points": fit.points, "tail": fit.tail},
        diagnostics={"lindblad": margins},
        measured_reference={
            # bench measurement on the device this model describes
            "enaqt_percent": 7.6, "enaqt_uncertainty_percent": 1.2,
            "bandwidth_nm": 95.0, "min_efficiency": 0.636,
            "min_efficiency_uncertainty": 0.002,
        },
    )
    return SweepResult(columns=columns, metadata=md)


def _with_reference(values: np.ndarray) -> Tuple[np.ndarray, slice, int]:
    """The runs of a sweep over ``values`` with its coherent reference, the
    zero that its enhancements divide by: ``values`` with a 0 put first
    unless it holds one, the rows of ``values`` among those runs, and the
    index of the first 0."""
    points = values if np.any(values == 0.0) else np.concatenate(([0.0], values))
    return points, slice(points.size - values.size, None), int(np.argmax(points == 0.0))


def _scale_detuning(net: NetworkSpec, scale: float) -> NetworkSpec:
    if scale == 1.0:
        return net
    detunings = tuple((s, d * scale) for s, d in net.site_detunings)
    disp = dataclasses.replace(
        net.dispersion, detuning0_per_cm=net.dispersion.detuning0_per_cm * scale)
    return dataclasses.replace(net, site_detunings=detunings, dispersion=disp)


def effective_rate_runs(net: NetworkSpec, rates, z_grid, scales: Sequence[float] = (1.0,)
                        ) -> Tuple[np.ndarray, Dict[str, float], float]:
    """The rate model: the system block at lambda0, trapped on the target
    site at the sink chain's effective rate kappa (``effective_kappa``),
    launched at the input site and dephased on ``dephasing_site(net)``.
    Row i of the 2-d ``rates`` runs with every detuning scaled by
    ``scales[i]`` (the most detuned site stays the dephasing site), all in
    one master-equation stack over ``z_grid``.  Returns the integrated eta,
    shape (runs, nz), the stack's density margins and kappa.  A zero rate
    is ``evolve_trapped``'s run: at gamma = 0 the dephasing site changes no
    bit."""
    kappa = effective_kappa(net)
    hams = [build_hamiltonian(_scale_detuning(net, s), net.dispersion.lambda0_nm,
                              include_sink=False) for s in scales]
    _, etas, margins = _lindblad_runs(hams, rates, kappa, net.target_site, dephasing_site(net),
                                      site_state(net.n_sites, net.input_site), z_grid)
    return etas, margins, kappa


def slowest_bright_rate(net: NetworkSpec) -> float:
    """The slowest population decay rate (cm^-1) of the modes the rate
    model traps.  Its generator at gamma = 0, the system block at lambda0
    under H - i(kappa/2)|t><t|, decays each eigenmode at -2 Im of its
    eigenvalue; a rate below 1e-9 kappa is a dark mode's rounding."""
    kappa = effective_kappa(net)
    h = build_hamiltonian(net, net.dispersion.lambda0_nm, include_sink=False)
    h_eff = _trapped_hamiltonian(h, kappa, net.target_site)
    rates = -2.0 * _eigensolve(np.linalg.eigvals, h_eff).imag
    return float(rates[rates > 1e-9 * kappa].min())


def enaqt_map(net: NetworkSpec, z_grid: Sequence[float],
              gamma_grid: Sequence[float]) -> SweepResult:
    """Efficiency and enhancement over (z, gamma) with the dephasing model.

    One master-equation run per gamma covers the whole z column, and every
    gamma runs in one stack, with the coherent (gamma = 0) run added when
    the grid lacks it.  Enhancement is relative to that coherent column;
    rows where the coherent efficiency is still zero report zero
    enhancement.  The metadata records the stack's density margins as
    ``diagnostics.lindblad``.
    """
    zs = np.asarray(z_grid, dtype=float)
    gammas = np.asarray(gamma_grid, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gamma grid must be non-negative")
    rates, rows, ref = _with_reference(gammas)
    etas, margins, kap = effective_rate_runs(net, [rates], zs)
    enhancement = _relative_enhancement(etas[rows], etas[ref][None, :])
    etas = etas[rows]  # (n_gamma, nz)

    gg, zz = np.meshgrid(gammas, zs, indexing="ij")
    return SweepResult(
        columns={
            "gamma_per_cm": gg.ravel(),
            "z_cm": zz.ravel(),
            "efficiency": etas.ravel(),
            "enhancement": enhancement.ravel(),
        },
        metadata=_base_metadata(net, kappa_per_cm=kap,
                                n_gamma=int(gammas.size), n_z=int(zs.size),
                                diagnostics={"lindblad": margins}),
    )
