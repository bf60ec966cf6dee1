"""Illumination spectra, first-order coherence, and spectral-ensemble mixing.

Broadband illumination decoheres a waveguide network without any physical
noise: each wavelength propagates coherently, but a wavelength-blind
intensity measurement traces the wavelength out, leaving a mixed state.
This module quantifies that mechanism (g1 envelope, decoherence strength
gamma as the inverse optical coherence length) and implements the ensemble
average itself.

Unit bookkeeping is the hazard here.  Rates and propagation constants are
cm^-1, distances cm, wavelengths nm at the interface; delays tau are in
seconds and conversions use c in cm/s.  A pair of guides with propagation
constant difference db (cm^-1) maps propagation distance z (cm) onto the
delay tau = z * db * lambda0 / (2 pi c), which is what links the spatial
beat to the temporal coherence of the light.

Continuous spectra are defined as densities in angular frequency.  A
"tophat" of full width dl (nm) about lambda0 is uniform on an angular
band of width dw = 2 pi c dl / lambda0^2; a "gaussian" has the matching
FWHM in angular frequency.  Defining the band in frequency rather than
wavelength keeps the sinc/Gaussian envelopes and the closed form
gamma = db*dl/(2 pi lambda0) exact at any fractional bandwidth (the two
conventions differ only at second order in dl/lambda0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import NetworkSpec, build_hamiltonian
from .propagate import _as_amplitudes
from .units import C_LIGHT_CM_PER_S, nm_to_cm

SPECTRUM_SHAPES = ("tophat", "gaussian", "delta", "discrete")

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class Spectrum:
    """Illumination spectral density.

    ``fwhm_nm`` is the full width for the tophat and the FWHM for the
    gaussian; ``lines`` holds explicit (wavelength_nm, weight) pairs for
    the discrete shape and is normalized on construction.
    """

    shape: str
    center_nm: float
    fwhm_nm: float = 0.0
    lines: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.shape not in SPECTRUM_SHAPES:
            raise ValueError(f"shape must be one of {SPECTRUM_SHAPES}, got {self.shape!r}")
        if self.center_nm <= 0:
            raise ValueError(f"center_nm must be positive, got {self.center_nm}")
        if self.fwhm_nm < 0:
            raise ValueError(f"fwhm_nm must be non-negative, got {self.fwhm_nm}")
        if self.shape == "delta" and self.fwhm_nm != 0:
            raise ValueError("delta spectrum requires fwhm_nm = 0")
        if self.shape == "discrete":
            if not self.lines:
                raise ValueError("discrete spectrum needs at least one line")
            lam = [float(l) for l, _ in self.lines]
            wts = [float(w) for _, w in self.lines]
            if any(l <= 0 for l in lam):
                raise ValueError("line wavelengths must be positive")
            if any(w < 0 for w in wts) or sum(wts) <= 0:
                raise ValueError("line weights must be non-negative with positive sum")
            total = sum(wts)
            object.__setattr__(
                self, "lines", tuple((l, w / total) for l, w in zip(lam, wts)))
        elif self.lines:
            raise ValueError("lines are only meaningful for discrete spectra")

    @classmethod
    def tophat(cls, center_nm: float, fwhm_nm: float) -> "Spectrum":
        return cls("tophat", center_nm, fwhm_nm)

    @classmethod
    def gaussian(cls, center_nm: float, fwhm_nm: float) -> "Spectrum":
        return cls("gaussian", center_nm, fwhm_nm)

    @classmethod
    def delta(cls, center_nm: float) -> "Spectrum":
        return cls("delta", center_nm)

    @classmethod
    def discrete(cls, lines: Sequence[Tuple[float, float]]) -> "Spectrum":
        lines = tuple((float(l), float(w)) for l, w in lines)
        if not lines or sum(w for _, w in lines) <= 0:
            raise ValueError("discrete spectrum needs at least one weighted line")
        center = sum(l * w for l, w in lines) / sum(w for _, w in lines)
        return cls("discrete", center, 0.0, lines)

    @property
    def center_angular_frequency(self) -> float:
        """Central angular frequency in rad/s."""
        return 2.0 * math.pi * C_LIGHT_CM_PER_S / nm_to_cm(self.center_nm)

    @property
    def angular_width(self) -> float:
        """Angular-frequency width matching fwhm_nm (rad/s)."""
        return (2.0 * math.pi * C_LIGHT_CM_PER_S * nm_to_cm(self.fwhm_nm)
                / nm_to_cm(self.center_nm) ** 2)

    @property
    def is_monochromatic(self) -> bool:
        if self.shape == "delta":
            return True
        if self.shape in ("tophat", "gaussian"):
            return self.fwhm_nm == 0.0
        return len(self.lines) == 1


def _sinc(x: float) -> float:
    if abs(x) < 1e-8:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def g1(spectrum: Spectrum, tau: float) -> complex:
    """Normalized first-order temporal correlation of the illumination.

    g1(tau) = integral S(w) exp(-i w tau) dw with S normalized to unit
    area, evaluated in closed form: a carrier phase exp(-i w0 tau) times a
    real envelope (sinc for the tophat, Gaussian for the gaussian shape).
    |g1(0)| = 1 for every spectrum, and |g1| = 1 at all delays for
    monochromatic light.
    """
    if spectrum.shape == "discrete":
        return complex(sum(
            w * np.exp(-1j * 2.0 * math.pi * C_LIGHT_CM_PER_S / nm_to_cm(l) * tau)
            for l, w in spectrum.lines))
    carrier = np.exp(-1j * spectrum.center_angular_frequency * tau)
    if spectrum.is_monochromatic:
        return complex(carrier)
    if spectrum.shape == "tophat":
        return complex(carrier * _sinc(0.5 * spectrum.angular_width * tau))
    # gaussian
    sigma = spectrum.angular_width * _FWHM_TO_SIGMA
    return complex(carrier * math.exp(-0.5 * (sigma * tau) ** 2))


def _gauss_blocks(f, a: float, b: float, n_blocks: int, order: int = 24) -> float:
    """Composite Gauss-Legendre quadrature with fixed blocks (deterministic)."""
    x, w = leggauss(order)
    edges = np.linspace(a, b, n_blocks + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.sum(w * f(u)))
    return total


@functools.cache
def _sinc2_half_line() -> float:
    """Integral of sinc^2(u) over [0, inf), computed once per process.

    Quadrature to 200 cycles plus the asymptotic sinc^2 tail (~1e-12
    relative); not pi/2, so the closed-form check on gamma can still fail.
    """
    big_t = 200.0 * math.pi
    # no Gauss-Legendre node lies at u = 0
    core = _gauss_blocks(lambda u: (np.sin(u) / u) ** 2, 0.0, big_t, 200)
    s2, c2 = math.sin(2 * big_t), math.cos(2 * big_t)
    tail = (1.0 / (2 * big_t) + s2 / (4 * big_t ** 2)
            - c2 / (4 * big_t ** 3) - 3 * s2 / (8 * big_t ** 4))
    return core + tail


def coherence_time(spectrum: Spectrum) -> float:
    """Coherence time integral of |g1|^2 over all delays (seconds).

    Computed by quadrature of the squared envelope.  The tophat envelope
    decays only as 1/tau; in units u = dw*tau/2 its integral does not
    depend on the width, so it is evaluated once (``_sinc2_half_line``)
    and rescaled.  Monochromatic and discrete spectra never lose coherence
    permanently: the integral diverges and inf is returned.
    """
    if spectrum.is_monochromatic or spectrum.shape in ("delta", "discrete"):
        return math.inf
    if spectrum.shape == "gaussian":
        sigma = spectrum.angular_width * _FWHM_TO_SIGMA
        # |g1|^2 = exp(-(sigma tau)^2), negligible past 8/sigma
        val = _gauss_blocks(lambda t: np.exp(-(sigma * t) ** 2), 0.0, 8.0 / sigma, 32)
        return 2.0 * val
    # tophat: |g1|^2 = sinc^2(u) with u = dw*tau/2
    return 2.0 * (2.0 / spectrum.angular_width) * _sinc2_half_line()


def decoherence_strength(spectrum: Spectrum, delta_beta: float,
                         lambda0_nm: Optional[float] = None) -> float:
    """Decoherence strength gamma in cm^-1: the inverse coherence length.

    gamma = [ (2 pi c / (delta_beta * lambda0)) * integral |g1|^2 dtau ]^-1
    with the integral evaluated by quadrature.  For a tophat this equals
    the closed form delta_beta * fwhm / (2 pi lambda0) to quadrature
    accuracy.  Monochromatic light has infinite coherence length, so the
    strength is exactly 0.
    """
    if delta_beta <= 0:
        raise ValueError(f"delta_beta must be positive, got {delta_beta}")
    lam0 = spectrum.center_nm if lambda0_nm is None else lambda0_nm
    if lam0 <= 0:
        raise ValueError(f"lambda0_nm must be positive, got {lam0}")
    tau_c = coherence_time(spectrum)
    if math.isinf(tau_c):
        return 0.0
    coherence_length_cm = (2.0 * math.pi * C_LIGHT_CM_PER_S
                           / (delta_beta * nm_to_cm(lam0))) * tau_c
    return 1.0 / coherence_length_cm


def tophat_gamma_closed_form(delta_beta: float, fwhm_nm: float, lambda0_nm: float) -> float:
    """Closed form gamma = delta_beta * fwhm / (2 pi lambda0) for a tophat."""
    return delta_beta * fwhm_nm / (2.0 * math.pi * lambda0_nm)


def delay_for_distance(z_cm: float, delta_beta: float, lambda0_nm: float) -> float:
    """Delay tau (s) accumulated between two guides detuned by delta_beta."""
    return z_cm * delta_beta * nm_to_cm(lambda0_nm) / (2.0 * math.pi * C_LIGHT_CM_PER_S)


def coherence_decay_pair(delta_beta: float, lambda0_nm: float, spectrum: Spectrum,
                         z_cm: float, rho_ab0: complex) -> complex:
    """Coherence between two uncoupled guides after propagating z.

    Returns rho_ab(0) * g1(tau(z)); the carrier phase of g1 is the
    deterministic beat exp(-i z delta_beta(lambda0)) and the envelope is
    the broadband decay.  The element convention follows evolution under a
    diagonal Hamiltonian with the detuned guide as the row index.
    """
    tau = delay_for_distance(z_cm, delta_beta, lambda0_nm)
    return complex(rho_ab0) * g1(spectrum, tau)


def spectral_nodes(spectrum: Spectrum, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (wavelengths, nm) and normalized weights.

    Gauss-Legendre in angular frequency for continuous shapes, so an odd
    node count always contains the center wavelength exactly; the listed
    lines for discrete spectra (``nodes`` is ignored there).  Gaussian
    support is truncated at +-5 sigma and the weights renormalized.
    """
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    if spectrum.shape == "discrete":
        lams = np.array([l for l, _ in spectrum.lines])
        wts = np.array([w for _, w in spectrum.lines])
        return lams, wts
    if spectrum.is_monochromatic:
        return np.array([spectrum.center_nm]), np.array([1.0])

    w0 = spectrum.center_angular_frequency
    x, w = leggauss(nodes)
    if spectrum.shape == "tophat":
        omegas = w0 + 0.5 * spectrum.angular_width * x
        weights = w / np.sum(w)
    else:  # gaussian
        sigma = spectrum.angular_width * _FWHM_TO_SIGMA
        omegas = w0 + 5.0 * sigma * x
        density = np.exp(-0.5 * ((omegas - w0) / sigma) ** 2)
        weights = w * density
        weights = weights / np.sum(weights)
    lams = 2.0 * math.pi * C_LIGHT_CM_PER_S / omegas / 1e-7  # back to nm
    return lams, weights


@dataclass(eq=False)
class EnsembleResult:
    """Wavelength-averaged state of a network under broadband light."""

    averaged_populations: np.ndarray
    averaged_density: np.ndarray
    node_count: int
    wavelengths_nm: np.ndarray
    weights: np.ndarray

    @property
    def system_population(self) -> float:
        return float(self.averaged_populations.sum())


def ensemble_average(net: NetworkSpec, spectrum: Spectrum, psi0, z_cm: float,
                     nodes: int = 41) -> EnsembleResult:
    """Trace out the wavelength: average coherent runs over the spectrum.

    Builds H(lambda_k) at each quadrature node, evolves ``psi0`` unitarily
    (explicit sink and all) to ``z_cm``, and accumulates the weighted
    mixture of the resulting pure states.  Node results are reduced in a
    fixed index order so the outcome does not depend on how callers
    schedule the work.
    """
    lams, weights = spectral_nodes(spectrum, nodes)
    amps0 = _as_amplitudes(psi0)
    dim = net.dimension
    if amps0.shape[0] != dim:
        raise ValueError(f"state dimension {amps0.shape[0]} != network dimension {dim}")

    states = np.empty((lams.size, dim), dtype=complex)
    for k, lam in enumerate(lams):
        h = build_hamiltonian(net, float(lam))
        energies, modes = np.linalg.eigh(h.entries)
        states[k] = modes @ (np.exp(-1j * energies * z_cm) * (modes.conj().T @ amps0))

    rho = np.einsum("k,ki,kj->ij", weights, states, states.conj())
    return EnsembleResult(
        averaged_populations=np.real(np.diag(rho)).copy(),
        averaged_density=rho,
        node_count=int(lams.size),
        wavelengths_nm=lams,
        weights=weights,
    )
