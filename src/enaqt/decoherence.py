"""Illumination spectra, first-order coherence, and spectral-ensemble mixing.

Broadband illumination decoheres a waveguide network without any physical
noise: each wavelength propagates coherently, but a wavelength-blind
intensity measurement traces the wavelength out, leaving a mixed state.
This module quantifies that mechanism (the g1 envelope and the decoherence
strength gamma, the inverse optical coherence length, both in closed form)
and implements the ensemble average itself, directly (``ensemble_average``)
or through one Chebyshev fit of the coherent efficiency over a band
(``band_fit``).

Unit bookkeeping is the hazard here.  Rates and propagation constants are
cm^-1, distances cm, wavelengths nm at the interface; delays tau are in
seconds and conversions use c in cm/s.  A pair of guides with propagation
constant difference db (cm^-1) maps propagation distance z (cm) onto the
delay tau = z * db * lambda0 / (2 pi c), which is what links the spatial
beat to the temporal coherence of the light.

Spectra are densities in angular frequency, of two shapes.  A "tophat"
of full width dl (nm) about lambda0 is uniform on an angular band of
width dw = 2 pi c dl / lambda0^2; a "gaussian" has the matching FWHM in
angular frequency.  Either shape at zero width is monochromatic light.
Defining the band in frequency rather than wavelength keeps the
sinc/Gaussian envelopes and the closed form gamma = db*dl/(2 pi lambda0)
exact at any fractional bandwidth (the two conventions differ only at
second order in dl/lambda0).  The coherence time, the integral of |g1|^2
over all delays, is then 2 pi/dw for the tophat and sqrt(pi)/sigma for
the gaussian of rms width sigma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval
from numpy.polynomial.legendre import leggauss

from .lattice import NetworkSpec
from .propagate import NumericalError, _initial_amplitudes, _wavelength_amplitudes, site_state

# the speed of light in vacuum; a wavelength of x nm is x * 1e-7 cm
C_LIGHT_CM_PER_S = 2.99792458e10

SPECTRUM_SHAPES = ("tophat", "gaussian")

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# band fit of eta_coh: first size, largest size, and the absolute bound on
# the trailing quarter of its Chebyshev coefficients
FIT_FIRST_POINTS = 17
FIT_MAX_POINTS = 4097
FIT_TAIL = 1e-14


def _angular_frequency(wavelength_nm):
    """Angular frequency (rad/s) of a vacuum wavelength in nm."""
    return 2.0 * math.pi * C_LIGHT_CM_PER_S / (wavelength_nm * 1e-7)


def _wavelength_nm(omega):
    """Vacuum wavelength (nm) of an angular frequency in rad/s."""
    return 2.0 * math.pi * C_LIGHT_CM_PER_S / omega / 1e-7


@dataclass(frozen=True)
class Spectrum:
    """Illumination spectral density.

    ``fwhm_nm`` is the full width for the tophat and the FWHM for the
    gaussian; a width of 0 is monochromatic light at ``center_nm``, and so
    is a positive width whose half-band underflows to 0 rad/s.
    """

    shape: str
    center_nm: float
    fwhm_nm: float = 0.0

    def __post_init__(self):
        if self.shape not in SPECTRUM_SHAPES:
            raise ValueError(f"shape must be one of {SPECTRUM_SHAPES}, got {self.shape!r}")
        if not 0 < self.center_nm < math.inf:
            raise ValueError(f"center_nm must be finite and positive, got {self.center_nm}")
        if not 0 <= self.fwhm_nm < math.inf:
            raise ValueError(f"fwhm_nm must be finite and non-negative, got {self.fwhm_nm}")

    @classmethod
    def tophat(cls, center_nm: float, fwhm_nm: float) -> "Spectrum":
        return cls("tophat", center_nm, fwhm_nm)

    @classmethod
    def gaussian(cls, center_nm: float, fwhm_nm: float) -> "Spectrum":
        return cls("gaussian", center_nm, fwhm_nm)

    @property
    def center_angular_frequency(self) -> float:
        """Central angular frequency in rad/s."""
        return _angular_frequency(self.center_nm)

    @property
    def angular_width(self) -> float:
        """Angular-frequency width matching fwhm_nm (rad/s)."""
        return (2.0 * math.pi * C_LIGHT_CM_PER_S * (self.fwhm_nm * 1e-7)
                / (self.center_nm * 1e-7) ** 2)

    @property
    def half_band(self) -> float:
        """Half-width (rad/s) of the angular band about the center that the
        quadrature samples: the whole tophat, the gaussian to +-5 sigma."""
        if self.shape == "gaussian":
            return 5.0 * (self.angular_width * _FWHM_TO_SIGMA)
        return 0.5 * self.angular_width

    @property
    def band_edges_nm(self) -> Tuple[float, float]:
        """Shortest and longest wavelength (nm) of that band; the longest is
        inf once the band reaches zero frequency."""
        w0, half = self.center_angular_frequency, self.half_band
        return _wavelength_nm(w0 + half), (_wavelength_nm(w0 - half) if half < w0
                                           else math.inf)

    @property
    def is_monochromatic(self) -> bool:
        """Zero width, or a positive width so small (below about
        2.5e-317 nm, where its conversion to cm underflows) that the band is
        its center: the one center node is then the spectrum exactly, where
        a quadrature would divide 0 by 0."""
        return self.half_band == 0.0


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
    carrier = np.exp(-1j * spectrum.center_angular_frequency * tau)
    if spectrum.is_monochromatic:
        return complex(carrier)
    if spectrum.shape == "tophat":
        return complex(carrier * _sinc(0.5 * spectrum.angular_width * tau))
    # gaussian
    sigma = spectrum.angular_width * _FWHM_TO_SIGMA
    return complex(carrier * math.exp(-0.5 * (sigma * tau) ** 2))


@functools.cache
def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count and read-only, so no caller can change a later call's."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def coherence_time(spectrum: Spectrum) -> float:
    """Coherence time: the integral of |g1|^2 over all delays (seconds).

    Closed form for both shapes: the tophat's sinc^2(dw tau / 2) integrates
    to 2 pi / dw, the gaussian's exp(-(sigma tau)^2) to sqrt(pi) / sigma.
    Monochromatic light never loses coherence: the integral diverges and
    inf is returned.
    """
    if spectrum.is_monochromatic:
        return math.inf
    if spectrum.shape == "gaussian":
        return math.sqrt(math.pi) / (spectrum.angular_width * _FWHM_TO_SIGMA)
    return 2.0 * math.pi / spectrum.angular_width


def decoherence_strength(spectrum: Spectrum, delta_beta: float) -> float:
    """Decoherence strength gamma in cm^-1: the inverse coherence length.

    gamma = [ (2 pi c / (delta_beta * lambda0)) * coherence_time ]^-1 with
    lambda0 the spectrum's center.  This route runs through c, nm -> cm and
    the angular width; for a tophat it must land on the direct closed form
    ``tophat_gamma_closed_form``, delta_beta * fwhm / (2 pi lambda0), to
    rounding.  Monochromatic light has infinite coherence length, so the
    strength is exactly 0, whatever ``delta_beta``.
    """
    tau_c = coherence_time(spectrum)
    if math.isinf(tau_c):
        return 0.0
    if delta_beta <= 0:
        raise ValueError(f"delta_beta must be positive, got {delta_beta}")
    coherence_length_cm = (2.0 * math.pi * C_LIGHT_CM_PER_S
                           / (delta_beta * (spectrum.center_nm * 1e-7))) * tau_c
    return 1.0 / coherence_length_cm


def tophat_gamma_closed_form(delta_beta: float, fwhm_nm: float, lambda0_nm: float) -> float:
    """Closed form gamma = delta_beta * fwhm / (2 pi lambda0) for a tophat."""
    return delta_beta * fwhm_nm / (2.0 * math.pi * lambda0_nm)


def coherence_decay_pair(delta_beta: float, lambda0_nm: float, spectrum: Spectrum,
                         z_cm: float, rho_ab0: complex) -> complex:
    """Coherence between two uncoupled guides after propagating z.

    Returns rho_ab(0) * g1(tau(z)); the carrier phase of g1 is the
    deterministic beat exp(-i z delta_beta(lambda0)) and the envelope is
    the broadband decay.  The element convention follows evolution under a
    diagonal Hamiltonian with the detuned guide as the row index.
    """
    # delay tau (s) accumulated between two guides detuned by delta_beta
    tau = z_cm * delta_beta * (lambda0_nm * 1e-7) / (2.0 * math.pi * C_LIGHT_CM_PER_S)
    return complex(rho_ab0) * g1(spectrum, tau)


def spectral_nodes(spectrum: Spectrum, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (wavelengths, nm) and normalized weights.

    Gauss-Legendre in angular frequency, so an odd node count always
    contains the center wavelength exactly; monochromatic light is its one
    center node whatever ``nodes`` is.  Gaussian support is truncated at
    +-5 sigma and the weights renormalized.
    """
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    if spectrum.is_monochromatic:
        return np.array([spectrum.center_nm]), np.array([1.0])

    w0 = spectrum.center_angular_frequency
    x, w = _leggauss(nodes)
    omegas = w0 + spectrum.half_band * x
    if spectrum.shape == "tophat":
        weights = w / np.sum(w)
    else:  # gaussian
        sigma = spectrum.angular_width * _FWHM_TO_SIGMA
        density = np.exp(-0.5 * ((omegas - w0) / sigma) ** 2)
        weights = w * density
        weights = weights / np.sum(weights)
    return _wavelength_nm(omegas), weights


@dataclass(frozen=True, eq=False)
class BandFit:
    """Chebyshev interpolant of the coherent efficiency eta_coh(omega) on
    the angular band ``center +- half_width`` (rad/s).

    Called on wavelengths (nm) inside the band, it returns the interpolant
    there; ``mean`` averages it over nested bands.  ``tail`` is the largest
    coefficient of the trailing quarter: the size of what the fit leaves out.
    """

    center: float
    half_width: float
    coeffs: np.ndarray
    tail: float

    @property
    def points(self) -> int:
        """The fit's size: its Chebyshev points and coefficients.  The band
        fit's coherent runs can outnumber them (``band_fit``)."""
        return int(self.coeffs.size)

    def __call__(self, wavelengths_nm) -> np.ndarray:
        offsets = _angular_frequency(np.asarray(wavelengths_nm, dtype=float)) - self.center
        x = offsets / self.half_width if self.half_width else offsets
        if np.any(np.abs(x) > 1.0 + 1e-9):
            raise ValueError("wavelength outside the fitted band")
        return chebval(x, self.coeffs)

    def mean(self, half_bands) -> np.ndarray:
        """Exact means over the nested bands ``center +- half_band`` (rad/s)
        of ``half_bands``: (F(t) - F(-t)) / 2t at t = half_band / half_width,
        F the Chebyshev antiderivative (Clenshaw-Curtis; Trefethen, ATAP
        ch. 19), and the value at the center for a zero half-band."""
        half_bands = np.asarray(half_bands, dtype=float)
        if np.any(half_bands > self.half_width * (1.0 + 1e-9)):
            raise ValueError("band outside the fitted band")
        t = half_bands / self.half_width if self.half_width else np.zeros_like(half_bands)
        ends = chebval(np.stack((t, -t)), chebint(self.coeffs))
        return np.where(t == 0.0, chebval(0.0, self.coeffs),
                        (ends[0] - ends[1]) / (2.0 * np.where(t == 0.0, 1.0, t)))


def _lobatto(n: int) -> np.ndarray:
    """Chebyshev-Lobatto points cos(pi j / (n - 1)), j = 0..n-1, in the
    sine form that keeps them symmetric and puts the middle one at 0."""
    m = n - 1
    return np.sin(0.5 * math.pi * np.arange(m, -m - 1, -2) / m)


def _lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through values at
    ``_lobatto`` points, by an FFT of the even extension (a DCT-I)."""
    m = values.size - 1
    coeffs = np.fft.rfft(np.concatenate((values, values[m - 1:0:-1]))).real / m
    coeffs[0] *= 0.5
    coeffs[m] *= 0.5
    return coeffs


def coherent_efficiency(net: NetworkSpec, wavelengths_nm, z_cm: float) -> np.ndarray:
    """eta_coh(lambda) = 1 - sum_system |psi(lambda, z)|^2 at each wavelength:
    the light one coherent run with the explicit sink, launched at the
    input guide, has trapped by z.  Only the system guides of each run are
    propagated to the end."""
    amps = site_state(net.dimension, net.input_site)
    system = _wavelength_amplitudes(net, wavelengths_nm, amps, z_cm, rows=net.n_sites)
    return 1.0 - np.sum(np.abs(system) ** 2, axis=1)


def band_fit(net: NetworkSpec, spectrum: Spectrum, z_cm: float) -> BandFit:
    """Fit ``coherent_efficiency`` eta_coh over the spectrum's band.

    Fits eta at n Chebyshev-Lobatto points in angular frequency, from
    n = ``FIT_FIRST_POINTS`` and going from n to 2n - 1 points, until the
    trailing quarter of the Chebyshev coefficients is below ``FIT_TAIL``
    (size chosen as in Aurentz and Trefethen, "Chopping a Chebyshev
    series", ACM TOMS 43, 2017).  eta is a probability, so the bound is
    absolute, and eta = 0 stops at the first size.  The sizes nest: the
    first propagator call samples the size three doublings on (129 points
    from 17), where a call costs little more than at the first size, and
    the smaller sizes are its every 8th, 4th and 2nd point.  Each later
    doubling runs only the new odd-index points.  So the coherent runs can
    exceed the fit's points by up to 112 (129 runs for a 17-point fit).  A
    fit that would need more than ``FIT_MAX_POINTS`` points raises
    NumericalError.  A band of zero width is the single run at its center.
    """
    w0, half = spectrum.center_angular_frequency, spectrum.half_band

    def eta(x: np.ndarray) -> np.ndarray:
        return coherent_efficiency(net, _wavelength_nm(w0 + half * x), z_cm)

    if half == 0.0:
        return BandFit(w0, 0.0, eta(np.zeros(1)), 0.0)
    # the first call samples up to three doublings past the first size
    n = sampled = FIT_FIRST_POINTS
    for _ in range(3):
        if 2 * sampled - 1 <= FIT_MAX_POINTS:
            sampled = 2 * sampled - 1
    samples = eta(_lobatto(sampled))
    while True:
        # the n Lobatto points are every ((sampled - 1) / (n - 1))-th sample
        values = samples[::(sampled - 1) // (n - 1)]
        coeffs = _lobatto_coefficients(values)
        tail = float(np.abs(coeffs[n - n // 4:]).max())
        if tail < FIT_TAIL:
            return BandFit(w0, half, coeffs, tail)
        if 2 * n - 1 > FIT_MAX_POINTS:
            raise NumericalError(
                f"band fit of eta_coh not converged at {n} points "
                f"(tail {tail:.1e}, bound {FIT_TAIL:.0e})")
        n = 2 * n - 1
        if n > sampled:
            grown = np.empty(n)
            grown[0::2] = samples
            grown[1::2] = eta(_lobatto(n)[1::2])
            sampled, samples = n, grown


@dataclass(eq=False)
class EnsembleResult:
    """Wavelength-averaged state of a network under broadband light.

    ``n_system`` leading guides are system sites; the rest is the sink.
    """

    averaged_populations: np.ndarray
    averaged_density: np.ndarray
    node_count: int
    n_system: int

    @property
    def trapped_fraction(self) -> float:
        """Light that has left the system sites: the ensemble efficiency,
        equal to sum_k w_k eta_coh(lambda_k)."""
        return 1.0 - float(self.averaged_populations[: self.n_system].sum())


def ensemble_average(net: NetworkSpec, spectrum: Spectrum, psi0, z_cm: float,
                     nodes: int) -> EnsembleResult:
    """Trace out the wavelength: average coherent runs over the spectrum.

    Evolves ``psi0`` unitarily (explicit sink and all) to ``z_cm`` at every
    quadrature node at once, with the batched wavelength propagator that
    the wavelength sweep and ``band_fit`` use, and accumulates the weighted
    mixture of the resulting pure states in a fixed node order.  This is
    the one route for a complex ``psi0``: the propagator takes real launch
    vectors, so by linearity the real and imaginary parts run as two
    launches.  ``nodes`` is the quadrature size, ``numerics.ensemble_nodes``
    in a config.
    """
    lams, weights = spectral_nodes(spectrum, nodes)
    amps0 = _initial_amplitudes(psi0, net.dimension)
    states = np.zeros((lams.size, net.dimension), dtype=complex)
    for unit, part in ((1.0, amps0.real), (1j, amps0.imag)):
        if part.any():
            states += unit * _wavelength_amplitudes(net, lams, part, z_cm)

    rho = np.einsum("k,ki,kj->ij", weights, states, states.conj())
    return EnsembleResult(
        averaged_populations=np.real(np.diag(rho)).copy(),
        averaged_density=rho,
        node_count=int(lams.size),
        n_system=net.n_sites,
    )
