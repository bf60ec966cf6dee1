"""Declarative waveguide networks and their tight-binding Hamiltonians.

A network is a set of single-mode waveguides (sites) with per-site
propagation-constant offsets (detunings) and pairwise evanescent couplings,
plus an optional absorbing sink realised as a linear chain of tightly
coupled guides hanging off the target site.  All entries are wavelength
dependent through a :class:`DispersionModel`; the Hamiltonian at a given
wavelength is a real-symmetric matrix in cm^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

DETUNING_LAWS = ("inverse-lambda", "constant")


def _check_wavelength(wavelength_nm: float) -> None:
    """Half of the rule for a usable wavelength: finite and positive.  The
    other half, a finite coupling scale, is ``coupling_scale``'s."""
    if not 0 < wavelength_nm < math.inf:  # a NaN fails it too
        raise ValueError(f"wavelength must be finite and positive, got {wavelength_nm}")


@dataclass(frozen=True)
class DispersionModel:
    """Wavelength dependence of detunings and couplings.

    Detunings scale by ``lambda0/lambda`` under the "inverse-lambda" law
    (constant effective-index difference) or stay fixed under "constant".
    Couplings scale as ``exp(slope * (lambda - lambda0))``.  The coupling
    slope is a configurable stand-in; there is no measured dispersion for
    the couplings, so treat the default as a placeholder.
    """

    lambda0_nm: float = 792.5
    detuning0_per_cm: float = 1.0
    detuning_law: str = "inverse-lambda"
    coupling_slope_per_nm: float = 0.01

    def __post_init__(self):
        if not 0 < self.lambda0_nm < math.inf:
            raise ValueError(f"lambda0_nm must be finite and positive, got {self.lambda0_nm}")
        for name in ("detuning0_per_cm", "coupling_slope_per_nm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.detuning_law not in DETUNING_LAWS:
            raise ValueError(
                f"detuning_law must be one of {DETUNING_LAWS}, got {self.detuning_law!r}"
            )

    def detuning_scale(self, wavelength_nm: float) -> float:
        """Multiplier applied to every site detuning at this wavelength."""
        _check_wavelength(wavelength_nm)
        if self.detuning_law == "inverse-lambda":
            return self.lambda0_nm / wavelength_nm
        return 1.0

    def coupling_scale(self, wavelength_nm: float) -> float:
        """Multiplier applied to every coupling at this wavelength.  This is
        the rule for a usable wavelength: finite and positive, with a finite
        coupling scale; any other raises ValueError."""
        _check_wavelength(wavelength_nm)
        try:
            scale = math.exp(self.coupling_slope_per_nm * (wavelength_nm - self.lambda0_nm))
        except OverflowError:
            scale = math.inf
        if scale == math.inf:  # math.exp(inf) is inf, and raises nothing
            raise ValueError(f"coupling scale at {wavelength_nm} nm is not finite")
        return scale


@dataclass(frozen=True)
class SinkSpec:
    """Absorbing reservoir: a chain of n_sink guides coupled at c_sink,
    attached to the target site through c_trap."""

    n_sink: int = 90
    c_trap_per_cm: float = 1.5
    c_sink_per_cm: float = 1.75

    def __post_init__(self):
        if self.n_sink < 1:
            raise ValueError(f"n_sink must be >= 1, got {self.n_sink}")
        for name in ("c_trap_per_cm", "c_sink_per_cm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of a waveguide network.

    Site indices are 0-based.  ``couplings`` lists each unordered pair once;
    ``site_detunings`` lists only sites with a nonzero offset.  ``input_site``
    and ``target_site`` index the system sites (never the sink chain).
    """

    n_sites: int
    site_detunings: Tuple[Tuple[int, float], ...] = ()
    couplings: Tuple[Tuple[int, int, float], ...] = ()
    dispersion: DispersionModel = field(default_factory=DispersionModel)
    sink: Optional[SinkSpec] = None
    input_site: int = 0
    target_site: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        object.__setattr__(self, "site_detunings",
                           tuple((int(s), float(d)) for s, d in self.site_detunings))
        object.__setattr__(self, "couplings",
                           tuple((int(i), int(j), float(c)) for i, j, c in self.couplings))
        detuned = set()
        for s, _ in self.site_detunings:
            if not 0 <= s < self.n_sites:
                raise ValueError(f"detuning site {s} out of range for {self.n_sites} sites")
            if s in detuned:
                raise ValueError(f"detuning site {s} listed more than once")
            detuned.add(s)
        seen = set()
        for i, j, c in self.couplings:
            if i == j:
                raise ValueError(f"self-coupling on site {i}")
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
                raise ValueError(f"coupling ({i},{j}) out of range for {self.n_sites} sites")
            if c == 0 or not math.isfinite(c):
                raise ValueError(f"coupling ({i},{j}) must be finite and nonzero, got {c}")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"coupling pair {pair} listed more than once")
            seen.add(pair)
        for name in ("input_site", "target_site"):
            idx = getattr(self, name)
            if not 0 <= idx < self.n_sites:
                raise ValueError(f"{name}={idx} out of range for {self.n_sites} sites")

    @property
    def dimension(self) -> int:
        """Total guide count including the sink chain."""
        return self.n_sites + (self.sink.n_sink if self.sink else 0)


@dataclass(eq=False)
class HamiltonianMatrix:
    """Real-symmetric tight-binding matrix (cm^-1) at one wavelength.

    ``n_system`` marks how many leading rows describe system sites; the
    remainder is the sink chain.
    """

    entries: np.ndarray
    wavelength_nm: float
    n_system: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {self.entries.shape}")
        if not np.array_equal(self.entries, self.entries.T):
            raise ValueError("entries must be symmetric")
        if not 1 <= self.n_system <= self.entries.shape[0]:
            raise ValueError(f"n_system={self.n_system} inconsistent with shape")

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    @property
    def has_sink(self) -> bool:
        return self.n_system < self.dimension


def enaqt4_network(c: float = 1.0,
                   delta_beta: float = 1.0,
                   sink: Optional[SinkSpec] = SinkSpec(),
                   dispersion: Optional[DispersionModel] = None) -> NetworkSpec:
    """Four-site chain 1-2-3-4 with the last site detuned.

    Site 0 is the input, site 2 the target (and the sink attachment point),
    and site 3 carries the detuning.  With ``delta_beta == c`` the chain has
    one eigenmode with no amplitude on the target, which caps the coherent
    trapping efficiency; breaking that degeneracy with decoherence is the
    transport-enhancement effect this package simulates.
    """
    if c <= 0:
        raise ValueError(f"chain coupling must be positive, got {c}")
    if dispersion is None:
        dispersion = DispersionModel(detuning0_per_cm=delta_beta)
    return NetworkSpec(
        n_sites=4,
        site_detunings=((3, delta_beta),) if delta_beta != 0 else (),
        couplings=((0, 1, c), (1, 2, c), (2, 3, c)),
        dispersion=dispersion,
        sink=sink,
        input_site=0,
        target_site=2,
    )


def hamiltonian_parts(net: NetworkSpec,
                      include_sink: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """The wavelength-independent parts of ``net``'s Hamiltonian.

    Returns the site detunings D (a vector) and the coupling matrix A (all
    couplings, sink chain included, zero diagonal), so that at wavelength
    lambda, with d and c the dispersion's detuning and coupling scales,

        H(lambda) = d(lambda) diag(D) + c(lambda) A.

    Every Hamiltonian of the package has this form.  Sink guides sit at the
    reference propagation constant and inherit the coupling dispersion of
    the system guides.
    """
    with_sink = include_sink and net.sink is not None
    dim = net.dimension if with_sink else net.n_sites
    detunings = np.zeros(dim)
    for s, d in net.site_detunings:
        detunings[s] = d
    couplings = np.zeros((dim, dim))
    for i, j, c in net.couplings:
        couplings[i, j] = couplings[j, i] = c
    if with_sink:
        sink = net.sink
        first = net.n_sites
        couplings[net.target_site, first] = couplings[first, net.target_site] = \
            sink.c_trap_per_cm
        for k in range(first, dim - 1):
            couplings[k, k + 1] = couplings[k + 1, k] = sink.c_sink_per_cm
    return detunings, couplings


def build_hamiltonian(net: NetworkSpec, wavelength_nm: float,
                      include_sink: bool = True) -> HamiltonianMatrix:
    """Assemble the tight-binding matrix of ``net`` at one wavelength from
    its ``hamiltonian_parts``.

    Propagation constants are measured from the reference guide's: a
    common offset would be a global phase, and populations depend on
    detuning differences alone.
    """
    disp = net.dispersion
    detunings, couplings = hamiltonian_parts(net, include_sink)
    h = disp.coupling_scale(wavelength_nm) * couplings
    np.fill_diagonal(h, disp.detuning_scale(wavelength_nm) * detunings)
    return HamiltonianMatrix(h, wavelength_nm, net.n_sites)
