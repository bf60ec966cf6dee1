"""Numerical simulator for environment-assisted quantum transport (ENAQT)
on coupled-waveguide networks.

Builds wavelength-dependent tight-binding Hamiltonians for laser-written
waveguide arrays, evolves single excitations with coherent dynamics,
irreversible trapping, and tunable decoherence (spectral-ensemble averaging
or pure dephasing), and quantifies how much the decoherence enhances the
transport efficiency.
"""

from ._version import __version__
from .analysis import (DarkStateReport, SweepResult, dark_state_diagnostics,
                       effective_kappa, enaqt_map, sweep_bandwidth, sweep_wavelength)
from .calibration import (CouplingCurve, effective_trap_rate, fit_coupling_curve,
                          pair_transfer)
from .config import (ConfigError, RunConfig, bundled_network_path, parse_config,
                     wavelength_grid)
from .decoherence import (EnsembleResult, Spectrum, coherence_decay_pair,
                          coherence_time, decoherence_strength, ensemble_average,
                          g1, spectral_nodes, tophat_gamma_closed_form)
from .lattice import (DispersionModel, HamiltonianMatrix, NetworkSpec, SinkSpec,
                      build_hamiltonian)
from .propagate import (EvolutionTrace, NoReturnReport, NumericalError,
                        evolve_lindblad, evolve_trapped, evolve_unitary,
                        sink_no_return_check, site_state)

__all__ = [
    "__version__",
    "ConfigError", "CouplingCurve", "DarkStateReport",
    "DispersionModel", "EnsembleResult", "EvolutionTrace",
    "HamiltonianMatrix", "NetworkSpec", "NoReturnReport", "NumericalError",
    "RunConfig", "SinkSpec", "Spectrum", "SweepResult",
    "build_hamiltonian", "bundled_network_path", "coherence_decay_pair",
    "coherence_time", "dark_state_diagnostics", "decoherence_strength",
    "effective_kappa", "effective_trap_rate",
    "enaqt_map", "ensemble_average", "evolve_lindblad",
    "evolve_trapped", "evolve_unitary", "fit_coupling_curve", "g1",
    "pair_transfer", "parse_config",
    "sink_no_return_check", "site_state", "spectral_nodes", "sweep_bandwidth",
    "sweep_wavelength", "tophat_gamma_closed_form", "wavelength_grid",
]
