"""Run configuration: JSON schema, validation, defaults, manifests.

Configs are plain JSON with five blocks (network, spectrum, experiment,
output, numerics).  Unknown keys are rejected and every physical quantity
carries its unit in the key name, because a silent cm/nm mix-up is the
most likely way to get a wrong-but-plausible answer out of this package.
Site indices are 1-based in config files (matching how the guides are
labelled on the device sketch) and converted to the 0-based indices the
Python API uses.  The spectrum, dispersion, sink, experiment, output and
numerics blocks are read field by field from the dataclass each one
builds, so their defaults and range checks are written only there; the
Python API takes its ``numerics`` defaults and checks from
``NumericsConfig`` too.  ``wavelength_grid`` is the one grid rule, which
the window check applies and every run grid follows, and every sampled
wavelength range is checked once, at its edges, when the config is read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .decoherence import Spectrum
from .lattice import DispersionModel, NetworkSpec, SinkSpec


class ConfigError(ValueError):
    """Configuration problem; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# the most points a run grid may hold, counted from its edges and step
# before any grid is built.  The bundled grids hold 20 to 191 points.  A
# wavelength sweep of the bundled 94-guide network at this cap peaks near
# 0.7 GiB, so ten times the cap would not fit in a machine of 8 GB; a step
# past it is most likely a unit slip (a step of 1e-9 nm asks for 1e11 points)
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    z_cm: float = 15.0
    z_step_cm: float = 0.1
    wavelength_min_nm: float = 745.0
    wavelength_max_nm: float = 840.0
    wavelength_step_nm: float = 0.5
    bandwidth_max_nm: float = 95.0
    bandwidth_step_nm: float = 5.0
    gamma_max_per_cm: float = 0.02
    gamma_step_per_cm: float = 0.001

    def __post_init__(self):
        for key in ("z_step_cm", "wavelength_step_nm", "bandwidth_step_nm",
                    "gamma_step_per_cm"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"experiment.{key}",
                                  f"must be positive, got {getattr(self, key)}")
        for key in ("z_cm", "bandwidth_max_nm", "gamma_max_per_cm"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"experiment.{key}",
                                  f"must be non-negative, got {getattr(self, key)}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs"


@dataclass(frozen=True)
class NumericsConfig:
    ensemble_nodes: int = 41
    dark_overlap_threshold: float = 1e-12
    no_return_threshold: float = 1e-3
    sensitivity_fraction: float = 0.1

    def __post_init__(self):
        if self.ensemble_nodes < 1:
            raise ConfigError("numerics.ensemble_nodes",
                              f"must be >= 1, got {self.ensemble_nodes}")
        # a dark mode has overlap below the threshold, so 1 or more makes
        # every mode dark
        if not 0 < self.dark_overlap_threshold < 1:
            raise ConfigError("numerics.dark_overlap_threshold",
                              f"must be in (0, 1), got {self.dark_overlap_threshold}")
        if not self.no_return_threshold > 0:
            raise ConfigError("numerics.no_return_threshold",
                              f"must be positive, got {self.no_return_threshold}")
        # the sensitivity runs scale the detuning by 1 -+ the fraction
        if not 0 <= self.sensitivity_fraction < 1:
            raise ConfigError("numerics.sensitivity_fraction",
                              f"must be in [0, 1), got {self.sensitivity_fraction}")


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    spectrum: Spectrum
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)


def default_config_dict() -> Dict:
    """Full default configuration: the packaged four-guide design network.

    Chain coupling and site-4 detuning of 1.0 cm^-1, trap and sink
    couplings of 1.5 and 1.75 cm^-1, matched at 792.5 nm.  The dispersion
    slopes are placeholders (no measured values exist); the sink length is
    sized so nothing reflects off the chain end within 15 cm anywhere in
    the sweep window.
    """
    return json.loads(bundled_network_path().read_text())


def bundled_network_path() -> Path:
    """Path of the packaged default configuration file."""
    return Path(resources.files("enaqt").joinpath("data/paper_network.json"))


# ---------------------------------------------------------------------------
# validation helpers

_REQUIRED = dataclasses.MISSING  # also marks a dataclass field without a default


def _require_dict(value, path: str) -> Dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(block: Dict, allowed, path: str):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _get(block: Dict, key: str, path: str, kind, default=_REQUIRED):
    if key not in block:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    value = block[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond floats
            raise ConfigError(f"{path}.{key}", f"must be finite, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}", f"expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}.{key}", f"expected a list, got {value!r}")
        return value
    raise TypeError(f"unsupported kind {kind}")


def _site_index(value: int, n_sites: int, path: str) -> int:
    if not 1 <= value <= n_sites:
        raise ConfigError(path, f"site index must be in 1..{n_sites}, got {value}")
    return value - 1


def _parse_network(block: Dict, path: str = "network") -> NetworkSpec:
    block = _require_dict(block, path)
    _check_keys(block, {"n_sites", "input_site", "target_site", "site_detunings",
                        "couplings", "dispersion", "sink"}, path)
    n_sites = _get(block, "n_sites", path, int)
    if n_sites < 1:
        raise ConfigError(f"{path}.n_sites", f"must be >= 1, got {n_sites}")

    detunings: List[Tuple[int, float]] = []
    for k, item in enumerate(_get(block, "site_detunings", path, list, default=[])):
        ipath = f"{path}.site_detunings[{k}]"
        item = _require_dict(item, ipath)
        _check_keys(item, {"site", "delta_beta_per_cm"}, ipath)
        site = _site_index(_get(item, "site", ipath, int), n_sites, f"{ipath}.site")
        detunings.append((site, _get(item, "delta_beta_per_cm", ipath, float)))

    couplings: List[Tuple[int, int, float]] = []
    for k, item in enumerate(_get(block, "couplings", path, list, default=[])):
        ipath = f"{path}.couplings[{k}]"
        item = _require_dict(item, ipath)
        _check_keys(item, {"site_a", "site_b", "coupling_per_cm"}, ipath)
        a = _site_index(_get(item, "site_a", ipath, int), n_sites, f"{ipath}.site_a")
        b = _site_index(_get(item, "site_b", ipath, int), n_sites, f"{ipath}.site_b")
        c = _get(item, "coupling_per_cm", ipath, float)
        if not c > 0:
            raise ConfigError(f"{ipath}.coupling_per_cm", f"must be positive, got {c}")
        couplings.append((a, b, c))

    dispersion = _parse_simple(block.get("dispersion", {}), DispersionModel,
                               f"{path}.dispersion")
    sink = None
    if block.get("sink") is not None:
        sink = _parse_simple(block["sink"], SinkSpec, f"{path}.sink")

    try:
        return NetworkSpec(
            n_sites=n_sites,
            site_detunings=tuple(detunings),
            couplings=tuple(couplings),
            dispersion=dispersion,
            sink=sink,
            input_site=_site_index(_get(block, "input_site", path, int, default=1),
                                   n_sites, f"{path}.input_site"),
            target_site=_site_index(_get(block, "target_site", path, int, default=1),
                                    n_sites, f"{path}.target_site"),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_simple(block: Dict, cls, path: str):
    """Build dataclass ``cls`` from ``block``: its fields name the keys and
    give their types and defaults, and its ``__post_init__`` checks ranges.
    A ``ConfigError`` from that check keeps its key path; any other
    ValueError is given the block's."""
    block = _require_dict(block, path)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(block, fields, path)
    kwargs = {}
    for name, f in fields.items():
        kind = {"int": int, "str": str}.get(f.type, float)
        kwargs[name] = _get(block, name, path, kind, default=f.default)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def config_from_dict(raw: Dict) -> RunConfig:
    """Validate a parsed JSON document and fill defaults."""
    raw = _require_dict(raw, "config")
    _check_keys(raw, {"network", "spectrum", "experiment", "output", "numerics"},
                "config")
    if "network" not in raw:
        raise ConfigError("config.network", "missing required key")
    config = RunConfig(
        network=_parse_network(raw["network"]),
        spectrum=_parse_simple(
            raw["spectrum"] if "spectrum" in raw else default_config_dict()["spectrum"],
            Spectrum, "spectrum"),
        experiment=_parse_simple(raw.get("experiment", {}), ExperimentConfig,
                                 "experiment"),
        output=_parse_simple(raw.get("output", {}), OutputConfig, "output"),
        numerics=_parse_simple(raw.get("numerics", {}), NumericsConfig, "numerics"),
    )
    _check_wavelengths(config)
    _check_grid_sizes(config)
    _check_sink(config)
    return config


def _grid_indices(lambda0_nm: float, min_nm: float, max_nm: float,
                  step_nm: float) -> Tuple[float, float]:
    """The least and the greatest k of the points lambda0 + step k of
    ``wavelength_grid``, as whole floats (infinite for a step too fine to
    count them); the grid is empty where the first exceeds the second."""
    if step_nm <= 0:
        raise ValueError(f"step must be positive, got {step_nm}")
    return (float(np.ceil((min_nm - lambda0_nm) / step_nm - 1e-12)),
            float(np.floor((max_nm - lambda0_nm) / step_nm + 1e-12)))


def wavelength_grid(lambda0_nm: float, min_nm: float, max_nm: float,
                    step_nm: float) -> np.ndarray:
    """Uniform grid anchored so that lambda0 is exactly on it.

    This is the CLI's one grid rule, for z, bandwidth and gamma (anchored
    at 0) as well as wavelength: it never passes ``max_nm`` by more than
    1e-12 of a step, so a range that is no whole number of steps stops at
    its last whole step.
    """
    k_lo, k_hi = _grid_indices(lambda0_nm, min_nm, max_nm, step_nm)
    if k_hi < k_lo:
        raise ValueError("empty wavelength grid")
    return lambda0_nm + step_nm * np.arange(int(k_lo), int(k_hi) + 1)


def _check_wavelengths(config: RunConfig) -> None:
    """Reject a run input that samples a wavelength the runs cannot use: a
    wavelength window that holds no point of the grid through the
    network's lambda0, a step too fine to count that grid's points (an
    index of an edge overflows), or an edge of a sampled range that fails
    the usable-wavelength rule of ``DispersionModel.coupling_scale``.  The
    ranges are the window's grid (its first and last point, found without
    building it), the sweep's widest tophat and the spectrum's band; a
    band's long edge runs off to zero frequency as a tophat's full width
    nears 2 lambda0.  Both dispersion scales are monotone in lambda, so a
    range whose edges pass holds no unusable wavelength."""
    exp = config.experiment
    disp = config.network.dispersion
    k_lo, k_hi = _grid_indices(disp.lambda0_nm, exp.wavelength_min_nm,
                               exp.wavelength_max_nm, exp.wavelength_step_nm)
    if k_hi < k_lo:
        raise ConfigError(
            "experiment.wavelength_min_nm",
            f"no point of the {exp.wavelength_step_nm} nm grid through {disp.lambda0_nm} nm "
            f"lies in [wavelength_min_nm, wavelength_max_nm] = "
            f"[{exp.wavelength_min_nm}, {exp.wavelength_max_nm}]")
    if not np.isfinite(k_hi - k_lo):
        raise ConfigError(
            "experiment.wavelength_step_nm",
            f"is too fine to count the grid points over [wavelength_min_nm, "
            f"wavelength_max_nm] = [{exp.wavelength_min_nm}, {exp.wavelength_max_nm}], "
            f"got {exp.wavelength_step_nm}")
    edges = [("experiment.wavelength_min_nm", "window",
              disp.lambda0_nm + exp.wavelength_step_nm * k_lo),
             ("experiment.wavelength_max_nm", "window",
              disp.lambda0_nm + exp.wavelength_step_nm * k_hi)]
    bands = [("experiment.bandwidth_max_nm",
              Spectrum.tophat(disp.lambda0_nm, exp.bandwidth_max_nm)),
             ("spectrum.fwhm_nm", config.spectrum)]
    edges += [(key, "band", edge) for key, band in bands for edge in band.band_edges_nm]
    for key, what, edge in edges:
        try:
            disp.coupling_scale(float(edge))
        except ValueError as exc:
            raise ConfigError(key, f"the {what} reaches an unusable wavelength ({exc}); "
                                   f"narrow the {what}") from None


def _check_grid_sizes(config: RunConfig) -> None:
    """Reject a run grid of more than ``MAX_GRID_POINTS`` points, naming its
    step, from the count of its points: no grid is built."""
    exp = config.experiment
    grids = (("z_step_cm", 0.0, 0.0, exp.z_cm),
             ("wavelength_step_nm", config.network.dispersion.lambda0_nm,
              exp.wavelength_min_nm, exp.wavelength_max_nm),
             ("bandwidth_step_nm", 0.0, 0.0, exp.bandwidth_max_nm),
             ("gamma_step_per_cm", 0.0, 0.0, exp.gamma_max_per_cm))
    for key, anchor, lo, hi in grids:
        k_lo, k_hi = _grid_indices(anchor, lo, hi, getattr(exp, key))
        if not k_hi - k_lo < MAX_GRID_POINTS:
            raise ConfigError(f"experiment.{key}",
                              f"gives {k_hi - k_lo + 1:.3g} grid points over [{lo}, {hi}], "
                              f"more than {MAX_GRID_POINTS}; use a coarser step")


def _check_sink(config: RunConfig) -> None:
    """Reject a sink chain that traps at no finite rate: the effective rate
    of the runs that use one diverges as c_trap nears c_sink.  ``SinkSpec``
    itself allows it, since the coherent engines propagate any chain."""
    sink = config.network.sink
    if sink is not None and sink.c_trap_per_cm >= sink.c_sink_per_cm:
        raise ConfigError("network.sink.c_trap_per_cm",
                          f"must be below c_sink_per_cm ({sink.c_sink_per_cm}), "
                          f"got {sink.c_trap_per_cm}")


def read_config_document(path):
    """The JSON document of a config file, unvalidated.

    An empty file is read as the empty document, so validating it names
    the first missing required key instead of a JSON parse failure.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(p), "config file does not exist")
    text = p.read_text()
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(p), f"not valid JSON: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config file (``read_config_document``)."""
    return config_from_dict(read_config_document(path))


def config_sha256(raw: Dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
