import dataclasses
import hashlib
import json
import re
import warnings

import pytest

from enaqt import (ConfigError, DispersionModel, SinkSpec, Spectrum,
                   bundled_network_path, parse_config)
from enaqt.cli import main
from enaqt.config import (ExperimentConfig, NumericsConfig, OutputConfig,
                          config_from_dict, default_config_dict)


def _block(raw, path):
    """The block of ``raw`` at a dotted key path such as "network.sink"."""
    for name in path.split("."):
        raw = raw[name]
    return raw


def test_bundled_config_is_the_design_network():
    config = parse_config(bundled_network_path())
    assert config.spectrum.shape == "tophat"
    assert config.spectrum.center_nm == 792.5
    assert config.spectrum.fwhm_nm == 95.0
    assert config.experiment.z_cm == 15.0


def test_bundled_config_matches_printed_defaults(tmp_path, capsys):
    # the packaged JSON is what --print-defaults prints and what a run on it
    # echoes and hashes in its manifest
    packaged = json.loads(bundled_network_path().read_text())
    assert main(["--print-defaults"]) == 0
    assert json.loads(capsys.readouterr().out) == packaged
    assert main(["simulate", str(bundled_network_path()), "--output-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "dynamics_manifest.json").read_text())
    assert manifest["config"] == packaged
    canonical = json.dumps(packaged, sort_keys=True, separators=(",", ":")).encode()
    assert manifest["config_sha256"] == hashlib.sha256(canonical).hexdigest()


def test_defaults_dict_validates():
    config = config_from_dict(default_config_dict())
    assert config.network.n_sites == 4


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.json")


def test_empty_file_names_first_missing_key(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(ConfigError, match="config.network"):
        parse_config(p)


def test_negative_coupling_names_key_path():
    raw = default_config_dict()
    raw["network"]["couplings"][1]["coupling_per_cm"] = -1.0
    with pytest.raises(ConfigError, match=r"network\.couplings\[1\]\.coupling_per_cm"):
        config_from_dict(raw)


def test_unknown_keys_rejected_everywhere():
    raw = default_config_dict()
    raw["network"]["n_guides"] = 4
    with pytest.raises(ConfigError, match="n_guides"):
        config_from_dict(raw)

    raw = default_config_dict()
    raw["turbo"] = True
    with pytest.raises(ConfigError, match="turbo"):
        config_from_dict(raw)

    raw = default_config_dict()
    raw["numerics"]["seed"] = 1
    with pytest.raises(ConfigError, match="numerics.seed"):
        config_from_dict(raw)


def test_site_indices_are_one_based():
    raw = default_config_dict()
    config = config_from_dict(raw)
    # config says input 1 / target 3 / detuned 4; the API is 0-based
    assert config.network.input_site == 0
    assert config.network.target_site == 2
    assert config.network.site_detunings == ((3, 1.0),)

    raw["network"]["input_site"] = 0
    with pytest.raises(ConfigError, match="input_site"):
        config_from_dict(raw)
    raw["network"]["input_site"] = 5
    with pytest.raises(ConfigError, match="input_site"):
        config_from_dict(raw)


def test_bad_detuning_law():
    raw = default_config_dict()
    raw["network"]["dispersion"]["detuning_law"] = "cubic"
    with pytest.raises(ConfigError, match="detuning_law"):
        config_from_dict(raw)


def test_spectrum_block_validation():
    raw = default_config_dict()
    raw["spectrum"] = {"shape": "delta", "center_nm": 800.0, "fwhm_nm": 3.0}
    with pytest.raises(ConfigError, match="spectrum"):
        config_from_dict(raw)
    # fwhm_nm takes the dataclass default: monochromatic light
    raw["spectrum"] = {"shape": "gaussian", "center_nm": 800.0}
    assert config_from_dict(raw).spectrum == Spectrum.gaussian(800.0, 0.0)


def test_sink_can_be_disabled():
    raw = default_config_dict()
    raw["network"]["sink"] = None
    config = config_from_dict(raw)
    assert config.network.sink is None


def test_wrong_types_are_rejected():
    raw = default_config_dict()
    raw["network"]["n_sites"] = "four"
    with pytest.raises(ConfigError, match="n_sites"):
        config_from_dict(raw)
    raw = default_config_dict()
    raw["experiment"]["z_cm"] = "far"
    with pytest.raises(ConfigError, match="z_cm"):
        config_from_dict(raw)


@pytest.mark.parametrize("path, key", [
    ("numerics", "lindblad_step_tolerance"),
    ("network.dispersion", "slopes_are_placeholders"),
    ("spectrum", "lines"),
    ("network.dispersion", "beta0_per_cm"),
])
def test_knobs_that_did_nothing_exit_2_naming_the_key(tmp_path, capsys, path, key):
    raw = default_config_dict()
    _block(raw, path)[key] = True
    p = tmp_path / "old.json"
    p.write_text(json.dumps(raw))
    assert main(["simulate", str(p), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"{path}.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_current_config_parses_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(bundled_network_path())
        config_from_dict(default_config_dict())


_DEFAULTED_BLOCKS = {
    "network.dispersion": DispersionModel,
    "network.sink": SinkSpec,
    "experiment": ExperimentConfig,
    "numerics": NumericsConfig,
    "output": OutputConfig,
}


@pytest.mark.parametrize("stripped", [[path] for path in _DEFAULTED_BLOCKS]
                         + [list(_DEFAULTED_BLOCKS)],
                         ids=list(_DEFAULTED_BLOCKS) + ["all"])
def test_bundled_values_are_the_dataclass_defaults(stripped):
    # a block emptied of every key its dataclass has a default for parses to
    # the bundled config, so the file and the dataclasses cannot drift apart
    raw = default_config_dict()
    for path in stripped:
        block = _block(raw, path)
        defaulted = {f.name for f in dataclasses.fields(_DEFAULTED_BLOCKS[path])
                     if f.default is not dataclasses.MISSING}
        for key in defaulted & set(block):
            del block[key]
        assert block == {}
    bundled = parse_config(bundled_network_path())
    assert config_from_dict(raw) == bundled
    if stripped == list(_DEFAULTED_BLOCKS):
        # every block but the network left out, the spectrum too
        assert config_from_dict({"network": raw["network"]}) == bundled


@pytest.mark.parametrize("path, key, value", [
    ("network.sink", "c_trap_per_cm", -1.0),
    ("network.sink", "c_sink_per_cm", 0.0),
    ("network.sink", "n_sink", 0),
    ("network.dispersion", "lambda0_nm", 0.0),
    ("network.dispersion", "detuning_law", "cubic"),
    ("experiment", "z_step_cm", 0),
    ("experiment", "gamma_max_per_cm", -1),
    ("numerics", "ensemble_nodes", 0),
    ("numerics", "sensitivity_fraction", 1.5),
    ("numerics", "sensitivity_fraction", -2.0),
    ("numerics", "sensitivity_fraction", -0.5),
    ("numerics", "sensitivity_fraction", 1.0),
    ("numerics", "no_return_threshold", -1.0),
    ("numerics", "no_return_threshold", 0.0),
    ("numerics", "dark_overlap_threshold", 2.0),
    ("numerics", "dark_overlap_threshold", 0.0),
    ("spectrum", "center_nm", 0),
    ("spectrum", "shape", "delta"),
    ("spectrum", "shape", "discrete"),
])
def test_dataclass_checks_name_block_and_key(path, key, value):
    raw = default_config_dict()
    _block(raw, path)[key] = value
    if path in ("experiment", "numerics"):
        # config's own blocks name the key path, as the band check does
        want, message = f"{path}.{key}", rf"^{re.escape(path)}\.{key}: must be "
    else:
        # another module's dataclass names the block, then the key
        want, message = path, rf"^{re.escape(path)}: {key} "
    with pytest.raises(ConfigError, match=message) as caught:
        config_from_dict(raw)
    assert caught.value.path == want


@pytest.mark.parametrize("value, message", [
    (-5.0, "must be non-negative, got -5.0"),  # the dataclass's range check
    (1580.0, "the band reaches"),  # the band check, which needs the network
])
def test_bandwidth_max_errors_name_the_key_path(value, message):
    raw = default_config_dict()
    raw["experiment"]["bandwidth_max_nm"] = value
    with pytest.raises(ConfigError, match=message) as caught:
        config_from_dict(raw)
    assert caught.value.path == "experiment.bandwidth_max_nm"
