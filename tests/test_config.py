import hashlib
import json
import warnings

import pytest

from enaqt import ConfigError, bundled_network_path, enaqt4_network, parse_config
from enaqt.cli import main
from enaqt.config import config_from_dict, default_config_dict


def test_bundled_config_is_the_design_network():
    config = parse_config(bundled_network_path())
    assert config.network == enaqt4_network()
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
    raw["spectrum"] = {"shape": "discrete",
                       "lines": [{"wavelength_nm": 780.0, "weight": 1.0},
                                 {"wavelength_nm": 800.0, "weight": 1.0}]}
    config = config_from_dict(raw)
    assert config.spectrum.shape == "discrete"
    assert len(config.spectrum.lines) == 2


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


def test_retired_step_tolerance_warns_and_parses_unchanged():
    # configs echoed in older manifests still carry the key
    raw = default_config_dict()
    raw["numerics"]["lindblad_step_tolerance"] = 1e-9
    with pytest.warns(FutureWarning, match="lindblad_step_tolerance") as caught:
        config = config_from_dict(raw)
    assert len(caught) == 1
    assert config == config_from_dict(default_config_dict())


def test_current_config_parses_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(bundled_network_path())
        config_from_dict(default_config_dict())
