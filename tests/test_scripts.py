"""Smoke runs of the stand-alone scripts on tiny grids."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("run_dynamics.py", ["--z-max", "1", "--z-step", "0.5"],
     "z_cm,population_site_1,population_site_2,population_site_3,population_site_4,"
     "sink_fraction,sink_fraction_effective_rate"),
    ("run_wavelength_sweep.py", ["--min", "790", "--max", "795", "--step", "2.5",
                                 "--z", "2"],
     "wavelength_nm,efficiency"),
    ("run_bandwidth_sweep.py", ["--max-bandwidth", "10", "--step", "5", "--z", "2",
                                "--nodes", "5"],
     "bandwidth_nm,gamma_per_cm,efficiency_ensemble,efficiency_lindblad,"
     "enaqt_ensemble,enaqt_lindblad,enaqt_lindblad_low,enaqt_lindblad_high"),
    ("run_enaqt_map.py", [],
     "gamma_per_cm,z_cm,efficiency,enhancement"),
])
def test_script_writes_csv(tmp_path, monkeypatch, capsys, script, args, header):
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
    assert "wrote" in capsys.readouterr().out
