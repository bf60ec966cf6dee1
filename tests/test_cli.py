import concurrent.futures
import json
import math
import os

import numpy as np
import pytest

from enaqt import propagate
from enaqt.cli import main
from enaqt.config import bundled_network_path, default_config_dict


def small_config(tmp_path, **experiment_overrides):
    raw = default_config_dict()
    raw["experiment"].update({
        "wavelength_min_nm": 789.0,
        "wavelength_max_nm": 796.0,
        "wavelength_step_nm": 0.5,
        "z_cm": 5.0,
        "z_step_cm": 0.5,
        "bandwidth_max_nm": 40.0,
        "bandwidth_step_nm": 20.0,
        "gamma_max_per_cm": 0.02,
        "gamma_step_per_cm": 0.01,
    })
    raw["experiment"].update(experiment_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_print_defaults(capsys):
    assert main(["--print-defaults"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == default_config_dict()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_schema_error_exits_2_with_key_path(tmp_path, capsys):
    raw = default_config_dict()
    raw["network"]["couplings"][0]["coupling_per_cm"] = -2.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main(["simulate", str(p)]) == 2
    assert "coupling_per_cm" in capsys.readouterr().err


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2


def test_simulate_writes_csv_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 0
    csv_path = out / "dynamics.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[0] == "z_cm"
    assert "population_site_1" in header
    assert "sink_fraction" in header
    manifest = json.loads((out / "dynamics_manifest.json").read_text())
    assert manifest["outputs"][0]["path"] == "dynamics.csv"
    assert manifest["config"]["network"]["n_sites"] == 4
    runtime = manifest["runtime"]
    assert runtime["cpu_count"] == os.cpu_count()
    assert runtime["numpy"] == np.__version__
    assert set(runtime) == {"cpu_count", "python", "numpy", "scipy", "thread_env"}
    assert runtime["thread_env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert runtime["thread_env"]["MKL_NUM_THREADS"] is None
    assert set(runtime["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS"}


def test_sweep_wavelength_outputs(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep-wavelength", str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / "wavelength_sweep.csv").read_text().splitlines()
    assert lines[0] == "wavelength_nm,efficiency"
    assert len(lines) == 1 + 15  # 789..796 by 0.5
    etas = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(0.0 <= e <= 1.0 for e in etas)


def test_manifest_reruns_byte_identical(tmp_path):
    cfg = small_config(tmp_path)
    out1 = tmp_path / "run1"
    assert main(["sweep-wavelength", str(cfg), "--output-dir", str(out1)]) == 0
    manifest = json.loads((out1 / "wavelength_sweep_manifest.json").read_text())

    # reconstruct the config purely from the manifest echo and run again
    cfg2 = tmp_path / "from_manifest.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "run2"
    assert main(["sweep-wavelength", str(cfg2), "--output-dir", str(out2)]) == 0

    b1 = (out1 / "wavelength_sweep.csv").read_bytes()
    b2 = (out2 / "wavelength_sweep.csv").read_bytes()
    assert b1 == b2
    m2 = json.loads((out2 / "wavelength_sweep_manifest.json").read_text())
    assert manifest["outputs"][0]["sha256"] == m2["outputs"][0]["sha256"]


@pytest.mark.parametrize("command", ["sweep-wavelength", "sweep-bandwidth", "map"])
def test_workers_flag_is_byte_stable(tmp_path, monkeypatch, command):
    def no_pool(*args, **kwargs):
        raise AssertionError("--workers must not start a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = small_config(tmp_path)
    csv_name = {"sweep-wavelength": "wavelength_sweep.csv",
                "sweep-bandwidth": "bandwidth_sweep.csv",
                "map": "enaqt_map.csv"}[command]
    blobs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main([command, str(cfg), "--output-dir", str(out),
                     "--workers", str(workers)]) == 0
        blobs[workers] = (out / csv_name).read_bytes()
    assert blobs[1] == blobs[2]


@pytest.mark.parametrize("command", ["map", "sweep-bandwidth"])
def test_unphysical_lindblad_output_exits_3_without_csv(tmp_path, monkeypatch,
                                                        capsys, command):
    exact = propagate._propagate

    def overshooting(gen, v0, zs):  # every density carries 1 % too much trace
        return 1.01 * exact(gen, v0, zs)

    monkeypatch.setattr(propagate, "_propagate", overshooting)
    out = tmp_path / "out"
    assert main([command, str(small_config(tmp_path)), "--output-dir", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_map_subcommand(tmp_path):
    cfg = small_config(tmp_path, z_cm=6.0, z_step_cm=2.0)
    out = tmp_path / "out"
    assert main(["map", str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / "enaqt_map.csv").read_text().splitlines()
    assert lines[0] == "gamma_per_cm,z_cm,efficiency,enhancement"
    assert len(lines) == 1 + 3 * 4  # 3 gammas x 4 z points


def test_sweep_bandwidth_subcommand(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep-bandwidth", str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / "bandwidth_sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "enaqt_ensemble" in header and "enaqt_lindblad" in header
    assert len(lines) == 1 + 3  # bandwidths 0, 20, 40
    manifest = json.loads((out / "bandwidth_sweep_manifest.json").read_text())
    assert manifest["metadata"]["measured_reference"]["enaqt_percent"] == 7.6


def test_calibrate_subcommand(tmp_path, capsys):
    rows = ["separation_um,coupling_per_cm"]
    for s in (10.0, 14.0, 18.0, 22.0):
        rows.append(f"{s},{10.0 * math.exp(-s / 8.0)}")
    csv_in = tmp_path / "pairs.csv"
    csv_in.write_text("\n".join(rows) + "\n")
    out_json = tmp_path / "fit.json"
    assert main(["calibrate", str(csv_in), "--out", str(out_json)]) == 0
    fit = json.loads(out_json.read_text())
    assert fit["amplitude_per_cm"] == pytest.approx(10.0, rel=1e-9)
    assert fit["decay_length_um"] == pytest.approx(8.0, rel=1e-9)


def test_calibrate_rejects_single_row(tmp_path, capsys):
    csv_in = tmp_path / "one.csv"
    csv_in.write_text("10.0,2.5\n")
    assert main(["calibrate", str(csv_in)]) == 3


def test_check_passes_on_bundled_network(capsys):
    assert main(["check", str(bundled_network_path())]) == 0
    out = capsys.readouterr().out
    assert "[PASS] dark-state diagnostics" in out
    assert "[PASS] sink no-return" in out
    assert "[PASS] ensemble quadrature convergence" in out
    assert "[PASS] decoherence strength closed form" in out
    assert "[PASS] pair-transfer oracle" in out
    assert "[FAIL]" not in out


def test_check_dark_state_line_can_fail(tmp_path, capsys):
    # an overlap threshold of 0.5 counts bright modes as dark: the ceiling
    # drops to ~0 while trapping still saturates at 2/3
    raw = default_config_dict()
    raw["numerics"]["dark_overlap_threshold"] = 0.5
    p = tmp_path / "loose.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] dark-state diagnostics" in out
    assert "trapped fraction 0.666667" in out


def test_check_flags_short_sink(tmp_path, capsys):
    raw = default_config_dict()
    raw["network"]["sink"]["n_sink"] = 2
    p = tmp_path / "short.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 3
    assert "[FAIL] sink no-return" in capsys.readouterr().out
