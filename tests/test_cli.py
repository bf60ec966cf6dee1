import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import enaqt
from enaqt import calibration, cli, decoherence, propagate
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


def bandwidth_config(tmp_path, bandwidth_max_nm):
    """The bundled config with its bandwidth sweep ending at ``bandwidth_max_nm``."""
    raw = default_config_dict()
    raw["experiment"]["bandwidth_max_nm"] = bandwidth_max_nm
    path = tmp_path / f"band{bandwidth_max_nm:g}.json"
    path.write_text(json.dumps(raw))
    return path


def test_print_defaults(capsys):
    assert main(["--print-defaults"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == default_config_dict()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (None, "config file does not exist"),
    ("{not json", "not valid JSON"),
    ("", "config.network: missing required key"),  # an empty file is {}
    ("  \n", "config.network: missing required key"),
], ids=["missing", "invalid-json", "empty", "blank"])
def test_config_file_errors_exit_2(tmp_path, capsys, text, message):
    p = tmp_path / "config.json"
    if text is not None:
        p.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", str(p), "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_is_read_once(tmp_path, monkeypatch):
    p = small_config(tmp_path)
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    assert main(["simulate", str(p), "--output-dir", str(tmp_path / "out")]) == 0
    assert reads.count(p) == 1
    manifest = json.loads(read_text(tmp_path / "out" / "dynamics_manifest.json"))
    assert manifest["config"] == json.loads(read_text(p))


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
    assert set(runtime) == {"cpu_count", "python", "numpy", "thread_env"}
    assert runtime["thread_env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert runtime["thread_env"]["MKL_NUM_THREADS"] is None
    assert set(runtime["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS"}


def test_simulate_effective_rate_column_is_the_trapped_run(tmp_path):
    # the bundled run's rate-model column against the public one-run engine
    # launched at the input guide, bit for bit
    out = tmp_path / "out"
    assert main(["simulate", str(bundled_network_path()), "--output-dir", str(out)]) == 0
    lines = (out / "dynamics.csv").read_text().splitlines()
    header = lines[0].split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    zs = table[:, header.index("z_cm")]
    net = enaqt.parse_config(bundled_network_path()).network
    h_sys = enaqt.build_hamiltonian(net, net.dispersion.lambda0_nm, include_sink=False)
    want = enaqt.evolve_trapped(h_sys, enaqt.effective_kappa(net), net.target_site,
                                enaqt.site_state(net.n_sites, net.input_site), zs)
    assert np.array_equal(table[:, header.index("sink_fraction_effective_rate")],
                          want.sink_population)


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
    # a small sweep, each command on the bundled config, and band fits that
    # stop inside and past the first propagator call: a rerun from the
    # manifest's config echo writes the same bytes (a read of an unwritten
    # row would not)
    runs = [("sweep-wavelength", small_config(tmp_path), "wavelength_sweep")]
    runs += [(command, bundled_network_path(), csv_name) for command, csv_name in [
        ("simulate", "dynamics"),
        ("sweep-wavelength", "wavelength_sweep"),
        ("sweep-bandwidth", "bandwidth_sweep"),
        ("map", "enaqt_map"),
        ("map --extended", "enaqt_map_extended"),
    ]]
    runs += [("sweep-bandwidth", bandwidth_config(tmp_path, band), "bandwidth_sweep")
             for band in (20.0, 150.0)]
    for i, (command, cfg, csv_name) in enumerate(runs):
        out1 = tmp_path / f"run{i}"
        assert main([*command.split(), str(cfg), "--output-dir", str(out1)]) == 0
        manifest = json.loads((out1 / f"{csv_name}_manifest.json").read_text())

        # reconstruct the config purely from the manifest echo and run again
        cfg2 = tmp_path / f"from_manifest{i}.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / f"rerun{i}"
        assert main([*command.split(), str(cfg2), "--output-dir", str(out2)]) == 0

        b1 = (out1 / f"{csv_name}.csv").read_bytes()
        b2 = (out2 / f"{csv_name}.csv").read_bytes()
        assert b1 == b2, f"{command} on {cfg.name}"
        m2 = json.loads((out2 / f"{csv_name}_manifest.json").read_text())
        assert manifest["outputs"][0]["sha256"] == m2["outputs"][0]["sha256"]


@pytest.mark.parametrize("command, csv_name", [
    ("simulate", "dynamics.csv"),
    ("sweep-wavelength", "wavelength_sweep.csv"),
    ("sweep-bandwidth", "bandwidth_sweep.csv"),
    ("map", "enaqt_map.csv"),
    pytest.param("map --extended", "enaqt_map_extended.csv",
                 id="map-extended-enaqt_map_extended.csv"),
])
def test_manifest_hash_is_the_hash_of_the_csv_on_disk(tmp_path, command, csv_name):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert main([*command.split(), str(cfg), "--output-dir", str(out)]) == 0
    csv_path = out / csv_name
    manifest = json.loads((out / f"{csv_path.stem}_manifest.json").read_text())
    assert manifest["outputs"] == [{"path": csv_name, "sha256": hashlib.sha256(
        csv_path.read_bytes()).hexdigest()}]


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


def test_bandwidth_sweep_ignores_the_ensemble_node_count(tmp_path):
    # the ensemble column is the band fit's exact mean, not a node sum
    blobs = []
    for nodes in (3, 41):
        cfg = small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["numerics"]["ensemble_nodes"] = nodes
        cfg.write_text(json.dumps(raw))
        out = tmp_path / f"n{nodes}"
        assert main(["sweep-bandwidth", str(cfg), "--output-dir", str(out)]) == 0
        blobs.append((out / "bandwidth_sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


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


@pytest.mark.parametrize("command", ["map", "sweep-bandwidth", "simulate"])
def test_mutated_trapping_row_exits_3_without_csv(tmp_path, monkeypatch, capsys, command):
    # the trapped fraction grows 1 % too fast; every density is untouched
    exact = propagate._propagate

    def fast_trapping(gen, v0, zs):
        gen = gen.copy()
        gen[..., -1, :] *= 1.01
        return exact(gen, v0, zs)

    monkeypatch.setattr(propagate, "_propagate", fast_trapping)
    out = tmp_path / "out"
    assert main([command, str(small_config(tmp_path)), "--output-dir", str(out)]) == 3
    assert "trace and trapped fraction do not sum to 1" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_failed_eigendecomposition_exits_3(tmp_path, monkeypatch, capsys, command):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    out = tmp_path / "out"
    assert main([command, str(small_config(tmp_path)), "--output-dir", str(out)]) == 3
    assert "eigendecomposition failed" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_failed_dark_mode_eigendecomposition_exits_3(tmp_path, monkeypatch, capsys):
    # only the 4-guide system block fails: the dark-mode census, after the
    # other checks of `check` have passed
    eigh = np.linalg.eigh

    def failing_on_4x4(a):
        if np.shape(a) == (4, 4):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing_on_4x4)
    assert main(["check", str(small_config(tmp_path))]) == 3
    captured = capsys.readouterr()
    assert "eigendecomposition failed" in captured.err
    assert captured.out.count("[PASS]") == 4


@pytest.mark.parametrize("command", ["sweep-wavelength", "sweep-bandwidth"])
def test_non_finite_series_exits_3_without_csv(tmp_path, monkeypatch, capsys, command):
    # the wavelength propagator's Chebyshev weights turn non-finite
    def nan_bessel(x):
        return np.full((40, x.size), np.nan)

    monkeypatch.setattr(propagate, "_bessel_j", nan_bessel)
    out = tmp_path / "out"
    assert main([command, str(small_config(tmp_path)), "--output-dir", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, updates", [
    ("simulate", {"experiment.z_step_cm": 0.0}),
    ("map", {"experiment.z_step_cm": 0.0}),
    ("simulate", {"experiment.z_step_cm": -0.1}),
    ("sweep-bandwidth", {"experiment.bandwidth_step_nm": 0.0}),
    ("map", {"experiment.gamma_step_per_cm": 0.0}),
    ("sweep-wavelength", {"experiment.wavelength_step_nm": 0.0}),
    ("sweep-bandwidth", {"numerics.ensemble_nodes": 0}),
    ("simulate", {"experiment.z_cm": -1.0}),
    ("sweep-bandwidth", {"experiment.bandwidth_max_nm": -5.0}),
    ("map", {"experiment.gamma_max_per_cm": -0.01}),
    ("sweep-wavelength", {"experiment.wavelength_min_nm": 900.0}),
    # a window narrower than the step, between two points of the grid
    ("sweep-wavelength", {"experiment.wavelength_min_nm": 800.1,
                          "experiment.wavelength_max_nm": 800.3}),
    ("simulate", {"experiment.z_cm": math.inf}),
    # bands whose long edge has no finite coupling scale: near 2.5e5 nm at
    # 1580 nm, zero frequency from 1585 nm (2 lambda0) on, and zero frequency
    # for the +-5 sigma of a 400 nm gaussian
    ("sweep-bandwidth", {"experiment.bandwidth_max_nm": 1580.0}),
    ("sweep-bandwidth", {"experiment.bandwidth_max_nm": 1600.0}),
    ("check", {"spectrum.fwhm_nm": 1580.0}),
    ("check", {"spectrum.fwhm_nm": 1600.0}),
    ("check", {"spectrum.fwhm_nm": 400.0, "spectrum.shape": "gaussian"}),
    # windows whose grid reaches a wavelength that is not positive, or one
    # whose coupling scale overflows
    ("sweep-wavelength", {"experiment.wavelength_min_nm": -10.0}),
    ("sweep-wavelength", {"experiment.wavelength_min_nm": 0.0}),
    ("sweep-wavelength", {"experiment.wavelength_max_nm": 100000.0}),
    # steps too fine for any grid to be built: refused from the point count
    ("sweep-wavelength", {"experiment.wavelength_step_nm": 1e-9}),
    ("simulate", {"experiment.z_step_cm": 1e-9}),
    ("sweep-bandwidth", {"experiment.bandwidth_step_nm": 1e-9}),
    ("map", {"experiment.gamma_step_per_cm": 1e-12}),
])
def test_bad_grid_exits_2_naming_the_key(tmp_path, capsys, command, updates):
    raw = default_config_dict()
    for key, value in updates.items():
        block, name = key.split(".")
        raw[block][name] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(p), "--output-dir", str(out)]) == 2
    # every check of these blocks names the key path
    assert f"{next(iter(updates))}: " in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("detuning", [0.0, -1.0])
def test_bandwidth_sweep_without_reference_detuning_exits_2(tmp_path, capsys, detuning):
    raw = default_config_dict()
    raw["network"]["dispersion"]["detuning0_per_cm"] = detuning
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep-bandwidth", str(p), "--output-dir", str(out)]) == 2
    assert "network.dispersion.detuning0_per_cm: " in capsys.readouterr().err
    assert not list(out.glob("*"))
    # a zero band has gamma 0 whatever the detuning, and still runs
    raw["experiment"]["bandwidth_max_nm"] = 0.0
    p.write_text(json.dumps(raw))
    assert main(["sweep-bandwidth", str(p), "--output-dir", str(out)]) == 0


def test_unconverged_band_fit_exits_3_without_csv(tmp_path, monkeypatch, capsys):
    # the bundled sweep needs 129 points; a cap of 17 cannot hold them
    monkeypatch.setattr(decoherence, "FIT_MAX_POINTS", 17)
    out = tmp_path / "out"
    assert main(["sweep-bandwidth", str(bundled_network_path()),
                 "--output-dir", str(out)]) == 3
    assert "band fit of eta_coh not converged at 17 points" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "map", "sweep-wavelength"])
@pytest.mark.parametrize("value", [math.nan, -math.inf, 10 ** 400],
                         ids=["nan", "-inf", "int-beyond-float"])
def test_non_finite_detuning_exits_2_naming_the_key(tmp_path, capsys, command, value):
    raw = default_config_dict()
    raw["network"]["site_detunings"][0]["delta_beta_per_cm"] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(p), "--output-dir", str(out)]) == 2
    assert ("network.site_detunings[0].delta_beta_per_cm: must be finite"
            in capsys.readouterr().err)
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["simulate", "sweep-wavelength", "sweep-bandwidth",
                                     "map", "check"])
@pytest.mark.parametrize("c_trap", [1.75, 2.0])
def test_trap_coupling_not_below_sink_coupling_exits_2(tmp_path, capsys, command, c_trap):
    # the effective trapping rate diverges as c_trap reaches c_sink = 1.75
    raw = default_config_dict()
    raw["network"]["sink"]["c_trap_per_cm"] = c_trap
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(p), "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: network.sink.c_trap_per_cm: must be below" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-bandwidth", "map"])
def test_trapping_commands_without_a_sink_exit_2(tmp_path, capsys, command):
    # both take their trapping rate from the sink chain
    raw = default_config_dict()
    raw["network"]["sink"] = None
    p = tmp_path / "no_sink.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(p), "--output-dir", str(out)]) == 2
    assert "config error: network.sink: " in capsys.readouterr().err
    assert not out.exists()


def test_package_runs_without_scipy():
    # numpy is the only runtime dependency: importing the package and the CLI
    # and running every check must not load scipy
    code = ("import sys, enaqt, enaqt.cli\n"
            "assert enaqt.cli.main(['check', str(enaqt.bundled_network_path())]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(enaqt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_sweep_is_byte_identical_for_any_blas_thread_count(tmp_path):
    # the wavelength propagator's matrix products must not round by thread
    src = str(Path(enaqt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-m", "enaqt.cli", "sweep-wavelength",
                              str(bundled_network_path()), "--output-dir", str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        blobs.append((out / "wavelength_sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_every_export_resolves():
    # `from enaqt import *` fails on a name in __all__ that the package lacks
    missing = [name for name in enaqt.__all__ if not hasattr(enaqt, name)]
    assert missing == []


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
    fit = manifest["metadata"]["ensemble_fit"]
    assert set(fit) == {"points", "tail"}
    assert decoherence.FIT_FIRST_POINTS <= fit["points"] <= decoherence.FIT_MAX_POINTS
    assert fit["tail"] < decoherence.FIT_TAIL
    # on the bundled config a 20 nm band converges inside the fit's first
    # propagator call (33 of the 129 points it samples), the bundled 95 nm
    # band at the whole call and a 150 nm band one doubling past it
    for band, points in ((20.0, 33), (95.0, 129), (150.0, 257)):
        out = tmp_path / f"band{band:g}"
        assert main(["sweep-bandwidth", str(bandwidth_config(tmp_path, band)),
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "bandwidth_sweep_manifest.json").read_text())
        fit = manifest["metadata"]["ensemble_fit"]
        assert fit["points"] == points
        assert fit["tail"] < decoherence.FIT_TAIL


@pytest.mark.parametrize("command, csv_name, column, overrides, want", [
    ("simulate", "dynamics.csv", "z_cm", {"z_cm": 0.16, "z_step_cm": 0.1}, [0.0, 0.1]),
    ("map", "enaqt_map.csv", "z_cm", {"z_cm": 0.16, "z_step_cm": 0.1}, [0.0, 0.1]),
    ("map", "enaqt_map.csv", "gamma_per_cm",
     {"gamma_max_per_cm": 0.016, "gamma_step_per_cm": 0.01}, [0.0, 0.01]),
    ("sweep-bandwidth", "bandwidth_sweep.csv", "bandwidth_nm",
     {"bandwidth_max_nm": 98.0, "bandwidth_step_nm": 5.0}, [5.0 * k for k in range(20)]),
], ids=["simulate-z", "map-z", "map-gamma", "sweep-bandwidth"])
def test_grids_stop_at_the_configured_end(tmp_path, command, csv_name, column,
                                          overrides, want):
    # a range that is no whole number of steps stops at its last whole step;
    # rounding the step count would run past it (z = 0.2 cm, 100 nm)
    cfg = small_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / csv_name).read_text().splitlines()
    k = lines[0].split(",").index(column)
    assert sorted({float(line.split(",")[k]) for line in lines[1:]}) == want


@pytest.mark.parametrize("command, csv_name", [
    (["map"], "enaqt_map"),
    (["map", "--extended"], "enaqt_map_extended"),
    (["sweep-bandwidth"], "bandwidth_sweep"),
])
def test_lindblad_margins_in_manifest_not_csv(tmp_path, command, csv_name):
    out = tmp_path / "out"
    assert main(command[:1] + [str(bundled_network_path()), "--output-dir", str(out)]
                + command[1:]) == 0
    manifest = json.loads((out / f"{csv_name}_manifest.json").read_text())
    margins = manifest["metadata"]["diagnostics"]["lindblad"]
    assert set(margins) == {"max_trace_increase", "min_eigenvalue", "max_hermiticity_error",
                            "max_balance_error"}
    # inside the bounds the engine enforces, and measured, not placeholders
    assert -propagate.MAX_TRACE_INCREASE <= margins["max_trace_increase"] \
        <= propagate.MAX_TRACE_INCREASE
    assert propagate.MIN_EIGENVALUE <= margins["min_eigenvalue"] <= 0.0
    # the engine scatters each density from its Hermitian coordinates
    assert margins["max_hermiticity_error"] == 0.0
    assert 0.0 < margins["max_balance_error"] <= propagate.MAX_BALANCE_ERROR
    header = (out / f"{csv_name}.csv").read_text().splitlines()[0]
    assert not any(key in header
                   for key in ("diagnostics", "trace", "eigenvalue", "herm", "balance"))


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


CALIBRATION_ROWS = ["# pairs", "separation_um,coupling_per_cm", "10,2.8", "14,1.7", "18,1.0"]


@pytest.mark.parametrize("bad_row, line", [
    ("12", 4),  # one field
    ("12,1.9,0.1", 4),  # three fields
    ("twelve,1.9", 4),  # not a number, after the header
    ("separation_um,coupling_per_cm", 6),  # a second header, last
], ids=["one-field", "three-fields", "non-numeric", "second-header"])
def test_calibrate_malformed_row_exits_2_naming_file_and_line(tmp_path, capsys,
                                                               bad_row, line):
    rows = list(CALIBRATION_ROWS)
    rows.insert(line - 1, bad_row)
    csv_in = tmp_path / "pairs.csv"
    csv_in.write_text("\n".join(rows) + "\n")
    assert main(["calibrate", str(csv_in)]) == 2
    captured = capsys.readouterr()
    assert f"{csv_in}:{line}: expected separation_um,coupling_per_cm" in captured.err
    assert captured.out == ""


def test_calibrate_first_row_may_be_data(tmp_path, capsys):
    csv_in = tmp_path / "pairs.csv"
    csv_in.write_text("\n".join(CALIBRATION_ROWS[2:]) + "\n")
    assert main(["calibrate", str(csv_in)]) == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["separation", "coupling"])
def test_calibrate_non_finite_value_exits_3(tmp_path, capsys, value, column):
    rows = list(CALIBRATION_ROWS)
    rows[3] = f"{value},1.7" if column == "separation" else f"14,{value}"
    csv_in = tmp_path / "pairs.csv"
    csv_in.write_text("\n".join(rows) + "\n")
    assert main(["calibrate", str(csv_in)]) == 3
    captured = capsys.readouterr()
    assert "calibration failed: separations and couplings must be positive and finite" \
        in captured.err
    assert captured.out == ""


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_check_passes_on_bundled_network(tmp_path, capsys):
    # under the bundled tophat band and under a gaussian one, whose
    # quadrature line runs the gaussian nodes and weights: its drift is
    # pinned (flat weights on its nodes give 5.58e-07), the tophat's is
    # rounding (~5e-15) and is not
    raw = default_config_dict()
    raw["spectrum"] = {"shape": "gaussian", "center_nm": 792.5, "fwhm_nm": 40.0}
    gaussian = tmp_path / "gaussian.json"
    gaussian.write_text(json.dumps(raw))
    for cfg, drift in ((bundled_network_path(), ""), (gaussian, "2.47e-07 ")):
        assert main(["check", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] dark-state diagnostics" in out
        assert "[PASS] sink no-return" in out
        assert f"[PASS] ensemble quadrature convergence: sink fraction moves {drift}" in out
        assert "[PASS] decoherence strength closed form" in out
        assert "[PASS] pair-transfer oracle" in out
        assert "[FAIL]" not in out


def test_check_runs_an_underflowing_band_as_monochromatic(tmp_path, capsys):
    # a gaussian of 1e-320 nm: its width in cm underflows to 0, so its band
    # is its center, and the quadrature line has no band to divide by
    raw = default_config_dict()
    raw["spectrum"] = {"shape": "gaussian", "center_nm": 792.5, "fwhm_nm": 1e-320}
    p = tmp_path / "underflow.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "[skip] ensemble quadrature convergence" in out
    assert "[FAIL]" not in out and "nan" not in out


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


def test_check_quadrature_line_can_fail(tmp_path, capsys):
    # three nodes cannot resolve the 95 nm band: five move the sink fraction
    raw = default_config_dict()
    raw["numerics"]["ensemble_nodes"] = 3
    p = tmp_path / "coarse.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] ensemble quadrature convergence: sink fraction moves 1.80e-03 " \
           "when nodes 3 -> 5" in out


def test_check_closed_form_self_test_can_fail(monkeypatch, capsys):
    strength = decoherence.decoherence_strength
    monkeypatch.setattr(decoherence, "decoherence_strength",
                        lambda *a, **k: strength(*a, **k) * (1.0 + 1e-3))
    assert main(["check", str(bundled_network_path())]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] decoherence strength closed form (self-test)" in out
    assert out.count("[FAIL]") == 1


def test_check_pair_transfer_self_test_can_fail(monkeypatch, capsys):
    transfer = calibration.pair_transfer
    monkeypatch.setattr(calibration, "pair_transfer",
                        lambda *a, **k: transfer(*a, **k) + 1e-6)
    assert main(["check", str(bundled_network_path())]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] pair-transfer oracle (self-test)" in out
    assert out.count("[FAIL]") == 1


def test_check_flags_short_sink(tmp_path, capsys):
    raw = default_config_dict()
    raw["network"]["sink"]["n_sink"] = 2
    p = tmp_path / "short.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 3
    assert "[FAIL] sink no-return" in capsys.readouterr().out
