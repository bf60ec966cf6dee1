"""Command-line entry point.

Subcommands: simulate, sweep-wavelength, sweep-bandwidth, map, calibrate,
check.  Each experiment run writes CSV tables plus a JSON manifest that
echoes the fully resolved configuration, hashes every output, and is
sufficient to reproduce the run byte for byte.  Exit codes: 0 success,
2 configuration problems, 3 numerical failure or failed checks.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy

from ._version import __version__
from . import analysis, calibration, decoherence, lattice, propagate
from .config import (ConfigError, RunConfig, config_sha256, default_config_dict,
                     parse_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _output_dir(config: RunConfig, override: Optional[str]) -> Path:
    if override:
        directory = override
    else:
        directory = os.environ.get("ENAQT_OUTPUT_DIR", config.output.directory)
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, name: str, raw_config: Dict, outputs: List[Path],
                    started: str, command: str, workers: int,
                    extra: Optional[Dict] = None) -> Path:
    manifest = {
        "version": __version__,
        "command": command,
        "workers": workers,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "config": raw_config,
        "config_sha256": config_sha256(raw_config),
        "outputs": [
            {"path": p.name, "sha256": _sha256_file(p)} for p in outputs
        ],
        "runtime": {  # facts that bear on run time, never on the numbers
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        },
    }
    if extra:
        manifest["metadata"] = extra
    path = out_dir / f"{name}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


def _load(args) -> tuple:
    config = parse_config(args.config)
    raw = json.loads(Path(args.config).read_text() or "{}")
    return config, raw


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    config, raw = _load(args)
    started = _utc_now()
    net = config.network
    exp = config.experiment
    lam0 = net.dispersion.lambda0_nm
    zs = _grid(0.0, exp.z_cm, exp.z_step_cm)

    h = lattice.build_hamiltonian(net, lam0)
    psi0 = propagate.AmplitudeState.site(h.dimension, net.input_site)
    trace = propagate.evolve_unitary(h, psi0, zs)

    columns = {"z_cm": zs}
    for m in range(net.n_sites):
        columns[f"population_site_{m + 1}"] = trace.populations[:, m]
    columns["sink_fraction"] = trace.sink_population

    if net.sink is not None:
        kappa = analysis.effective_kappa(net)
        trapped = propagate.evolve_trapped(h.system_block(), kappa, net.target_site,
                                           propagate.AmplitudeState.site(net.n_sites,
                                                                         net.input_site),
                                           zs)
        columns["sink_fraction_effective_rate"] = trapped.sink_population

    out_dir = _output_dir(config, args.output_dir)
    result = analysis.SweepResult(kind="dynamics", columns=columns,
                                  metadata={"wavelength_nm": lam0})
    csv_path = out_dir / "dynamics.csv"
    result.write_csv(csv_path)
    _write_manifest(out_dir, "dynamics", raw, [csv_path], started,
                    "simulate", args.workers, result.metadata)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_sweep_wavelength(args) -> int:
    config, raw = _load(args)
    started = _utc_now()
    net = config.network
    exp = config.experiment
    lams = analysis.wavelength_grid(net.dispersion.lambda0_nm, exp.wavelength_min_nm,
                                    exp.wavelength_max_nm, exp.wavelength_step_nm)
    result = analysis.sweep_wavelength(net, lams, exp.z_cm)
    out_dir = _output_dir(config, args.output_dir)
    csv_path = out_dir / "wavelength_sweep.csv"
    result.write_csv(csv_path)
    _write_manifest(out_dir, "wavelength_sweep", raw, [csv_path], started,
                    "sweep-wavelength", args.workers, result.metadata)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_sweep_bandwidth(args) -> int:
    config, raw = _load(args)
    started = _utc_now()
    net = config.network
    exp = config.experiment
    num = config.numerics
    bws = _grid(0.0, exp.bandwidth_max_nm, exp.bandwidth_step_nm)
    result = analysis.sweep_bandwidth(net, bws, exp.z_cm, nodes=num.ensemble_nodes,
                                      sensitivity=num.sensitivity_fraction)
    out_dir = _output_dir(config, args.output_dir)
    csv_path = out_dir / "bandwidth_sweep.csv"
    result.write_csv(csv_path)
    _write_manifest(out_dir, "bandwidth_sweep", raw, [csv_path], started,
                    "sweep-bandwidth", args.workers, result.metadata)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_map(args) -> int:
    config, raw = _load(args)
    started = _utc_now()
    net = config.network
    exp = config.experiment
    if args.extended:
        # long-haul regime: strong dephasing pushes the efficiency toward 1
        zs = _grid(0.0, 500.0, 5.0)
        gammas = _grid(0.0, 0.5, 0.025)
    else:
        zs = _grid(0.0, exp.z_cm, exp.z_step_cm)
        gammas = _grid(0.0, exp.gamma_max_per_cm, exp.gamma_step_per_cm)
    result = analysis.enaqt_map(net, zs, gammas)
    out_dir = _output_dir(config, args.output_dir)
    csv_path = out_dir / ("enaqt_map_extended.csv" if args.extended else "enaqt_map.csv")
    result.write_csv(csv_path)
    _write_manifest(out_dir, csv_path.stem, raw, [csv_path], started,
                    "map" + (" --extended" if args.extended else ""),
                    args.workers, result.metadata)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    rows = []
    path = Path(args.csv)
    if not path.exists():
        raise ConfigError(str(path), "calibration CSV does not exist")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                continue  # header line
    try:
        curve = calibration.fit_coupling_curve(rows)
    except ValueError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = {
        "amplitude_per_cm": curve.amplitude_per_cm,
        "decay_length_um": curve.decay_length_um,
        "n_samples": len(curve.samples),
        "max_abs_log_residual": max((abs(r) for r in curve.log_residuals), default=0.0),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_check(args) -> int:
    config, _ = _load(args)
    net = config.network
    num = config.numerics
    lam0 = net.dispersion.lambda0_nm
    failures = 0

    def report(name: str, ok: bool, detail: str):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1

    # sink chain long enough for the configured run length
    if net.sink is not None:
        rep = propagate.sink_no_return_check(net, config.experiment.z_cm,
                                             threshold=num.no_return_threshold)
        report("sink no-return", rep.passed,
               f"end population {rep.max_end_population:.2e}, "
               f"system shift {rep.max_system_shift:.2e} (threshold {rep.threshold})")
    else:
        print("[skip] sink no-return: network has no explicit sink")

    # quadrature convergence of the spectral ensemble
    if net.sink is not None and config.spectrum.shape in ("tophat", "gaussian") \
            and not config.spectrum.is_monochromatic:
        psi0 = propagate.AmplitudeState.site(net.dimension, net.input_site)
        n = num.ensemble_nodes
        sink_at = {}
        for count in (n, 2 * n - 1):
            ens = decoherence.ensemble_average(net, config.spectrum, psi0,
                                               config.experiment.z_cm, nodes=count)
            sink_at[count] = 1.0 - float(ens.averaged_populations[: net.n_sites].sum())
        drift = abs(sink_at[n] - sink_at[2 * n - 1])
        report("ensemble quadrature convergence", drift < 1e-4,
               f"sink fraction moves {drift:.2e} when nodes {n} -> {2 * n - 1}")
    else:
        print("[skip] ensemble quadrature convergence: needs a broadband spectrum "
              "and an explicit sink")

    # closed form for the tophat decoherence strength
    spec_ref = decoherence.Spectrum.tophat(lam0, 95.0)
    db = net.dispersion.detuning0_per_cm
    if db > 0:
        got = decoherence.decoherence_strength(spec_ref, db, lam0)
        want = decoherence.tophat_gamma_closed_form(db, 95.0, lam0)
        rel = abs(got - want) / want
        report("decoherence strength closed form", rel < 1e-6,
               f"quadrature {got:.8f} vs closed form {want:.8f} (rel {rel:.1e})")
    else:
        print("[skip] decoherence strength: network has no reference detuning")

    # two-guide beat against the generic propagator
    c, dbeta, z = 1.3, 0.7, 4.2
    h2 = lattice.HamiltonianMatrix(np.array([[0.0, c], [c, dbeta]]), lam0, 2)
    trace = propagate.evolve_unitary(h2, propagate.AmplitudeState.site(2, 0), [z])
    err = abs(trace.populations[-1, 1] - calibration.pair_transfer(c, dbeta, z))
    report("pair-transfer oracle", err < 1e-10, f"|mismatch| {err:.2e}")

    # dark-mode census: the coherent ceiling must be where trapping saturates.
    # Runs last: scipy's expm wakes scipy's own OpenBLAS threads, which then
    # spin for ~0.1 s and slow numpy's eigh in the ensemble check on 2 cores.
    h_sys = lattice.build_hamiltonian(net, lam0, include_sink=False)
    diag = analysis.dark_state_diagnostics(h_sys, net.target_site, net.input_site,
                                           threshold=num.dark_overlap_threshold)
    census = f"{diag.n_dark} dark mode(s), coherent ceiling {diag.efficiency_bound:.6f}"
    if net.sink is None:
        print(f"[skip] dark-state diagnostics: network has no sink ({census})")
    else:
        kappa = analysis.effective_kappa(net)
        h_eff = h_sys.entries.astype(complex)
        h_eff[net.target_site, net.target_site] -= 0.5j * kappa
        # slowest bright-mode population decay; rates this far below kappa
        # are a dark mode's rounding
        rates = -2.0 * np.linalg.eigvals(h_eff).imag
        z_long = 50.0 / rates[rates > 1e-9 * kappa].min()
        psi0 = propagate.AmplitudeState.site(net.n_sites, net.input_site)
        trapped = float(propagate.evolve_trapped(h_sys, kappa, net.target_site, psi0,
                                                 [z_long]).sink_population[-1])
        gap = abs(trapped - diag.efficiency_bound)
        report("dark-state diagnostics", gap < 1e-6,
               f"{census} vs trapped fraction {trapped:.6f} at z = {z_long:.4g} cm "
               f"(|gap| {gap:.1e})")

    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enaqt",
        description="Simulator for decoherence-enhanced transport on "
                    "coupled-waveguide networks.",
    )
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the full default configuration as JSON and exit")
    sub = parser.add_subparsers(dest="subcommand")

    def add_run(name: str, fn, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--workers", type=int, default=1,
                       help="recorded in the manifest for compatibility; starts "
                            "no processes (every sweep runs in this process)")
        p.add_argument("--output-dir", default=None,
                       help="override the output directory")
        p.set_defaults(fn=fn)
        return p

    add_run("simulate", _cmd_simulate,
            "propagate light through the network and record populations vs z")
    add_run("sweep-wavelength", _cmd_sweep_wavelength,
            "coherent transport efficiency across the wavelength window")
    add_run("sweep-bandwidth", _cmd_sweep_bandwidth,
            "transport enhancement vs illumination bandwidth (ensemble and "
            "dephasing routes)")
    p_map = add_run("map", _cmd_map,
                    "efficiency and enhancement over propagation length and "
                    "dephasing strength")
    p_map.add_argument("--extended", action="store_true",
                       help="long-range grid (z to 500 cm, gamma to 0.5 cm^-1)")
    add_run("check", _cmd_check,
            "run the built-in invariant checks against the configured network")

    p_cal = sub.add_parser("calibrate",
                           help="fit an exponential coupling-vs-separation curve")
    p_cal.add_argument("csv", help="CSV of separation_um,coupling_per_cm rows")
    p_cal.add_argument("--out", default=None, help="write fitted JSON here")
    p_cal.set_defaults(fn=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print(json.dumps(default_config_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    if not getattr(args, "subcommand", None):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except propagate.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
