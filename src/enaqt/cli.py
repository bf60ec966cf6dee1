"""Command-line entry point.

Subcommands: simulate, sweep-wavelength, sweep-bandwidth, map, calibrate,
check.  The four experiments (simulate, the two sweeps and map) are
functions (config, args) -> (SweepResult, CSV name, command label) that
share one run path, ``_run``: it reads the config document once, runs
the experiment, and writes the CSV into ``--output-dir`` (else
``output.directory``) plus a JSON manifest that echoes the config file as
given (keys it omits took ``NumericsConfig``'s and the other dataclasses'
defaults) and the SHA-256 of the CSV, taken from the bytes as they are
written.  No output directory is made before the config and the
experiment have run.  Exit codes: 0 success, 2 configuration problems,
3 numerical failure or failed checks.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from . import analysis, calibration, decoherence, lattice, propagate
from .config import (ConfigError, RunConfig, config_from_dict, config_sha256,
                     default_config_dict, parse_config, read_config_document,
                     wavelength_grid)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _run(args) -> int:
    """The one run path: read the config document once, run the command's
    experiment, and write its CSV and a manifest beside it."""
    raw = read_config_document(args.config)
    config = config_from_dict(raw)
    started = _utc_now()
    result, csv_name, command = args.experiment(config, args)
    out_dir = Path(args.output_dir or config.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / csv_name
    digest = result.write_csv(csv_path)
    manifest = {
        "version": __version__,
        "command": command,
        "workers": args.workers,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "config": raw,
        "config_sha256": config_sha256(raw),
        "outputs": [{"path": csv_path.name, "sha256": digest}],
        "runtime": {  # facts that bear on run time, never on the numbers
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        },
    }
    if result.metadata:
        manifest["metadata"] = result.metadata
    path = out_dir / f"{csv_path.stem}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiments: (config, args) -> (result, CSV name, command label)

def _simulate(config: RunConfig, args):
    net = config.network
    exp = config.experiment
    lam0 = net.dispersion.lambda0_nm
    zs = wavelength_grid(0.0, 0.0, exp.z_cm, exp.z_step_cm)

    h = lattice.build_hamiltonian(net, lam0)
    trace = propagate.evolve_unitary(h, propagate.site_state(h.dimension, net.input_site), zs)

    columns = {"z_cm": zs}
    for m in range(net.n_sites):
        columns[f"population_site_{m + 1}"] = trace.populations[:, m]
    columns["sink_fraction"] = trace.sink_population

    if net.sink is not None:
        etas, _, _ = analysis.effective_rate_runs(net, [[0.0]], zs)
        columns["sink_fraction_effective_rate"] = etas[0]

    result = analysis.SweepResult(columns=columns, metadata={"wavelength_nm": lam0})
    return result, "dynamics.csv", "simulate"


def _sweep_wavelength(config: RunConfig, args):
    net = config.network
    exp = config.experiment
    lams = wavelength_grid(net.dispersion.lambda0_nm, exp.wavelength_min_nm,
                           exp.wavelength_max_nm, exp.wavelength_step_nm)
    result = analysis.sweep_wavelength(net, lams, exp.z_cm)
    return result, "wavelength_sweep.csv", "sweep-wavelength"


def _sweep_bandwidth(config: RunConfig, args):
    exp = config.experiment
    bws = wavelength_grid(0.0, 0.0, exp.bandwidth_max_nm, exp.bandwidth_step_nm)
    detuning = config.network.dispersion.detuning0_per_cm
    # gamma is proportional to the reference detuning; a zero band needs none
    if bws.max() > 0 and not detuning > 0:
        raise ConfigError("network.dispersion.detuning0_per_cm",
                          f"must be positive to sweep bandwidths up to {bws.max():g} nm, "
                          f"got {detuning}")
    result = analysis.sweep_bandwidth(config.network, bws, exp.z_cm,
                                      sensitivity=config.numerics.sensitivity_fraction)
    return result, "bandwidth_sweep.csv", "sweep-bandwidth"


def _map(config: RunConfig, args):
    exp = config.experiment
    if args.extended:
        # long-haul regime: strong dephasing pushes the efficiency toward 1
        zs = wavelength_grid(0.0, 0.0, 500.0, 5.0)
        gammas = wavelength_grid(0.0, 0.0, 0.5, 0.025)
        csv_name, command = "enaqt_map_extended.csv", "map --extended"
    else:
        zs = wavelength_grid(0.0, 0.0, exp.z_cm, exp.z_step_cm)
        gammas = wavelength_grid(0.0, 0.0, exp.gamma_max_per_cm, exp.gamma_step_per_cm)
        csv_name, command = "enaqt_map.csv", "map"
    return analysis.enaqt_map(config.network, zs, gammas), csv_name, command


# ---------------------------------------------------------------------------
# commands that write no run table

def _cmd_calibrate(args) -> int:
    rows = []
    path = Path(args.csv)
    if not path.exists():
        raise ConfigError(str(path), "calibration CSV does not exist")
    with open(path, newline="") as fh:
        lines = [(n, row) for n, row in enumerate(csv.reader(fh), start=1)
                 if row and not row[0].strip().startswith("#")]
    for k, (n, row) in enumerate(lines):
        try:
            values = [float(v) for v in row]
        except ValueError:
            if k == 0:
                continue  # the header, the only line that need not be numbers
            values = []
        if len(values) != 2:
            raise ConfigError(f"{path}:{n}", "expected separation_um,coupling_per_cm "
                                             f"as two numbers, got {','.join(row)!r}")
        rows.append(tuple(values))
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
    config = parse_config(args.config)
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

    # quadrature convergence of the spectral ensemble: its efficiency is
    # sum_k w_k eta_coh(lambda_k), so both node sets run in one coherent call
    if net.sink is not None and not config.spectrum.is_monochromatic:
        n = num.ensemble_nodes
        lams_n, w_n = decoherence.spectral_nodes(config.spectrum, n)
        lams_2n, w_2n = decoherence.spectral_nodes(config.spectrum, 2 * n - 1)
        etas = decoherence.coherent_efficiency(net, np.concatenate((lams_n, lams_2n)),
                                               config.experiment.z_cm)
        drift = abs(float(w_n @ etas[: lams_n.size]) - float(w_2n @ etas[lams_n.size:]))
        report("ensemble quadrature convergence", drift < 1e-4,
               f"sink fraction moves {drift:.2e} when nodes {n} -> {2 * n - 1}")
    else:
        print("[skip] ensemble quadrature convergence: needs a broadband spectrum "
              "and an explicit sink")

    # self-test, whatever the configured spectrum: the closed form for the
    # decoherence strength of a fixed 95 nm tophat
    spec_ref = decoherence.Spectrum.tophat(lam0, 95.0)
    db = net.dispersion.detuning0_per_cm
    if db > 0:
        got = decoherence.decoherence_strength(spec_ref, db)
        want = decoherence.tophat_gamma_closed_form(db, 95.0, lam0)
        rel = abs(got - want) / want
        report("decoherence strength closed form (self-test)", rel < 1e-6,
               f"coherence length {got:.8f} vs closed form {want:.8f} (rel {rel:.1e})")
    else:
        print("[skip] decoherence strength: network has no reference detuning")

    # self-test on a fixed pair of guides: the two-guide beat against the
    # generic propagator
    c, dbeta, z = 1.3, 0.7, 4.2
    h2 = lattice.HamiltonianMatrix(np.array([[0.0, c], [c, dbeta]]), lam0, 2)
    trace = propagate.evolve_unitary(h2, propagate.site_state(2, 0), [z])
    err = abs(trace.populations[-1, 1] - calibration.pair_transfer(c, dbeta, z))
    report("pair-transfer oracle (self-test)", err < 1e-10, f"|mismatch| {err:.2e}")

    # dark-mode census: the coherent ceiling must be where trapping saturates
    h_sys = lattice.build_hamiltonian(net, lam0, include_sink=False)
    diag = analysis.dark_state_diagnostics(h_sys, net.target_site, net.input_site,
                                           threshold=num.dark_overlap_threshold)
    census = f"{diag.n_dark} dark mode(s), coherent ceiling {diag.efficiency_bound:.6f}"
    if net.sink is None:
        print(f"[skip] dark-state diagnostics: network has no sink ({census})")
    else:
        kappa = analysis.effective_kappa(net)
        h_eff = propagate._trapped_hamiltonian(h_sys, kappa, net.target_site)
        # slowest bright-mode population decay; rates this far below kappa
        # are a dark mode's rounding
        rates = -2.0 * np.linalg.eigvals(h_eff).imag
        z_long = 50.0 / rates[rates > 1e-9 * kappa].min()
        etas, _, _ = analysis.effective_rate_runs(net, [[0.0]], [z_long])
        trapped = float(etas[0, -1])
        gap = abs(trapped - diag.efficiency_bound)
        report("dark-state diagnostics", gap < 1e-6,
               f"{census} vs trapped fraction {trapped:.6f} at z = {z_long:.4g} cm "
               f"(|gap| {gap:.1e})")

    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="enaqt",
        description="Simulator for decoherence-enhanced transport on "
                    "coupled-waveguide networks.",
    )
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the full default configuration as JSON and exit")
    sub = parser.add_subparsers(dest="subcommand")

    def add_run(name: str, help_text: str, experiment=None, fn=_run):
        """A command that reads a config file: by default ``_run`` runs its
        ``experiment``."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--workers", type=int, default=1,
                       help="recorded in the manifest for compatibility; starts "
                            "no processes (every sweep runs in this process)")
        p.add_argument("--output-dir", default=None,
                       help="override the output directory")
        p.set_defaults(fn=fn, experiment=experiment)
        return p

    add_run("simulate", "propagate light through the network and record "
            "populations vs z", experiment=_simulate)
    add_run("sweep-wavelength", "coherent transport efficiency across the "
            "wavelength window", experiment=_sweep_wavelength)
    add_run("sweep-bandwidth", "transport enhancement vs illumination bandwidth "
            "(ensemble and dephasing routes)", experiment=_sweep_bandwidth)
    p_map = add_run("map", "efficiency and enhancement over propagation length and "
                    "dephasing strength", experiment=_map)
    p_map.add_argument("--extended", action="store_true",
                       help="long-range grid (z to 500 cm, gamma to 0.5 cm^-1)")
    add_run("check", "run the built-in invariant checks against the configured "
            "network", fn=_cmd_check)

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
