"""Seeded inputs and the command list of each benchmark workload.

Seed 0 is the bundled ``paper_network.json`` unchanged.  Any other seed
multiplies every coupling (chain, trap and sink) and every detuning by one
common factor drawn from [0.97, 1.03].  A common factor rescales H as a
whole, so the dark-mode match, the trap ratio and every grid size stay the
same, and the run does the same amount of work on different numbers.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

SCALE_SPREAD = 0.03

# Each workload is a list of CLI commands; "{config}" is replaced by the
# generated config path.  A pass runs the whole list once.
#
# Left out after measuring them on a shared 2-core machine, because their run
# medians spread wider than the largest bound a metric may have (25 %):
#
# - ``map`` plus ``map --extended`` at --workers 1 as a workload of its own:
#   two or three 7-11 s passes per run, medians spread 22-26 %.  Its Lindblad
#   work is measured on ``bandwidth`` and, through the pool, on ``parallel``.
# - ``sweep-wavelength --workers 2`` in ``parallel``: a call takes 0.5-1.5 s,
#   or 8-15 s when the two workers' OpenBLAS threads oversubscribe the cores,
#   and such stalls come in bursts, so run medians spread 27 % and more.  Add
#   it back once pool workers run single-threaded BLAS.
WORKLOADS = {
    # The paper's headline experiment: RK4 Lindblad and ensemble averaging
    # both carry real weight here.
    "bandwidth": [["sweep-bandwidth", "{config}", "--workers", "1"]],
    # eigh/expm on the 94-guide explicit-sink network, CLI I/O and config
    # parsing; no Lindblad work, so it bypasses the Lindblad and sweep
    # optimisations.
    "coherent": [["simulate", "{config}", "--workers", "1"],
                 ["sweep-wavelength", "{config}", "--workers", "1"],
                 ["check", "{config}", "--workers", "1"]],
    # The only workload that starts the process pool.
    "parallel": [["map", "{config}", "--workers", "2"]],
}


def bundled_config() -> dict:
    path = Path(__file__).resolve().parents[1] / "src" / "enaqt" / "data" / "paper_network.json"
    return json.loads(path.read_text())


def seed_scale(seed: int) -> float:
    """Common coupling/detuning factor for a seed; exactly 1 for seed 0."""
    if seed == 0:
        return 1.0
    return 1.0 + SCALE_SPREAD * (2.0 * random.Random(seed).random() - 1.0)


def scaled_config(base: dict, scale: float) -> dict:
    cfg = copy.deepcopy(base)
    net = cfg["network"]
    for c in net["couplings"]:
        c["coupling_per_cm"] *= scale
    for d in net["site_detunings"]:
        d["delta_beta_per_cm"] *= scale
    net["dispersion"]["detuning0_per_cm"] *= scale
    sink = net.get("sink")
    if sink:
        sink["c_trap_per_cm"] *= scale
        sink["c_sink_per_cm"] *= scale
    return cfg


def tiny_config(cfg: dict) -> dict:
    """Same network on coarse grids: every command runs in well under a second."""
    tiny = copy.deepcopy(cfg)
    lam0 = tiny["network"]["dispersion"]["lambda0_nm"]
    tiny["experiment"] = {
        "z_cm": 2.0, "z_step_cm": 0.5,
        "wavelength_min_nm": lam0 - 10.0, "wavelength_max_nm": lam0 + 10.0,
        "wavelength_step_nm": 5.0,
        "bandwidth_max_nm": 10.0, "bandwidth_step_nm": 5.0,
        "gamma_max_per_cm": 0.02, "gamma_step_per_cm": 0.01,
    }
    tiny["numerics"]["ensemble_nodes"] = 5
    return tiny


def make_config(seed: int, tiny: bool = False) -> dict:
    cfg = scaled_config(bundled_config(), seed_scale(seed))
    return tiny_config(cfg) if tiny else cfg


def commands(workload: str, config_path: Path) -> list:
    return [[str(config_path) if a == "{config}" else a for a in cmd]
            for cmd in WORKLOADS[workload]]
