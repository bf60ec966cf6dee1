"""Independent output oracle for the benchmark.

Rebuilds every number the CLI writes from the raw JSON config with dense
``scipy.linalg.expm`` and never imports ``enaqt``:

- coherent columns (``simulate``, ``sweep-wavelength``, the spectral
  ensemble) from exp(-i H(lambda) z) on the full explicit-sink network;
- the effective-rate column from an eigendecomposition of the 4x4
  non-Hermitian H - i(kappa/2)|t><t|;
- Lindblad and map columns from the exponential of the 16x16 Liouvillian
  (row-major vec; trapping and dephasing as in the package docs);
- ``check`` from its printed PASS lines and the dark-mode ceiling.

It also checks each manifest's hash of its CSV.  Run as a separate process
(see ``run.py``) so that its own BLAS threads never share a process with the
program being timed:

    python3 perfbench/oracle.py CONFIG OUTDIR COMMANDS_JSON

and it prints one JSON object with a verdict per command.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
from numpy.polynomial.legendre import leggauss

C_LIGHT_CM_PER_S = 2.99792458e10

# Absolute tolerances.  Exact engines (eigh, expm) agree with the dense
# reference to ~1e-13; the adaptive RK4 Lindblad engine is accurate to its
# 1e-9 step tolerance, accumulated over the run.
TOL_EXACT = 1e-9
TOL_LINDBLAD = 1e-7
# The quadrature for the decoherence strength matches the tophat closed
# form to 1e-6 relative (the program's own check uses that bound).
RTOL_GAMMA = 1e-6


def output_name(cmd: list) -> str | None:
    """CSV file a CLI command writes, or None for ``check``."""
    return {
        "simulate": "dynamics.csv",
        "sweep-wavelength": "wavelength_sweep.csv",
        "sweep-bandwidth": "bandwidth_sweep.csv",
        "map": "enaqt_map.csv",
    }.get(cmd[0])


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def _wavelength_grid(lam0: float, lo: float, hi: float, step: float) -> np.ndarray:
    k_lo = math.ceil((lo - lam0) / step - 1e-12)
    k_hi = math.floor((hi - lam0) / step + 1e-12)
    return lam0 + step * np.arange(k_lo, k_hi + 1)


class Model:
    """The network of a raw config, rebuilt from its JSON keys."""

    def __init__(self, cfg: dict):
        net = cfg["network"]
        self.cfg = cfg
        self.n = net["n_sites"]
        self.input = net["input_site"] - 1
        self.target = net["target_site"] - 1
        disp = net["dispersion"]
        self.lam0 = disp["lambda0_nm"]
        self.beta0 = disp.get("beta0_per_cm", 0.0)
        self.inverse_lambda = disp.get("detuning_law", "inverse-lambda") == "inverse-lambda"
        self.slope = disp.get("coupling_slope_per_nm", 0.01)
        self.detuning0 = disp.get("detuning0_per_cm", 1.0)
        self.detunings = [(d["site"] - 1, d["delta_beta_per_cm"])
                          for d in net.get("site_detunings", [])]
        self.couplings = [(c["site_a"] - 1, c["site_b"] - 1, c["coupling_per_cm"])
                          for c in net.get("couplings", [])]
        self.sink = net.get("sink")
        ratio = self.sink["c_trap_per_cm"] / self.sink["c_sink_per_cm"]
        self.kappa = self.sink["c_sink_per_cm"] * 2.0 * ratio ** 2 / math.sqrt(1.0 - ratio ** 2)
        self.dephasing_site = (max(self.detunings, key=lambda d: abs(d[1]))[0]
                               if self.detunings else self.n - 1)

    def hamiltonian(self, lam: float, with_sink: bool = True,
                    detuning_scale: float = 1.0) -> np.ndarray:
        dscale = (self.lam0 / lam if self.inverse_lambda else 1.0) * detuning_scale
        cscale = math.exp(self.slope * (lam - self.lam0))
        dim = self.n + (self.sink["n_sink"] if with_sink else 0)
        h = np.eye(dim) * self.beta0
        for s, d in self.detunings:
            h[s, s] += d * dscale
        for i, j, c in self.couplings:
            h[i, j] = h[j, i] = c * cscale
        if with_sink:
            h[self.target, self.n] = h[self.n, self.target] = self.sink["c_trap_per_cm"] * cscale
            for k in range(self.n, dim - 1):
                h[k, k + 1] = h[k + 1, k] = self.sink["c_sink_per_cm"] * cscale
        return h

    def coherent_efficiency(self, lam: float, z: float) -> float:
        h = self.hamiltonian(lam)
        psi = scipy.linalg.expm(-1j * h * z)[:, self.input]
        return 1.0 - float(np.sum(np.abs(psi[: self.n]) ** 2))

    def liouvillian(self, gamma: float, detuning_scale: float = 1.0) -> np.ndarray:
        h = self.hamiltonian(self.lam0, with_sink=False, detuning_scale=detuning_scale)
        n = self.n
        eye = np.eye(n)
        proj = np.zeros((n, n))
        proj[self.target, self.target] = 1.0
        mask = np.zeros((n, n))
        mask[self.dephasing_site, :] = mask[:, self.dephasing_site] = 1.0
        np.fill_diagonal(mask, 0.0)
        return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
                - 0.5 * self.kappa * (np.kron(proj, eye) + np.kron(eye, proj))
                - gamma * np.diag(mask.ravel()))

    def lindblad_efficiency(self, gamma: float, zs: np.ndarray,
                            detuning_scale: float = 1.0) -> np.ndarray:
        """Trapped fraction on a uniform z grid starting at 0."""
        gen = self.liouvillian(gamma, detuning_scale)
        rho = np.zeros(self.n * self.n, dtype=complex)
        rho[self.input * self.n + self.input] = 1.0
        step = scipy.linalg.expm(gen * (zs[1] - zs[0])) if zs.size > 1 else None
        out = np.empty(zs.size)
        for k in range(zs.size):
            if k:
                rho = step @ rho
            out[k] = 1.0 - float(np.real(np.trace(rho.reshape(self.n, self.n))))
        return out

    def gamma_tophat(self, bandwidth: float, detuning_scale: float = 1.0) -> float:
        return self.detuning0 * detuning_scale * bandwidth / (2.0 * math.pi * self.lam0)

    def ensemble_efficiency(self, bandwidth: float, z: float, nodes: int) -> float:
        if bandwidth == 0.0:
            return self.coherent_efficiency(self.lam0, z)
        lam0_cm = self.lam0 * 1e-7
        w0 = 2.0 * math.pi * C_LIGHT_CM_PER_S / lam0_cm
        dw = 2.0 * math.pi * C_LIGHT_CM_PER_S * bandwidth * 1e-7 / lam0_cm ** 2
        x, w = leggauss(nodes)
        lams = 2.0 * math.pi * C_LIGHT_CM_PER_S / (w0 + 0.5 * dw * x) * 1e7
        return float(sum(wk * self.coherent_efficiency(lam, z)
                         for wk, lam in zip(w / w.sum(), lams)))


class Verdict:
    """Failures and the largest deviation found for one command's output."""

    def __init__(self):
        self.errors: list = []
        self.max_abs_err = 0.0

    def compare(self, name: str, got, want, atol, rtol: float = 0.0):
        """Record the deviation; fail where it exceeds atol + rtol * |want|
        (atol may be an array matching ``want``)."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.errors.append(f"{name}: shape {got.shape} != {want.shape}")
            return
        dev = np.abs(got - want)
        if dev.size:
            self.max_abs_err = max(self.max_abs_err, float(dev.max()))
        excess = dev - atol - rtol * np.abs(want)
        if not np.all(np.isfinite(got)):
            self.errors.append(f"{name}: non-finite values")
        elif np.any(excess > 0):
            k = int(np.argmax(excess))
            self.errors.append(f"{name}: row {k} has {got.flat[k]!r}, "
                               f"reference {want.flat[k]!r}")

    def exact(self, name: str, got, want):
        self.compare(name, got, want, 0.0)


def read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _enhancement(eta: np.ndarray, base: np.ndarray) -> np.ndarray:
    tiny = np.abs(base) < 1e-15
    return np.where(tiny, 0.0, (eta - base) / np.where(tiny, 1.0, base))


def check_simulate(m: Model, cols: dict, v: Verdict):
    exp = m.cfg["experiment"]
    zs = _grid(0.0, exp["z_cm"], exp["z_step_cm"])
    v.exact("z_cm", cols["z_cm"], zs)
    step = scipy.linalg.expm(-1j * m.hamiltonian(m.lam0) * exp["z_step_cm"])
    psi = np.zeros(step.shape[0], dtype=complex)
    psi[m.input] = 1.0
    pops = np.empty((zs.size, m.n))
    for k in range(zs.size):
        if k:
            psi = step @ psi
        pops[k] = np.abs(psi[: m.n]) ** 2
    for site in range(m.n):
        v.compare(f"population_site_{site + 1}", cols[f"population_site_{site + 1}"],
                  pops[:, site], TOL_EXACT)
    v.compare("sink_fraction", cols["sink_fraction"], 1.0 - pops.sum(axis=1), TOL_EXACT)
    h_eff = m.hamiltonian(m.lam0, with_sink=False).astype(complex)
    h_eff[m.target, m.target] -= 0.5j * m.kappa
    vals, vecs = scipy.linalg.eig(h_eff)
    coeffs = np.linalg.solve(vecs, np.eye(m.n)[:, m.input])
    amps = (vecs @ (np.exp(-1j * np.outer(zs, vals)) * coeffs).T).T
    v.compare("sink_fraction_effective_rate", cols["sink_fraction_effective_rate"],
              1.0 - np.sum(np.abs(amps) ** 2, axis=1), TOL_EXACT)


def check_wavelength(m: Model, cols: dict, v: Verdict):
    exp = m.cfg["experiment"]
    lams = _wavelength_grid(m.lam0, exp["wavelength_min_nm"], exp["wavelength_max_nm"],
                            exp["wavelength_step_nm"])
    v.exact("wavelength_nm", cols["wavelength_nm"], lams)
    v.compare("efficiency", cols["efficiency"],
              [m.coherent_efficiency(lam, exp["z_cm"]) for lam in lams], TOL_EXACT)


def check_bandwidth(m: Model, cols: dict, v: Verdict):
    exp = m.cfg["experiment"]
    num = m.cfg.get("numerics", {})
    nodes = num.get("ensemble_nodes", 41)
    sens = num.get("sensitivity_fraction", 0.1)
    z = exp["z_cm"]
    bws = _grid(0.0, exp["bandwidth_max_nm"], exp["bandwidth_step_nm"])
    v.exact("bandwidth_nm", cols["bandwidth_nm"], bws)
    v.compare("gamma_per_cm", cols["gamma_per_cm"], [m.gamma_tophat(b) for b in bws],
              0.0, RTOL_GAMMA)
    eta_ens = np.array([m.ensemble_efficiency(b, z, nodes) for b in bws])
    zs = np.array([0.0, z])

    def lindblad(scale: float) -> np.ndarray:
        return np.array([m.lindblad_efficiency(m.gamma_tophat(b, scale), zs, scale)[-1]
                         for b in bws])

    eta_lind = lindblad(1.0)
    v.compare("efficiency_ensemble", cols["efficiency_ensemble"], eta_ens, TOL_EXACT)
    v.compare("efficiency_lindblad", cols["efficiency_lindblad"], eta_lind, TOL_LINDBLAD)
    v.compare("enaqt_ensemble", cols["enaqt_ensemble"], (eta_ens - eta_ens[0]) / eta_ens[0],
              TOL_EXACT)
    v.compare("enaqt_lindblad", cols["enaqt_lindblad"], (eta_lind - eta_lind[0]) / eta_lind[0],
              TOL_LINDBLAD)
    if sens:
        lo, hi = lindblad(1.0 - sens), lindblad(1.0 + sens)
        e_lo, e_hi = (lo - lo[0]) / lo[0], (hi - hi[0]) / hi[0]
        v.compare("enaqt_lindblad_low", cols["enaqt_lindblad_low"], np.minimum(e_lo, e_hi),
                  TOL_LINDBLAD)
        v.compare("enaqt_lindblad_high", cols["enaqt_lindblad_high"], np.maximum(e_lo, e_hi),
                  TOL_LINDBLAD)
    zero = np.nonzero(bws == 0.0)[0]
    for name in ("enaqt_ensemble", "enaqt_lindblad", "enaqt_lindblad_low",
                 "enaqt_lindblad_high"):
        if name in cols and zero.size and cols[name][zero[0]] != 0.0:
            v.errors.append(f"{name}: {cols[name][zero[0]]!r} at zero bandwidth, not 0")


def check_map(m: Model, cols: dict, v: Verdict):
    exp = m.cfg["experiment"]
    zs = _grid(0.0, exp["z_cm"], exp["z_step_cm"])
    gammas = _grid(0.0, exp["gamma_max_per_cm"], exp["gamma_step_per_cm"])
    gg, zz = np.meshgrid(gammas, zs, indexing="ij")
    v.exact("gamma_per_cm", cols["gamma_per_cm"], gg.ravel())
    v.exact("z_cm", cols["z_cm"], zz.ravel())
    etas = np.array([m.lindblad_efficiency(g, zs) for g in gammas])
    v.compare("efficiency", cols["efficiency"], etas.ravel(), TOL_LINDBLAD)
    # enhancement = (eta - base) / base, so its error scales with 1 / base
    base = np.broadcast_to(etas[0] if gammas[0] == 0.0 else m.lindblad_efficiency(0.0, zs),
                           etas.shape)
    enh = _enhancement(etas, base)
    atol = TOL_LINDBLAD * (1.0 + np.abs(enh)) / np.where(np.abs(base) < 1e-15, 1.0, np.abs(base))
    v.compare("enhancement", cols["enhancement"], enh.ravel(), atol.ravel())


EXPECTED_COLUMNS = {
    "dynamics.csv": None,  # depends on n_sites, checked in check_output
    "wavelength_sweep.csv": ["wavelength_nm", "efficiency"],
    "bandwidth_sweep.csv": ["bandwidth_nm", "gamma_per_cm", "efficiency_ensemble",
                            "efficiency_lindblad", "enaqt_ensemble", "enaqt_lindblad",
                            "enaqt_lindblad_low", "enaqt_lindblad_high"],
    "enaqt_map.csv": ["gamma_per_cm", "z_cm", "efficiency", "enhancement"],
}


def check_output(m: Model, cmd: list, outdir: Path) -> Verdict:
    v = Verdict()
    name = output_name(cmd)
    if name is None:
        check_stdout(m, (outdir / "check_stdout.txt").read_text(), v)
        return v
    path = outdir / name
    if not path.exists():
        v.errors.append(f"{name} was not written")
        return v
    cols = read_csv(path)
    expected = EXPECTED_COLUMNS[name]
    if expected is None:
        expected = (["z_cm"] + [f"population_site_{k + 1}" for k in range(m.n)]
                    + ["sink_fraction", "sink_fraction_effective_rate"])
    if list(cols) != expected:
        v.errors.append(f"{name}: columns {list(cols)}, expected {expected}")
        return v
    check_manifest(path, cmd, v)
    if cmd[0] == "simulate":
        check_simulate(m, cols, v)
    elif cmd[0] == "sweep-wavelength":
        check_wavelength(m, cols, v)
    elif cmd[0] == "sweep-bandwidth":
        check_bandwidth(m, cols, v)
    else:
        check_map(m, cols, v)
    return v


def check_manifest(csv_path: Path, cmd: list, v: Verdict):
    manifest_path = csv_path.with_name(csv_path.stem + "_manifest.json")
    if not manifest_path.exists():
        v.errors.append(f"{manifest_path.name} was not written")
        return
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    hashes = {o["path"]: o["sha256"] for o in manifest.get("outputs", [])}
    if hashes.get(csv_path.name) != digest:
        v.errors.append(f"{manifest_path.name}: sha256 of {csv_path.name} does not match")
    workers = int(cmd[cmd.index("--workers") + 1]) if "--workers" in cmd else 1
    if manifest.get("workers") != workers:
        v.errors.append(f"{manifest_path.name}: workers {manifest.get('workers')} != {workers}")


def dark_ceiling(m: Model) -> float:
    thr = m.cfg.get("numerics", {}).get("dark_overlap_threshold", 1e-12)
    _, modes = np.linalg.eigh(m.hamiltonian(m.lam0, with_sink=False))
    dark = np.abs(modes[m.target, :]) ** 2 < thr
    return 1.0 - float(np.sum(np.abs(modes[m.input, dark]) ** 2))


def check_stdout(m: Model, text: str, v: Verdict):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not any(ln.startswith("[PASS]") for ln in lines):
        v.errors.append("check printed no PASS line")
    for ln in lines:
        if not ln.startswith(("[PASS]", "[skip]")):
            v.errors.append(f"check line not PASS/skip: {ln}")
    found = re.search(r"coherent ceiling ([0-9.eE+-]+)", text)
    if found is None:
        v.errors.append("check did not print the coherent ceiling")
    else:
        # printed with six decimals, so it is kept out of max_abs_err
        got, want = float(found.group(1)), dark_ceiling(m)
        if abs(got - want) > 5e-7:
            v.errors.append(f"coherent ceiling {got!r}, reference {want!r}")


def main(argv) -> int:
    config_path, outdir, commands = argv[0], Path(argv[1]), json.loads(argv[2])
    m = Model(json.loads(Path(config_path).read_text()))
    verdicts = []
    for cmd in commands:
        v = check_output(m, cmd, outdir)
        verdicts.append({"cmd": cmd, "errors": v.errors, "max_abs_err": v.max_abs_err})
    print(json.dumps({"verdicts": verdicts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
