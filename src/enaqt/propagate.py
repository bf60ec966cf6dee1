"""Evolution engines: unitary, and the master equation with trapping.

All engines are pure functions of (Hamiltonian, initial state, z grid) and
return fresh :class:`EvolutionTrace` objects, so callers may evaluate many
of them concurrently.  The trapped fraction has one home: the
master-equation engine ``_lindblad_runs`` integrates it as a component of
its state, and ``evolve_trapped`` (no dephasing) and ``evolve_lindblad``
are its one-run cases.  Initial states are plain arrays (``site_state``
builds the launch state), checked in one place each: ``_initial_amplitudes``
and ``_initial_density``.  Propagation distance z plays the role of time;
all rates are in cm^-1 and distances in cm.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .lattice import HamiltonianMatrix, NetworkSpec, build_hamiltonian, hamiltonian_parts

# Chebyshev series of exp(-iHz): terms whose Bessel weight |J_k(a z)| is below
# this at every wavelength of a batch are left out
SERIES_TOL = 1e-16
# past this a z (~a z terms), one eigendecomposition per wavelength is cheaper
SERIES_MAX_ARGUMENT = 1000.0
# runs of a stacked propagation step together in chunks holding at most this
# many step matrices, which bounds the memory a call needs beyond its output
STEP_STACK = 64
# an _expm call takes at most this many step matrices: its Pade temporaries
# (~0.5 MiB for the real 17 x 17 generators of 4 guides) then stay within one
# core's L2 cache, and the memory a call needs stays small
EXPM_STACK = 16
# the bounds past which _check_density_stack calls a density stack unphysical
MAX_TRACE_INCREASE = 1e-9
MIN_EIGENVALUE = -1e-9
# trapping is the only loss, so tr rho + eta = 1 along every run
MAX_BALANCE_ERROR = 1e-9


class NumericalError(RuntimeError):
    """Raised when a decomposition fails or an engine's output is not physical."""


@dataclass(eq=False)
class EvolutionTrace:
    """Populations along a propagation run.

    ``populations`` covers the system sites only (shape nz x n_system);
    ``sink_population`` is everything the system has lost at each z: the
    summed sink-guide population of ``evolve_unitary``, and the trapped
    fraction eta that ``evolve_trapped`` and ``evolve_lindblad`` integrate
    beside the density.  ``densities`` is filled by those two only.
    """

    z_grid: np.ndarray
    populations: np.ndarray
    sink_population: np.ndarray
    densities: Optional[np.ndarray] = None


def _require_finite(values: np.ndarray, name: str) -> None:
    """A NaN passes every norm and trace bound, so states are refused here."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def _as_zgrid(z_grid) -> np.ndarray:
    zs = np.atleast_1d(np.asarray(z_grid, dtype=float))
    if zs.ndim != 1 or zs.size == 0:
        raise ValueError("z grid must be a non-empty 1-d array")
    if not (zs.min() >= 0 and zs.max() < math.inf):  # a NaN fails both
        raise ValueError("z must be finite and non-negative")
    if np.any(np.diff(zs) < 0):
        raise ValueError("z grid must be non-decreasing")
    return zs


def site_state(dim: int, site: int) -> np.ndarray:
    """The complex unit amplitude vector of ``dim`` guides with all the light
    in guide ``site``: the launch state of every experiment."""
    if not 0 <= site < dim:
        raise ValueError(f"site {site} out of range for {dim} guides")
    amps = np.zeros(dim, dtype=complex)
    amps[site] = 1.0
    return amps


def _initial_amplitudes(psi0, dim: int) -> np.ndarray:
    """``psi0`` as a complex vector; it must be finite and normalized."""
    amps = np.asarray(psi0, dtype=complex)
    if amps.shape != (dim,):
        raise ValueError(f"state shape {amps.shape} != ({dim},) of the Hamiltonian")
    _require_finite(amps, "initial state")
    n2 = float(np.vdot(amps, amps).real)
    if abs(n2 - 1.0) > 1e-9:
        raise ValueError(f"initial state must be normalized, squared norm is {n2}")
    return amps


def _initial_density(rho0, dim: int) -> np.ndarray:
    """``rho0`` as a complex density matrix, a vector promoted to its pure
    density; it must be finite, of unit trace, Hermitian and positive."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    if rho.shape != (dim, dim):
        raise ValueError(f"density shape {rho.shape} != Hamiltonian dimension {dim}")
    _require_finite(rho, "initial state")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"initial state must have unit trace, trace is {tr}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("initial density matrix is not Hermitian")
    least = float(np.linalg.eigvalsh(rho).min())
    if least < -1e-9:
        raise ValueError(f"initial density matrix has eigenvalue {least:.3e}")
    return rho


def evolve_unitary(h: HamiltonianMatrix, psi0, z_grid) -> EvolutionTrace:
    """Closed evolution psi(z) = exp(-iHz) psi0 via eigendecomposition.

    Exact to rounding for real-symmetric H; norm is conserved, so for a
    network with an explicit sink the reported sink population is exactly
    the light accumulated in the sink guides.
    """
    zs = _as_zgrid(z_grid)
    amps = _initial_amplitudes(psi0, h.dimension)
    pops = np.abs(_unitary_amplitudes(h, amps, zs, slice(h.n_system))) ** 2
    return EvolutionTrace(zs, pops, 1.0 - pops.sum(axis=1))


def _eigensolve(solver, matrix: np.ndarray):
    """``solver(matrix)`` for an np.linalg eigensolver (``eigh`` of a
    real-symmetric matrix, ``eigvals`` of another); a failure is a
    NumericalError."""
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _unitary_amplitudes(h: HamiltonianMatrix, amps: np.ndarray, zs: np.ndarray,
                        guides) -> np.ndarray:
    """Rows psi(z) = exp(-iHz) amps for each z, from one eigendecomposition
    of the real-symmetric H: the propagator of one Hamiltonian over a z grid.
    Only the entries of the guides that the index ``guides`` selects are
    formed and returned."""
    energies, modes = _eigensolve(np.linalg.eigh, h.entries)
    coeffs = modes.conj().T @ amps
    phases = np.exp(-1j * np.outer(zs, energies))
    return (modes[guides] @ (phases * coeffs).T).T


def _bessel_j(x: np.ndarray) -> np.ndarray:
    """Rows J_k(x), k = 0, 1, ..., for each x >= 0, by Miller's backward
    recurrence J_(k-1) = (2k/x) J_k - J_(k+1), started for each x alone at
    an order far enough above x that J_k is below ``SERIES_TOL`` long
    before, rescaled on the way down and normalised by J_0 + 2 sum J_2k = 1.
    Values below ``SERIES_TOL`` are set to 0, so a column does not depend on
    the other x of the call.  An x below ``SERIES_TOL`` gives J_0 = 1 alone.

    A column is rescaled by 1e-150 once it passes 1e150.  Rows are scanned
    for that only while a bound on them could pass it: B_k >= max |J_k| over
    the columns, with B_(k-1) = (2k/x_min) B_k + B_(k+1) (slightly inflated
    to cover rounding), at least 1 from each seed, and reset to the true row
    maxima after a scan.  So the rescales, and every bit of the table, are
    those of a scan at every order."""
    zero = x < SERIES_TOL
    starts = np.where(zero, 0, (x + 15.0 * np.cbrt(x)).astype(int) + 30)
    top = int(starts.max())
    table = np.zeros((top + 2, x.size))
    # factors[k] = 2k/x, each row as k * (2/x)
    factors = np.outer(np.arange(top + 1), 2.0 / np.where(zero, 1.0, x))
    seeds = {int(k): starts == k for k in np.unique(starts) if k > 0}
    x_min = float(x[~zero].min()) if top else 1.0
    bound, bound_above = 0.0, 0.0  # B_k and B_(k+1)
    for k in range(top, 0, -1):
        if k in seeds:
            table[k, seeds[k]] = 1.0
            bound = max(bound, 1.0)
        row = table[k - 1]
        np.multiply(factors[k], table[k], out=row)
        np.subtract(row, table[k + 1], out=row)
        # the 1e-12 covers the few roundings of each order, row and bound alike
        bound, bound_above = (2.0 * k / x_min * bound + bound_above) * (1.0 + 1e-12), bound
        if bound > 1e150:
            if np.abs(row).max() > 1e150:
                big = np.abs(row) > 1e150
                table[k - 1:, big] *= 1e-150
            bound = float(np.abs(row).max())
            bound_above = float(np.abs(table[k]).max())
    table[0, zero] = 1.0
    # the even orders are summed one after another, as numpy sums the rows of
    # a batch; a lone column would be summed pairwise, in other bits
    evens = np.add.accumulate(table[2::2], axis=0)[-1] if top else 0.0
    table /= table[0] + 2.0 * evens
    table[np.abs(table) < SERIES_TOL] = 0.0
    return table


def _series_weights(x: np.ndarray) -> np.ndarray:
    """Rows w_k, one column per x = a z, with
    exp(-i x t) = sum_even-k w_k T_k(t) - i sum_odd-k w_k T_k(t) on [-1, 1]:
    w_k = (2 - delta_k0) (-1)^(k // 2) J_k(x), up to the last nonzero row."""
    bessel = _bessel_j(x)
    n_terms = int(np.nonzero(bessel.any(axis=1))[0][-1]) + 1
    weights = bessel[:n_terms] * np.where(np.arange(n_terms) % 4 < 2, 2.0, -2.0)[:, None]
    weights[0] *= 0.5
    return weights


def _light_cone(couplings: np.ndarray, amps: np.ndarray, n_terms: int,
                rows: int) -> np.ndarray:
    """Row counts m_k, one per order k of an ``n_terms`` Chebyshev series
    from ``amps``: order k runs on guides [0, m_k) and skips nothing that
    is nonzero and reaches one of the first ``rows`` guides.

    reach[m] is 1 + the largest index coupled to, or equal to, a guide
    below m, so one product with H maps rows [0, m) into [0, reach[m]).
    T_k is zero past the forward prefix f_k: f_0 = 1 + the last nonzero
    index of ``amps`` and f_k = reach[f_(k-1)].  The order j before the
    last is needed only on the backward prefix b_j: b_0 = ``rows`` and
    b_j = reach[b_(j-1)].  So m_k = min(f_k, b_(n_terms-1-k)).  On a
    network whose ordering does not suit this (a ring coupling), the
    prefixes reach every guide after a few orders.
    """
    index = np.arange(couplings.shape[0])
    # the largest guide each guide is coupled to, or the guide itself
    last = np.where(couplings != 0.0, index, index[:, None]).max(axis=1)
    reach = np.concatenate(([0], 1 + np.maximum.accumulate(last)))
    forward = np.empty(n_terms, dtype=int)
    backward = np.empty(n_terms, dtype=int)
    forward[0] = np.flatnonzero(amps)[-1] + 1
    backward[0] = rows
    for k in range(1, n_terms):
        forward[k] = reach[forward[k - 1]]
        backward[k] = reach[backward[k - 1]]
    return np.minimum(forward, backward[::-1])


def _wavelength_amplitudes(net: NetworkSpec, lams, amps: np.ndarray,
                           z: float, rows: Optional[int] = None) -> np.ndarray:
    """Rows psi(lambda) = exp(-iH(lambda)z) amps for each wavelength of
    ``lams`` at one z, from the real launch vector ``amps`` (a nonzero
    imaginary part raises ValueError; ``ensemble_average`` runs a complex
    state as two real launches): the propagator of wavelength sweeps and
    ensembles.  Only the first ``rows`` guides of each psi are returned, all
    of them by default.

    Every H(lambda) is d(lambda) diag(D) + c(lambda) A
    (``hamiltonian_parts``).  With each wavelength's spectrum inside
    [e - a, e + a] (Gershgorin discs), exp(-iHz) is expanded as
    exp(-iez) sum_k (2 - delta_k0) (-i)^k J_k(az) T_k((H - e)/a)
    (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 1984), up to the last order
    whose Bessel weight reaches ``SERIES_TOL`` at some wavelength.  The
    three-term recurrence of T_k runs on one real block holding every
    wavelength's column, so each term is one matrix product with A shared
    by all wavelengths.  Order k runs only on the guides of its
    ``_light_cone``: those that can be nonzero by then and can still reach
    a returned guide.  Every skipped entry is an exact zero or never
    reaches a returned row.  The term count grows with a z, so a wavelength
    with a z above ``SERIES_MAX_ARGUMENT`` goes through
    ``_unitary_amplitudes`` instead.  A non-finite result raises
    NumericalError.  No wavelengths give no rows.
    """
    lams = np.asarray(lams, dtype=float)
    if not 0 <= z < math.inf:
        raise ValueError(f"z must be finite and non-negative, got {z}")
    if np.iscomplexobj(amps) and amps.imag.any():
        raise ValueError("the launch vector must be real")
    amps = np.real(amps)
    keep = amps.size if rows is None else rows
    if lams.size == 0:
        return np.empty((0, keep), dtype=complex)
    disp = net.dispersion
    detunings, couplings = hamiltonian_parts(net)
    cscale = np.array([disp.coupling_scale(lam) for lam in lams])
    # diagonal of H(lambda), one column per wavelength, and its Gershgorin discs
    diagonal = np.outer(detunings, [disp.detuning_scale(lam) for lam in lams])
    radius = np.abs(couplings).sum(axis=1)
    lo = (diagonal - np.outer(radius, cscale)).min(axis=0)
    hi = (diagonal + np.outer(radius, cscale)).max(axis=0)
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    long = half * z > SERIES_MAX_ARGUMENT
    if long.any():
        out = np.empty((lams.size, keep), dtype=complex)
        out[long] = [_unitary_amplitudes(build_hamiltonian(net, lam), amps, [z],
                                         slice(keep))[0] for lam in lams[long]]
        if not long.all():
            out[~long] = _wavelength_amplitudes(net, lams[~long], amps, z, rows)
        return out

    # 2 (H - e)/a v = shift * v + scale * (A v), a column per wavelength
    a = np.where(half > 0, half, 1.0)
    shift = (diagonal - center) * (2.0 / a)
    scale = 2.0 * cscale / a
    weights = _series_weights(half * z)
    cone = _light_cone(couplings, amps, weights.shape[0], keep)
    cur = np.repeat(amps[:, None], lams.size, axis=1)

    # the diagonal term acts only on the rows [lo, hi) where shift is nonzero
    on = np.flatnonzero(shift.any(axis=1))
    lo, hi = (on[0], on[-1] + 1) if on.size else (0, 0)

    # every order writes only inside the forward cone, so each buffer stays
    # zero past it and a row the cone has just reached reads as T_k = 0.
    # Only the returned rows are summed into the series.
    even, odd = weights[0] * cur[:keep], np.zeros_like(cur[:keep])
    prev, nxt, tmp = np.zeros_like(cur), np.zeros_like(cur), np.empty_like(cur)
    for k in range(1, weights.shape[0]):
        m = cone[k]
        np.matmul(couplings[:m, :cone[k - 1]], cur[:cone[k - 1]], out=nxt[:m])
        nxt[:m] *= scale
        d = slice(lo, min(hi, m))
        np.multiply(shift[d], cur[d], out=tmp[d])
        nxt[d] += tmp[d]
        if k == 1:
            nxt[:m] *= 0.5
        else:
            nxt[:m] -= prev[:m]
        r = min(m, keep)
        np.multiply(weights[k], nxt[:r], out=tmp[:r])
        total = odd if k % 2 else even
        total[:r] += tmp[:r]
        prev, cur, nxt = cur, nxt, prev

    # psi = exp(-iez) (even - i odd)
    psi = even.astype(complex)
    np.negative(odd, out=psi.imag)
    psi *= np.exp(-1j * center * z)
    if not np.all(np.isfinite(psi)):
        raise NumericalError("Chebyshev series of exp(-iHz) is not finite")
    return psi.T


def _grid_steps(zs: np.ndarray) -> np.ndarray:
    """The step to each z of the grid from the one before it, the first from
    z = 0.  A grid that is exactly zs[0] + h * arange(n) in floating point,
    h = (zs[-1] - zs[0]) / (n - 1), steps by h after its first z, though its
    rounded differences spread over several values."""
    steps = np.diff(zs, prepend=0.0)
    if zs.size > 2:
        h = (zs[-1] - zs[0]) / (zs.size - 1)
        if np.array_equal(zs, zs[0] + h * np.arange(zs.size)):
            steps[1:] = h
    return steps


def _propagate(gens: np.ndarray, v: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Rows exp(gen z) v for each z of a non-decreasing grid from z >= 0 and
    each run's generator of the stack ``gens`` (runs, n, n), with ``v`` one
    start vector per run or one shared by all: shape (runs, nz, n).  Each
    run steps with exp(gen dz), one exponential per distinct nonzero step
    dz of ``_grid_steps``: two at most on a uniform grid (its first z and
    h).  Each z is one stacked product over a chunk of runs that holds at
    most ``STEP_STACK`` step matrices.  Each run's scaling exponent is set
    by the largest 1-norm of its own steps, before any step is taken (a NaN
    or inf entry raises NumericalError there), and a chunk's runs of equal
    exponent are exponentiated together, at most ``EXPM_STACK`` step
    matrices to an ``_expm`` call.  Every matrix of a call is scaled by the
    2^-s it would get alone, and the stacked products treat each matrix
    apart, so every bit of a run's result is what that run alone would
    give.  A zero step is the identity and is not exponentiated.
    """
    dzs, step_of = np.unique(_grid_steps(zs), return_inverse=True)
    moving = dzs != 0.0
    dz = dzs[moving, None, None]
    n_moving = dz.shape[0]
    step_index = np.cumsum(moving) - 1
    exponents = np.array([])
    if n_moving:
        # each run's largest 1-norm over its steps, all runs in one pass.  A
        # stack with a NaN or inf entry is normed unscaled, so its bad run
        # raises before g * dz, where inf * 0 would make numpy warn first
        scaled = gens[:, None] * dz if np.isfinite(gens).all() else gens
        norms = np.abs(scaled).sum(axis=-2).reshape(gens.shape[0], -1).max(axis=1)
        exponents = np.array([_scaling_exponent(norm) for norm in norms.tolist()])
    dtype = np.result_type(gens, v)
    starts = np.broadcast_to(v, gens.shape[:2])
    out = np.empty((gens.shape[0], zs.size, gens.shape[1]), dtype=dtype)
    per_chunk = max(1, STEP_STACK // max(1, n_moving))
    for lo in range(0, gens.shape[0], per_chunk):
        chunk = slice(lo, lo + per_chunk)
        steps = np.empty((n_moving,) + gens[chunk].shape, dtype=dtype)
        for s in np.unique(exponents[chunk]):
            # the (run, step) pairs of this exponent, run by run
            same = np.flatnonzero(exponents[chunk] == s)
            runs, step = np.repeat(same, n_moving), np.tile(np.arange(n_moving), same.size)
            for i in range(0, runs.size, EXPM_STACK):
                r, k = runs[i:i + EXPM_STACK], step[i:i + EXPM_STACK]
                steps[k, r] = _expm(gens[lo + r] * dz[k], int(s))
        v = starts[chunk].astype(dtype)
        for k, j in enumerate(step_of):
            if moving[j]:
                v = np.matmul(steps[step_index[j]], v[..., None])[..., 0]
            out[chunk, k] = v
    return out


# Pade-13 coefficients b_0..b_13 and its 1-norm bound theta_13 (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _scaling_exponent(norm: float) -> int:
    """The s of the scaling 2^-s that brings a 1-norm within theta_13: the
    least s >= 0, 0 for a norm already within it (a subnormal norm included,
    whose ratio to theta_13 underflows to 0).  A NaN or inf norm raises
    NumericalError."""
    if not math.isfinite(norm):
        raise NumericalError(f"cannot exponentiate a generator of 1-norm {norm}")
    return math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0


def _expm(stack: np.ndarray, s: int) -> np.ndarray:
    """exp(A) for each A of a stack: Pade-13 scaling and squaring (Higham's
    Algorithm 2.3) with the one scaling 2^-s that the caller gives, as
    ``_propagate`` takes each run's from ``_scaling_exponent``."""
    a = stack / 2.0 ** s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b, eye = _PADE13, np.eye(a.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Pade denominator is singular: {exc}") from exc
    for _ in range(s):
        r = r @ r
    return r


def evolve_trapped(h: HamiltonianMatrix, kappa: float, target: int,
                   psi0, z_grid) -> EvolutionTrace:
    """Irreversible trapping at rate kappa on the target site: evolution
    under H - i(kappa/2)|t><t| from the unit amplitude vector ``psi0``.

    This is ``evolve_lindblad`` at gamma = 0 on the pure density of
    ``psi0``, so its ``sink_population`` is the trapped fraction eta that
    the master-equation engine integrates.  Pass the system block alone:
    the engine's generators are (d^2 + 1) x (d^2 + 1) for d guides.  The
    population decay rate of an isolated trapped site is exactly kappa.
    """
    amps = _initial_amplitudes(psi0, h.dimension)
    # at gamma = 0 the dephasing site (here 0) changes no bit
    return evolve_lindblad(h, kappa, target, 0.0, 0, amps, z_grid)


def _trapped_hamiltonian(h: HamiltonianMatrix, kappa: float, target: int) -> np.ndarray:
    """H - i(kappa/2)|t><t|: the generator of irreversible trapping on t."""
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")
    if not 0 <= target < h.dimension:
        raise ValueError(f"target {target} out of range")
    h_eff = h.entries.astype(complex)
    h_eff[target, target] -= 0.5j * kappa
    return h_eff


def _density_margins(rhos: np.ndarray) -> Dict[str, float]:
    """How physical a stack of density runs is, shape (runs, nz, d, d) or
    one run (nz, d, d): the largest trace increase within a run (step to
    step along z, or above 1) and the smallest eigenvalue.

    One pass over the stack in chunks of whole runs, each of at most
    ``STEP_STACK`` d^2 matrices (the size of one step chunk of
    ``_propagate``), so the scratch memory is a few such chunks and no
    run's trace is compared with another's.  Each chunk is also screened
    by ``_certified_positive``.  A matrix it certifies has a smallest
    ``eigvalsh`` eigenvalue above 0, so only the others can hold a minimum
    below 0: ``eigvalsh`` runs on them, and if their minimum is negative it
    is the stack's.  Otherwise the whole stack goes through ``eigvalsh``.
    Either way the minimum is LAPACK's, bit for bit.
    """
    runs = rhos.reshape((-1,) + rhos.shape[-3:])
    nz, d = runs.shape[1], runs.shape[-1]
    per_chunk = max(1, STEP_STACK * d * d // nz)
    growth = 0.0
    certified = np.empty(runs.shape[:2], dtype=bool)
    for lo in range(0, runs.shape[0], per_chunk):
        chunk = runs[lo:lo + per_chunk]
        traces = np.real(np.einsum("rzii->rz", chunk))
        growth = max(growth, float(np.max(np.diff(traces), initial=0.0)),
                     float(traces.max()) - 1.0)
        certified[lo:lo + per_chunk] = _certified_positive(
            chunk.reshape(-1, d, d)).reshape(chunk.shape[:2])
    suspects = runs[~certified]
    least = float(np.linalg.eigvalsh(suspects).min()) if suspects.size else 0.0
    if not least < 0.0:  # the minimum may be in a certified matrix
        least = float(np.linalg.eigvalsh(rhos).min())
    return {"max_trace_increase": growth, "min_eigenvalue": least}


def _certified_positive(stack: np.ndarray) -> np.ndarray:
    """For each matrix of a stack (m, d, d), whether the Cholesky
    factorization of its lower triangle minus tau I finds every pivot
    positive, with the matrix's own shift tau = 64 d^2 eps max|H_ii|: one
    vectorized factorization, the stack axis last, and no LAPACK call.

    The lower triangle is the Hermitian matrix H that ``eigvalsh`` reads.
    A computed factor with positive pivots is exact for H - tau I + E,
    with |E| <= gamma_(d+1) |L||L^H| (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3), so ||E|| <= d gamma_(d+1) max H_ii,
    a few d^2 eps max H_ii at most, and the least eigenvalue of H is at
    least tau - ||E||, some 60 d^2 eps max H_ii.  That is far above
    ``zheevd``'s eigenvalue error, a small multiple of
    eps ||H|| <= eps tr H <= d eps max H_ii, so the computed least
    eigenvalue of a certified matrix is above 0.  The bound holds matrix
    by matrix, so each matrix takes the shift of its own diagonal.
    Below the normal range each operation may also add an absolute error
    of up to the least subnormal, which that bound does not cover; a shift
    of at least tiny/eps (about 1e-292) dwarfs it, and a matrix whose
    shift is below that is not certified."""
    d = stack.shape[-1]
    shift = 64 * d * d * np.finfo(float).eps * np.abs(
        np.diagonal(stack, axis1=-2, axis2=-1)).max(axis=-1)
    a = np.moveaxis(stack, 0, -1).copy()
    ok = shift >= np.finfo(float).tiny / np.finfo(float).eps
    for k in range(a.shape[0]):
        pivot = a[k, k].real - shift
        ok &= pivot > 0.0
        column = a[k + 1:, k] / np.sqrt(np.where(ok, pivot, 1.0))
        conj = column.conj()
        # update the lower triangle only, a row at a time: small temporaries
        for i, entry in enumerate(column, start=k + 1):
            a[i, k + 1:i + 1] -= entry * conj[:i - k]
    return ok


def _check_density_stack(rhos: np.ndarray, etas: Optional[np.ndarray] = None
                         ) -> Dict[str, float]:
    """The ``_density_margins`` of a stack of runs and, given their trapped
    fractions ``etas``, ``max_balance_error`` = max |tr rho + eta - 1|.
    Raise NumericalError on a NaN or infinite density entry, or on a margin
    past its bound: ``MAX_TRACE_INCREASE``, ``MIN_EIGENVALUE`` or
    ``MAX_BALANCE_ERROR`` (which a NaN fails)."""
    if not np.all(np.isfinite(rhos)):
        raise NumericalError("density stack is not finite")
    margins = _density_margins(rhos)
    if etas is not None:
        traces = np.real(np.einsum("...ii->...", rhos))
        margins["max_balance_error"] = float(np.abs(traces + etas - 1.0).max())
    if margins["max_trace_increase"] > MAX_TRACE_INCREASE:
        raise NumericalError(f"density trace grows by {margins['max_trace_increase']:.3e}")
    if margins["min_eigenvalue"] < MIN_EIGENVALUE:
        raise NumericalError(f"density matrix has eigenvalue {margins['min_eigenvalue']:.3e}")
    if not margins.get("max_balance_error", 0.0) <= MAX_BALANCE_ERROR:
        raise NumericalError("trace and trapped fraction do not sum to 1 "
                             f"(error {margins['max_balance_error']:.3e})")
    return margins


@functools.cache
def _hermitian_coordinates(dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dim^2 real coordinates of a Hermitian dim x dim matrix rho:
    Re rho_ij for i <= j, then Im rho_ij for i < j, each set row by row, so
    the dim (dim + 1) / 2 real parts come first.  For each coordinate: the
    row-major index of rho_ij, that of its mirror rho_ji, and the sign the
    coordinate has in the mirror, +1 for a real part and -1 for an
    imaginary part off the diagonal, 0 on it, where the mirror is rho_ii
    itself.  Computed once per dim and read-only, so no caller can change
    a later call's."""
    upper, strict = np.triu_indices(dim), np.triu_indices(dim, 1)
    rows = np.concatenate([upper[0], strict[0]])
    cols = np.concatenate([upper[1], strict[1]])
    sign = np.where(rows == cols, 0.0, 1.0)
    sign[upper[0].size:] = -1.0
    maps = (rows * dim + cols, cols * dim + rows, sign)
    for m in maps:
        m.flags.writeable = False
    return maps


def _lindblad_runs(hams: Sequence[HamiltonianMatrix], rates, kappa: float, target: int,
                   dephasing_site: int, rho0, z_grid
                   ) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """The master-equation engine: densities of a stack of runs, shape
    (runs, nz, d, d), their trapped fractions eta, shape (runs, nz), and
    their ``_check_density_stack`` margins.

    Row i of the 2-d ``rates`` holds the dephasing rates run under
    ``hams[i]``; runs are taken row by row.  A Lindblad generator maps
    Hermitian matrices to Hermitian matrices, so every run evolves the
    d^2 real coordinates of its density (``_hermitian_coordinates``: the
    real parts Re rho_ij, i <= j, then the imaginary parts Im rho_ij,
    i < j) plus eta, under a real (d^2 + 1) x (d^2 + 1) generator: the
    coherence-vector form (Alicki and Lendi, Quantum Dynamical Semigroups
    and Applications, LNP 286, 1987).  Its coordinate block is the real
    part of P L0 Q, with L0 = -i(H_eff x I - I x conj(H_eff)) the row-major
    Liouvillian of the trapping generator H_eff (``_trapped_hamiltonian``),
    Q the map from coordinates to a Hermitian matrix and P its inverse.  It
    is built once per Hamiltonian in real arithmetic: the commutator with
    Re H_eff = H couples each real part to the imaginary parts and back,
    and the loss Im H_eff,ii + Im H_eff,jj of rho_ij, less gamma on both
    coordinates of each damped coherence, is its diagonal.  The last row is
    deta/dz = kappa rho_tt, kappa in the column of the coordinate
    Re rho_tt, so eta is integrated, never taken as 1 - tr rho, which loses
    its digits while little is trapped.  All runs step together through
    one real ``_propagate`` call.  The densities are scattered back from
    the coordinates, rho_ji = conj(rho_ij) exactly, so they are Hermitian
    by construction.  See ``evolve_lindblad``, the one-run case, for the
    model.
    """
    rates = np.asarray(rates, dtype=float)
    ok = np.isfinite(rates) & (rates >= 0)
    if not ok.all():
        raise ValueError("dephasing rate must be finite and non-negative, "
                         f"got {rates[~ok][0]}")
    if rates.ndim != 2 or rates.shape[0] != len(hams):
        raise ValueError("need one row of dephasing rates per Hamiltonian")
    zs = _as_zgrid(z_grid)
    dim = hams[0].dimension
    rho = _initial_density(rho0, dim)
    if not 0 <= dephasing_site < dim:
        raise ValueError(f"dephasing site {dephasing_site} out of range")

    at, mirror, sign = _hermitian_coordinates(dim)
    n_re = dim * (dim + 1) // 2
    rows, cols = np.divmod(at, dim)
    eye = np.eye(dim)
    # the coherences between the dephasing site and every other site, both
    # coordinates of each
    damped = ((rows == dephasing_site) != (cols == dephasing_site)).astype(float)
    coords = np.arange(dim * dim)
    gens = np.zeros((rates.size, dim * dim + 1, dim * dim + 1))
    for i, h in enumerate(hams):
        h_eff = _trapped_hamiltonian(h, kappa, target)
        # -i[H, rho] on the row-major density is -i (H x I - I x H) vec rho:
        # it maps the real parts to the imaginary parts and back.  Entry
        # (ij, kl) of H x I - I x H is H_ik d_jl - d_ik H_jl (H symmetric)
        h_sym = h_eff.real
        comm = (h_sym[:, None, :, None] * eye[None, :, None, :]
                - eye[:, None, :, None] * h_sym[None, :, None, :]).reshape(dim * dim, -1)
        # column c: comm applied to the matrix of coordinate c alone
        cq = comm[:, at] + comm[:, mirror] * sign
        row = slice(i * rates.shape[1], (i + 1) * rates.shape[1])
        gens[row, :n_re, n_re:-1] = cq[at[:n_re], n_re:]
        gens[row, n_re:-1, :n_re] = -cq[at[n_re:], :n_re]
        # the trapping loss of rho_ij is Im H_eff,ii + Im H_eff,jj
        loss = h_eff.diagonal().imag
        gens[row, coords, coords] = loss[rows] + loss[cols] - rates[i, :, None] * damped
    gens[:, -1, np.flatnonzero(at == target * (dim + 1))[0]] = kappa

    # the coordinates of rho0's Hermitian part
    half = 0.5 * (rho.ravel()[at] + rho.ravel()[mirror].conj())
    out = _propagate(gens, np.concatenate([half.real[:n_re], half.imag[n_re:], [0.0]]), zs)
    flat = np.zeros(out.shape[:2] + (dim * dim,), dtype=complex)
    flat.real[..., at[:n_re]] = flat.real[..., mirror[:n_re]] = out[..., :n_re]
    flat.imag[..., at[n_re:]] = out[..., n_re:-1]
    flat.imag[..., mirror[n_re:]] = -out[..., n_re:-1]
    rhos, etas = flat.reshape(rates.size, zs.size, dim, dim), out[..., -1]
    return rhos, etas, _check_density_stack(rhos, etas)


def evolve_lindblad(h: HamiltonianMatrix, kappa: float, target: int,
                    dephasing_rate: float, dephasing_site: int,
                    rho0, z_grid) -> EvolutionTrace:
    """Master equation with trapping and pure dephasing.

    Solves drho/dz = -i[H, rho] - (kappa/2){|t><t|, rho} + gamma D(rho)
    where D damps exactly the coherences between ``dephasing_site`` and
    every other site at rate gamma (coherence decay rate gamma, not
    gamma/2; this matches quantifying decoherence through the decay of the
    interference envelope).

    Exact for this z-independent generator: the Liouvillian
    -i(H x I - I x H^T) - (kappa/2)(P x I + I x P) - gamma diag(mask),
    taken on the d^2 real coordinates of the Hermitian density (Re rho_ij,
    i <= j, then Im rho_ij, i < j), with the trapped fraction
    deta/dz = kappa rho_tt as one more coordinate (its row reads
    Re rho_tt), is a real matrix.  It is exponentiated once per distinct
    nonzero grid step, and a uniform grid steps by one h after its first z
    (``_grid_steps``).  The run starts from the Hermitian part of rho0, and
    its densities are Hermitian by construction.  ``sink_population`` is
    that eta.  Unphysical output (trace growth, a negative eigenvalue,
    tr rho + eta off 1) raises NumericalError.  This is the one-run case of
    ``_lindblad_runs``, which sweeps run as one stack.

    Parameters
    ----------
    h : HamiltonianMatrix
        System-block Hamiltonian (use an effective kappa, not an explicit
        sink chain, with this engine).
    kappa, dephasing_rate : float
        Trapping and dephasing rates in cm^-1, both >= 0.
    rho0 : array
        Initial (d, d) density matrix, or an amplitude vector promoted to its
        pure density; it must have unit trace and be Hermitian and positive.
    z_grid : array
        Output grid, non-decreasing from z >= 0.
    """
    zs = _as_zgrid(z_grid)
    rhos, etas, _ = _lindblad_runs([h], [[dephasing_rate]], kappa, target, dephasing_site,
                                   rho0, zs)
    pops = np.real(np.einsum("zii->zi", rhos[0]))[:, : h.n_system]
    return EvolutionTrace(zs, pops, etas[0], rhos[0])


@dataclass(frozen=True)
class NoReturnReport:
    """Whether an explicit sink chain is long enough for a given run."""

    max_end_population: float
    max_system_shift: float
    threshold: float

    @property
    def passed(self) -> bool:
        return (self.max_end_population <= self.threshold
                and self.max_system_shift <= self.threshold)


def sink_no_return_check(net: NetworkSpec, z_grid, threshold: float) -> NoReturnReport:
    """Check that light entering the sink never makes it back.

    Two observables at each z of ``z_grid`` (non-decreasing from z >= 0;
    `check` passes the z its runs write), at the center wavelength: the
    population reaching the last sink guide (the wavefront must die out
    before the boundary) and the change in system-site populations when
    the chain is extended by five guides (a direct measure of boundary
    influence).  Either exceeding ``threshold``
    (``numerics.no_return_threshold``) flags the chain as too short.
    """
    if net.sink is None:
        raise ValueError("network has no explicit sink to check")
    zs = _as_zgrid(z_grid)

    def run(spec: NetworkSpec):
        # the system guides, then the last sink guide
        h = build_hamiltonian(spec, net.dispersion.lambda0_nm)
        psi0 = site_state(h.dimension, spec.input_site)
        guides = np.append(np.arange(spec.n_sites), h.dimension - 1)
        return np.abs(_unitary_amplitudes(h, psi0, zs, guides)) ** 2

    pops = run(net)
    longer = dataclasses.replace(
        net, sink=dataclasses.replace(net.sink, n_sink=net.sink.n_sink + 5))
    pops_longer = run(longer)

    return NoReturnReport(
        max_end_population=float(pops[:, -1].max()),
        max_system_shift=float(
            np.abs(pops[:, : net.n_sites] - pops_longer[:, : net.n_sites]).max()
        ),
        threshold=threshold,
    )
