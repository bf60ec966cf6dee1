"""Two-waveguide analytics and the coupling calibration fit.

Everything here is closed-form coupled-mode theory for isolated pairs:
power-transfer beats, the exponential coupling-versus-separation fit, and
the effective trapping rate of a tightly coupled chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def pair_transfer(c: float, delta_beta: float, z: float) -> float:
    """Cross power P2(z) = (C^2/Omega^2) sin^2(Omega z) for a detuned pair.

    Omega = sqrt(C^2 + (delta_beta/2)^2).  Guide 1 starts fully excited;
    the return value is the guide-2 population after propagating z.
    """
    if c <= 0:
        raise ValueError(f"coupling must be positive, got {c}")
    if z < 0:
        raise ValueError(f"z must be non-negative, got {z}")
    omega = math.hypot(c, 0.5 * delta_beta)
    return (c / omega) ** 2 * math.sin(omega * z) ** 2


@dataclass(frozen=True)
class CouplingCurve:
    """Exponential fit C(s) = A exp(-s/d) to measured pair couplings."""

    amplitude_per_cm: float
    decay_length_um: float
    samples: Tuple[Tuple[float, float], ...]
    log_residuals: Tuple[float, ...]


def fit_coupling_curve(samples: Sequence[Tuple[float, float]]) -> CouplingCurve:
    """Least-squares fit of ln C against separation.

    Linear in log space, so the fit is exact for noiseless exponential
    data.  Needs at least two distinct separations, each sample positive
    and finite, and a fitted amplitude that is a finite float.
    """
    samples = tuple((float(s), float(c)) for s, c in samples)
    for s, c in samples:
        if not (0 < s < math.inf and 0 < c < math.inf):
            raise ValueError("separations and couplings must be positive and finite, "
                             f"got ({s}, {c})")
    seps = np.array([s for s, _ in samples])
    if len(set(seps.tolist())) < 2:
        raise ValueError("need samples at >= 2 distinct separations to fit")
    logc = np.log([c for _, c in samples])
    # ln C = ln A - s/d
    coeffs, residuals, *_ = np.polyfit(seps, logc, 1, full=True)
    slope, intercept = coeffs
    if slope >= 0:
        raise ValueError("fitted coupling grows with separation; data is not evanescent decay")
    with np.errstate(over="ignore"):
        amplitude = float(np.exp(intercept))
    if amplitude == math.inf:
        raise ValueError(f"fitted amplitude exp({intercept:.4g}) per cm overflows")
    fitted = intercept + slope * seps
    return CouplingCurve(
        amplitude_per_cm=amplitude,
        decay_length_um=float(-1.0 / slope),
        samples=samples,
        log_residuals=tuple(float(r) for r in (logc - fitted)),
    )


def effective_trap_rate(x, c_sink: float) -> float:
    """Constant effective transfer rate kappa = c_sink * 2 x^2 (1 - x^2)^(-1/2).

    This is the decay-pole rate of a site coupled through C_trap to a
    semi-infinite chain of hopping C_sink (x = C_trap/C_sink); it reduces
    to the golden-rule rate 2*C_trap^2/C_sink for x << 1.  The dimensionless
    expression is scaled by c_sink so the result is a population decay rate
    in cm^-1.  The rate diverges as x -> 1 and the single-exponential
    picture degrades well before that.
    """
    ratio = float(x)
    if not 0 < ratio < 1:
        raise ValueError(f"trap ratio must lie in (0, 1), got {ratio}")
    if c_sink <= 0:
        raise ValueError(f"c_sink must be positive, got {c_sink}")
    return c_sink * 2.0 * ratio * ratio / math.sqrt(1.0 - ratio * ratio)
