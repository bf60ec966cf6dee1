"""Unit conventions shared across the package.

All rates and propagation constants are in cm^-1, propagation distances in
cm, and wavelengths in nm at public interfaces.  Conversions happen at the
boundary of whichever function needs SI quantities (only the coherence-time
bookkeeping does).
"""

C_LIGHT_CM_PER_S = 2.99792458e10


def nm_to_cm(x: float) -> float:
    return x * 1e-7
