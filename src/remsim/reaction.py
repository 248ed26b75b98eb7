"""Pseudo-first-order contaminant degradation on reactive iron with
stoichiometric passivation.

The coupled cell-local system

    dc/dt     = -K rho_m c
    drho_m/dt = -x K rho_m c

conserves a = rho_m - x c, which gives a closed-form update used for the
reactive step: positivity-preserving for any dt, exact for constant K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KineticParams:
    k_sa: float            # surface-area-normalized rate constant (m^3/(m^2 s))
    specific_area: float   # reactive surface per unit iron mass (m^2/kg)
    stoichiometry: float   # kg iron consumed per kg contaminant degraded

    def __post_init__(self) -> None:
        if self.k_sa < 0 or self.specific_area < 0 or self.stoichiometry < 0:
            raise ValueError("kinetic parameters must be >= 0")

    @property
    def rate_coefficient(self) -> float:
        """K = k_sa * a_s, m^3/(kg s): first-order rate per unit iron
        concentration."""
        return self.k_sa * self.specific_area


def reactive_step(c, rho_m, params: KineticParams, dt: float):
    """Exact update of (c, rho_m) over dt.  Returns (c', rho_m').

    With K == 0 or dt == 0 the inputs are returned unchanged (bitwise),
    so a zeroed rate constant is a true no-op.
    """
    kk = params.rate_coefficient
    if kk == 0.0 or dt == 0.0:
        return c, rho_m
    c = np.asarray(c, dtype=float)
    rho_m = np.asarray(rho_m, dtype=float)
    x = params.stoichiometry
    a = rho_m - x * c
    # decaying exponential for either sign of a, so large dt never overflows:
    # a > 0 (excess iron): c' = a c e / (a + x c (1 - e))
    # a < 0 (excess contaminant): c' = a c / ((a + x c) e - x c)
    e = np.exp(-np.abs(a) * kk * dt)
    denom = np.where(a > 0, a + x * c * (1.0 - e), (a + x * c) * e - x * c)
    num = np.where(a > 0, a * c * e, a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_new = np.where(np.abs(denom) > 0, num / denom, 0.0)
    # degenerate branch a == 0 (exact stoichiometric balance)
    bal = a == 0
    if np.any(bal):
        c_new = np.where(bal, c / (1.0 + x * kk * c * dt), c_new)
    rho_new = np.maximum(a + x * c_new, 0.0)
    return np.maximum(c_new, 0.0), rho_new

