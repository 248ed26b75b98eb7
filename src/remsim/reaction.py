"""Pseudo-first-order contaminant degradation on reactive iron with
stoichiometric passivation.

The coupled cell-local system

    dc/dt     = -K rho_m c
    drho_m/dt = -x K rho_m c

conserves a = rho_m - x c, which gives a closed-form update used for the
reactive step: positivity-preserving for any dt, exact for constant K.
"""

from __future__ import annotations

import numpy as np

from .config import ReactionCfg


def reactive_step(c, rho_m, reaction: ReactionCfg, dt: float):
    """Exact update of (c, rho_m) over dt at K = k_sa * alpha_s.  Returns
    (c', rho_m').

    With K == 0 or dt == 0 the inputs are returned unchanged (bitwise),
    so a zeroed rate constant is a true no-op.
    """
    kk = reaction.k_sa * reaction.alpha_s
    if kk == 0.0 or dt == 0.0:
        return c, rho_m
    c = np.asarray(c, dtype=float)
    rho_m = np.asarray(rho_m, dtype=float)
    x = reaction.stoichiometry
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

