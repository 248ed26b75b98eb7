"""Colloid filtration, clogging feedback and polymer rheology for the
nZVI injection stage.

Attachment follows clean-bed filtration theory with the Tufenkji-Elimelech
single-collector contact efficiency.  Deposited particles shrink porosity
and grow the grain specific surface, which feeds back on permeability via
a Kozeny-Carman-type law.  Carrier-fluid viscosity follows a log-linear
mixing rule in the CMC concentration.
"""

from __future__ import annotations

import numpy as np

from .config import CloggingCfg, CmcCfg, NzviCfg
from .flow import SolverError

_KB = 1.380649e-23  # Boltzmann constant (J/K)


def collector_diameter(k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Equivalent grain diameter from inverting Kozeny-Carman,
    dc = sqrt(180 k (1-theta)^2 / theta^3)."""
    return np.sqrt(180.0 * k * (1.0 - theta) ** 2 / theta**3)


def single_collector_efficiency(
    dc, theta, velocity, mu, nzvi: NzviCfg, rho_w: float, g: float
) -> np.ndarray:
    """Tufenkji-Elimelech single-collector contact efficiency eta0.

    ``velocity`` is the approach (Darcy) velocity magnitude; ``rho_w`` and
    ``g`` set the particles' buoyant weight.  The three transport mechanisms
    (diffusion, interception, sedimentation) are summed and the result
    clamped to (0, 1]; stagnant cells get the diffusion-dominated limit via
    a velocity floor.
    """
    u = np.maximum(velocity, 1e-30)
    dp = nzvi.particle_diameter

    gam = (1.0 - theta) ** (1.0 / 3.0)
    as_h = 2.0 * (1.0 - gam**5) / (2.0 - 3.0 * gam + 3.0 * gam**5 - 2.0 * gam**6)

    d_inf = _KB * nzvi.temperature / (3.0 * np.pi * mu * dp)
    n_r = dp / dc
    n_pe = u * dc / d_inf
    n_vdw = nzvi.hamaker / (_KB * nzvi.temperature)
    n_a = n_vdw / (n_r * n_pe)
    n_g = dp**2 * (nzvi.particle_density - rho_w) * g / (18.0 * mu * u)

    eta_d = 2.4 * as_h ** (1.0 / 3.0) * n_r**-0.081 * n_pe**-0.715 * n_vdw**0.052
    eta_i = 0.55 * as_h * n_r**1.675 * n_a**0.125
    eta_g = 0.22 * n_r**-0.24 * n_g**1.11 * n_vdw**0.053
    return np.clip(eta_d + eta_i + eta_g, 1e-30, 1.0)


def deposition_rate(theta, v_pore, alpha, eta0, dc):
    """k_att = 3 (1 - theta) v alpha eta0 / (2 dc), v the pore velocity (1/s)."""
    return 1.5 * (1.0 - theta) * v_pore * alpha * eta0 / dc


def attachment_rate(dc, theta, velocity, mu, nzvi: NzviCfg, rho_w: float, g: float) -> np.ndarray:
    """First-order deposition rate k_att (1/s) from filtration theory.

    ``velocity`` is the Darcy velocity magnitude; the collector efficiency
    uses it as the approach velocity while the rate uses the pore velocity.
    """
    eta0 = single_collector_efficiency(dc, theta, velocity, mu, nzvi, rho_w, g)
    return deposition_rate(theta, velocity / theta, nzvi.attachment_efficiency, eta0, dc)


def deposit_step(c, s_bulk, katt, theta, dt):
    """Exact first-order exchange aqueous -> deposited over dt.

    c is aqueous concentration (kg per m^3 of water), s_bulk the deposit
    (kg per m^3 of bulk medium).  Returns (c', s_bulk')."""
    frac = -np.expm1(-katt * dt)
    dm = theta * c * frac                     # kg per m^3 bulk moved to the solid
    return c * (1.0 - frac), s_bulk + dm


def clogging_update(s_bulk, k0, theta0, clogging: CloggingCfg, rho_p):
    """Porosity and permeability after deposition.

    theta_m = theta0 - s_bulk/rho_p (deposit occupies pore space at particle
    density); the clean-bed specific surface a0 grows by the exposed deposit
    surface; then k/k0 = (theta_m/theta0)^3 (a0/a)^2.  Returns (theta_m, k, a).
    A deposit that fills the pore space is a :class:`SolverError`: the
    injection has outrun what the model can represent."""
    theta_m = theta0 - s_bulk / rho_p
    if np.any(theta_m <= 0):
        raise SolverError("deposition has consumed all pore space")
    a = clogging.a0 + clogging.zvi_specific_area * clogging.gamma * s_bulk / rho_p
    k = k0 * (theta_m / theta0) ** 3 * (clogging.a0 / a) ** 2
    return theta_m, k, a


def cmc_viscosity(c_cmc, cmc: CmcCfg, mu_w: float) -> np.ndarray:
    """Log-linear mixing between water (viscosity ``mu_w``) and the injected
    CMC solution, written ``mu_w * (mu_s / mu_w) ** x`` at the CMC fraction x:
    clean water gets ``mu_w`` exactly."""
    x = np.clip(c_cmc / cmc.concentration, 0.0, 1.0)
    return mu_w * (cmc.solution_viscosity / mu_w) ** x


# deposit (kg/m^3) counted in the radius of influence
ROI_THRESHOLD = 0.01


def radius_of_influence(s_bulk, grid, screen: tuple[float, float]) -> float:
    """Max Euclidean distance from the screen center where the deposit
    reaches :data:`ROI_THRESHOLD`, or 0 where none does."""
    mask = s_bulk >= ROI_THRESHOLD
    if not mask.any():
        return 0.0
    xv, yv = grid.cell_centers()
    return float(np.hypot(xv[mask] - screen[0], yv[mask] - screen[1]).max())
