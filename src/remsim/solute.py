"""Cell-centered advection-dispersion transport and NAPL dissolution.

One kernel drives the aqueous TCE plume (Stage 2), CMC and aqueous nZVI
(Stages 3-4).  Advection is first-order upwind, dispersion is the scalar
D = Dd + alpha*|v| evaluated at faces, both explicit with automatic
sub-stepping.  Dissolution of the NAPL source zone is an analytic per-cell
relaxation toward solubility, capped by the available NAPL mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowField, scatter_faces


class TransportError(RuntimeError):
    """Negative concentrations or broken kernel invariants."""


@dataclass(frozen=True)
class TransportParams:
    diffusion: float       # molecular diffusion Dd (m^2/s)
    dispersivity: float    # alpha_L (m)

    def __post_init__(self) -> None:
        if self.diffusion < 0 or self.dispersivity < 0:
            raise ValueError("diffusion and dispersivity must be >= 0")


@dataclass(frozen=True)
class DissolutionParams:
    kl: float              # lumped volumetric mass-transfer coefficient (1/s)
    cs: float = 1.27       # solubility (kg/m^3)

    def __post_init__(self) -> None:
        if self.kl < 0:
            raise ValueError("mass-transfer coefficient must be >= 0")


class TransportKernel:
    """Explicit FV transport on a frozen flow field.

    Lateral boundaries are open: advective boundary fluxes use the boundary
    cell's own concentration (zero-gradient), dispersive boundary fluxes are
    zero.  ``well_sources`` maps (i, j) to volumetric rates; injected
    concentrations are passed per step so one kernel serves many species.
    """

    def __init__(
        self,
        grid,
        theta: np.ndarray,
        flow: FlowField,
        params: TransportParams,
        cfl: float = 0.9,
        well_sources: dict | None = None,
    ):
        self.grid = grid
        self.theta = theta
        self.pv = theta * grid.cell_volume
        self.well_sources = dict(well_sources or {})
        dx, dy = grid.dx, grid.dy

        self.fx = flow.qx * dy          # (ny, nx+1) volumetric face flow (m^3/s)
        self.fy = flow.qy * dx          # (ny+1, nx)
        self.gx = (params.diffusion + params.dispersivity * np.abs(flow.qx[:, 1:-1])) * dy / dx
        self.gy = (params.diffusion + params.dispersivity * np.abs(flow.qy[1:-1, :])) * dx / dy

        # positivity / CFL bound: dt <= cfl * pv / (sum outflux + sum conductance)
        fxi, fyi = self.fx[:, 1:-1], self.fy[1:-1, :]
        out = scatter_faces(np.zeros_like(self.pv),
                            np.maximum(fxi, 0.0) + self.gx, np.maximum(-fxi, 0.0) + self.gx,
                            np.maximum(fyi, 0.0) + self.gy, np.maximum(-fyi, 0.0) + self.gy)
        out[:, 0] += np.maximum(-self.fx[:, 0], 0.0)
        out[:, -1] += np.maximum(self.fx[:, -1], 0.0)
        out[0, :] += np.maximum(-self.fy[0, :], 0.0)
        out[-1, :] += np.maximum(self.fy[-1, :], 0.0)
        for (i, j), rate in self.well_sources.items():
            if rate < 0:
                out[j, i] += -rate
        with np.errstate(divide="ignore"):
            self.stable_dt = float(cfl * np.where(out > 0, self.pv / out, np.inf).min())

    def step(
        self, c: np.ndarray, dt: float, well_conc: dict | None = None
    ) -> tuple[np.ndarray, float]:
        """Advance by dt (sub-stepping internally).  Returns the new field and
        the net mass (kg per m of thickness) advected out of the domain."""
        n_sub = max(1, int(np.ceil(dt / self.stable_dt))) if np.isfinite(self.stable_dt) else 1
        sub = dt / n_sub
        well_conc = well_conc or {}
        exported = 0.0
        for _ in range(n_sub):
            c, exported = self._substep(c, sub, well_conc, exported)
        if c.min() < -1e-12:
            raise TransportError(f"negative concentration {c.min():.3e}")
        return c, exported

    def _substep(self, c, dt, well_conc, exported):
        """One explicit sub-step; adds its boundary outflow to the running
        total ``exported`` and returns ``(c', exported')``."""
        fxi, fyi = self.fx[:, 1:-1], self.fy[1:-1, :]
        flux_x = dt * (fxi * np.where(fxi > 0, c[:, :-1], c[:, 1:])
                       - self.gx * (c[:, 1:] - c[:, :-1]))
        flux_y = dt * (fyi * np.where(fyi > 0, c[:-1, :], c[1:, :])
                       - self.gy * (c[1:, :] - c[:-1, :]))
        m = scatter_faces(self.pv * c, -flux_x, flux_x, -flux_y, flux_y)
        # open lateral boundaries, zero-gradient concentration
        for f, col in ((self.fx[:, 0], 0), (-self.fx[:, -1], -1)):
            bflux = f * c[:, col]           # positive = into the domain
            m[:, col] += dt * bflux
            exported -= dt * float(bflux.sum())
        for f, row in ((self.fy[0, :], 0), (-self.fy[-1, :], -1)):
            bflux = f * c[row, :]
            m[row, :] += dt * bflux
            exported -= dt * float(bflux.sum())
        for (i, j), rate in self.well_sources.items():
            if rate > 0:
                m[j, i] += dt * rate * well_conc.get((i, j), 0.0)
            else:
                m[j, i] += dt * rate * c[j, i]
        return m / self.pv, exported


# ---------------------------------------------------------------------------
# NAPL dissolution (stagnant-film / LEA)
# ---------------------------------------------------------------------------

def dissolution_substep(c, sn, rho_n, params: DissolutionParams, dt):
    """Analytic relaxation of c toward Cs with exact NAPL mass transfer.

    Returns (c', sn').  The transfer is capped so a step never dissolves
    more NAPL than the cell holds, and never drives c past Cs.
    """
    active = sn > 0
    dc = np.where(active, (params.cs - c) * (-np.expm1(-params.kl * dt)), 0.0)
    dc = np.minimum(dc, np.maximum(sn, 0.0) * rho_n)
    return c + dc, sn - dc / rho_n


def probe(c: np.ndarray, cell: tuple[int, int]) -> float:
    """Concentration at a monitoring-well screen cell (i, j)."""
    i, j = cell
    return float(c[j, i])
