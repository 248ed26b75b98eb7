"""Cell-centered advection-dispersion transport and NAPL dissolution.

One kernel drives the aqueous TCE plume (Stage 2), CMC and aqueous nZVI
(Stages 3-4).  Advection is first-order upwind, dispersion is the scalar
D = Dd + alpha*|v| evaluated at faces, both explicit with automatic
sub-stepping.  The flow is frozen for a kernel's life, so the kernel folds
it once into a five-point stencil and each sub-step is one linear update.
Dissolution of the NAPL source zone is an analytic per-cell relaxation
toward solubility, capped by the available NAPL mass.
"""

from __future__ import annotations

import numpy as np

from .config import TransportCfg
from .flow import FlowField, SolverError, scatter_faces


class TransportKernel:
    """Explicit FV transport on a frozen flow field, with the diffusion and
    dispersivity of the config's ``transport`` record; a sub-step takes the
    fraction ``cfl`` of the positivity bound.

    Lateral boundaries are open: advective boundary fluxes use the boundary
    cell's own concentration (zero-gradient), dispersive boundary fluxes are
    zero.  ``well_sources`` maps the injection well's cells (i, j) to their
    volumetric rates, whose sum is ``inflow``; the injected concentration is
    passed per step so one kernel serves many species.

    Face fluxes ``a_lo*c_lo + a_hi*c_hi`` (``a_lo = max(f, 0) + g``, ``a_hi =
    min(f, 0) - g``) are folded once into a stencil divided by ``pv``: ``diag``
    (faces and open sides) and the non-negative ``west``/
    ``east``/``south``/``north`` weights.  A sub-step of length ``sub`` is one
    pass of the weights ``1 + sub*diag`` and ``sub`` times the neighbour
    weights, formed once per sub-step length: all are non-negative, the first
    at least ``1 - cfl``, so the update is a non-negative combination of the
    old values (Hundsdorfer & Verwer 2003, ch. I).  The export sums the net outflow
    ``export_weights`` of the boundary cells ``export_cells`` times their
    concentration with a numpy reduction, not a BLAS dot product, whose
    summation order would follow the BLAS thread count.
    ``stable_dt`` adds each side's outflow on its own: netting a corner
    cell's inflow against its outflow would loosen that cell's bound.
    """

    def __init__(
        self,
        grid,
        theta: np.ndarray,
        flow: FlowField,
        transport: TransportCfg,
        cfl: float,
        well_sources: dict | None = None,
    ):
        self.pv = theta * grid.cell_volume
        self.well_sources = dict(well_sources or {})
        self.inflow = sum(self.well_sources.values())

        fx, fy = flow.qx * grid.dy, flow.qy * grid.dx   # volumetric face flow (m^3/s)
        d, alpha = transport.diffusion, transport.dispersivity
        gx = (d + alpha * np.abs(flow.qx[:, 1:-1])) * grid.dy / grid.dx
        gy = (d + alpha * np.abs(flow.qy[1:-1, :])) * grid.dx / grid.dy
        lo_x, hi_x = np.maximum(fx[:, 1:-1], 0.0) + gx, np.minimum(fx[:, 1:-1], 0.0) - gx
        lo_y, hi_y = np.maximum(fy[1:-1, :], 0.0) + gy, np.minimum(fy[1:-1, :], 0.0) - gy

        # positivity / CFL bound: dt <= cfl * pv / (sum outflux + sum conductance)
        faces = scatter_faces(np.zeros_like(self.pv), lo_x, -hi_x, lo_y, -hi_y)
        out, outflow = faces.copy(), np.zeros_like(self.pv)
        for side, f in ((np.s_[:, 0], -fx[:, 0]), (np.s_[:, -1], fx[:, -1]),  # outward flow
                        (np.s_[0, :], -fy[0, :]), (np.s_[-1, :], fy[-1, :])):
            out[side] += np.maximum(f, 0.0)
            outflow[side] += f
        with np.errstate(divide="ignore"):
            self.stable_dt = float(cfl * np.where(out > 0, self.pv / out, np.inf).min())

        # flat row-major stencil; x-weights are zero across row ends, boundary inflow is -outflow
        self.diag = ((-faces - outflow) / self.pv).ravel()
        west, east = np.zeros_like(self.pv), np.zeros_like(self.pv)
        west[:, :-1], east[:, :-1] = lo_x / self.pv[:, 1:], -hi_x / self.pv[:, :-1]
        self.west, self.east = west.ravel()[:-1], east.ravel()[:-1]
        self.south, self.north = (lo_y / self.pv[1:, :]).ravel(), (-hi_y / self.pv[:-1, :]).ravel()
        self.export_cells = np.flatnonzero(outflow)
        self.export_weights = outflow.ravel()[self.export_cells]
        self._sub, self._weights = None, ()

    def _stencil(self, sub: float) -> tuple[np.ndarray, ...]:
        """The stencil of one sub-step of length sub, ``(center, west, east,
        south, north)``: ``c' = center*c + west*c[W] + ...``.  The last
        length's weights are kept, so a kernel stepped at one dt forms them once."""
        if sub != self._sub:
            self._weights = (1.0 + sub * self.diag, sub * self.west, sub * self.east,
                             sub * self.south, sub * self.north)
            self._sub = sub
        return self._weights

    def step(self, c: np.ndarray, dt: float, c_in: float = 0.0) -> tuple[np.ndarray, float]:
        """Advance by dt (sub-stepping internally), the wells injecting at the
        concentration ``c_in``.  Returns the new field and the net mass (kg
        per m of thickness) advected out of the domain."""
        n_sub = max(1, int(np.ceil(dt / self.stable_dt)))
        sub = dt / n_sub
        ny, nx = c.shape
        inject = [(j * nx + i, sub * rate * c_in / self.pv[j, i])
                  for (i, j), rate in self.well_sources.items()]
        center, west, east, south, north = self._stencil(sub)
        c, exported = c.ravel(), 0.0
        for _ in range(n_sub):
            exported += sub * float((self.export_weights * c[self.export_cells]).sum())
            r = center * c
            r[1:] += west * c[:-1]
            r[:-1] += east * c[1:]
            r[nx:] += south * c[:-nx]
            r[:-nx] += north * c[nx:]
            c = r
            for cell, dc in inject:
                c[cell] += dc
        if c.min() < -1e-12:
            raise SolverError(f"negative concentration {c.min():.3e}")
        return c.reshape(ny, nx), exported


# ---------------------------------------------------------------------------
# NAPL dissolution (stagnant-film / LEA)
# ---------------------------------------------------------------------------

def dissolution_substep(c, sn, rho_n, solubility, transport: TransportCfg, dt, cells):
    """Analytic relaxation of c toward the ``solubility`` Cs at the rate
    ``transport.mass_transfer``, with exact NAPL mass transfer, on the cells
    ``cells``: the flat indices of exactly the cells with ``sn > 0``.

    Updates the C-ordered c and sn in place on those cells alone, with no
    pass over the grid, and returns them.  The transfer is capped so a step
    never dissolves more NAPL than the cell holds, and never drives c past Cs.
    """
    if not (c.flags.c_contiguous and sn.flags.c_contiguous):
        raise ValueError("an in-place dissolution step needs C-ordered arrays")
    c_flat, sn_flat = c.reshape(-1), sn.reshape(-1)
    c_napl, sn_napl = c_flat[cells], sn_flat[cells]
    dc = np.minimum((solubility - c_napl) * (-np.expm1(-transport.mass_transfer * dt)),
                    sn_napl * rho_n)
    c_flat[cells] = c_napl + dc
    sn_flat[cells] = sn_napl - dc / rho_n
    return c, sn
