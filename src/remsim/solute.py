"""Cell-centered advection-dispersion transport and NAPL dissolution.

One kernel drives the aqueous TCE plume (Stage 2), CMC and aqueous nZVI
(Stages 3-4).  Advection is first-order upwind, dispersion is the scalar
D = Dd + alpha*|v| evaluated at faces, both explicit with automatic
sub-stepping.  The flow is frozen for a kernel's life, so the kernel folds
it once into a five-point stencil held in the diagonal (DIA) sparse format,
and each sub-step is one compiled DIA matrix-vector product (Saad 2003,
*Iterative Methods for Sparse Linear Systems*, sec. 3.4).  Dissolution of
the NAPL source zone is an analytic per-cell relaxation toward solubility,
capped by the available NAPL mass.
"""

from __future__ import annotations

import numpy as np

from .config import TransportCfg
from .flow import FlowField, SolverError, load_compiled, scatter_faces

# y += A x for A in DIA format, loaded without importing the scipy package
dia_matvec = load_compiled("sparse", "_sparsetools").dia_matvec


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
    min(f, 0) - g``) are folded once into a stencil divided by ``pv``, the
    ``(5, n)`` array ``stencil`` over the flat row-major grid.  Its rows are
    ``diag`` (faces and open sides) and the non-negative west, east, south
    and north weights, at the flat offsets ``offsets`` = (0, -1, +1, -nx,
    +nx).  As scipy's DIA format asks, each weight sits in the column of the
    cell it reads: west in ``[:n-1]``, east in ``[1:]``, south in ``[:n-nx]``
    and north in ``[nx:]``; the other entries are zero and never read.  A
    sub-step of length ``sub`` is one DIA product with the weights ``1 +
    sub*diag`` and ``sub`` times the neighbour weights, formed once per
    sub-step length: all are non-negative, the first at least ``1 - cfl``, so
    the update is a non-negative combination of the old values (Hundsdorfer
    & Verwer 2003, ch. I).  The product starts from zeros and adds
    ``weight*c`` one diagonal at a time, in the row order above, so every
    cell sums its five terms in a fixed order.  The export sums the net
    outflow ``export_weights`` of the boundary cells ``export_cells`` times
    their concentration with a numpy reduction, not a BLAS dot product,
    whose summation order would follow the BLAS thread count.
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

        # flat row-major stencil, each weight at the cell it reads; x-weights are
        # zero across row ends, boundary inflow is -outflow
        ny, nx = self.pv.shape
        self.offsets = np.array([0, -1, 1, -nx, nx], dtype=np.intc)
        self.stencil = np.zeros((5, ny * nx))
        diag, west, east, south, north = self.stencil.reshape(5, ny, nx)
        diag[:] = (-faces - outflow) / self.pv
        west[:, :-1], east[:, 1:] = lo_x / self.pv[:, 1:], -hi_x / self.pv[:, :-1]
        south[:-1, :], north[1:, :] = lo_y / self.pv[1:, :], -hi_y / self.pv[:-1, :]
        self.export_cells = np.flatnonzero(outflow)
        self.export_weights = outflow.ravel()[self.export_cells]
        self._sub, self._weights = None, None

    def _stencil(self, sub: float) -> np.ndarray:
        """The stencil of one sub-step of length sub, laid out as ``stencil``:
        ``1 + sub*diag`` in row 0 and ``sub`` times each neighbour weight.  The
        last length's weights are kept, so a kernel stepped at one dt forms
        them once."""
        if sub != self._sub:
            self._weights = sub * self.stencil
            self._weights[0] += 1.0
            self._sub = sub
        return self._weights

    def step(self, c: np.ndarray, dt: float, c_in: float = 0.0) -> tuple[np.ndarray, float]:
        """Advance by dt (sub-stepping internally), the wells injecting at the
        concentration ``c_in``.  Returns a new field, never a view of c, and
        the net mass (kg per m of thickness) advected out of the domain."""
        n_sub = max(1, int(np.ceil(dt / self.stable_dt)))
        sub = dt / n_sub
        ny, nx = c.shape
        n = ny * nx
        inject = [(j * nx + i, sub * rate * c_in / self.pv[j, i])
                  for (i, j), rate in self.well_sources.items()]
        weights = self._stencil(sub)
        c, exported = c.ravel(), 0.0
        for _ in range(n_sub):
            exported += sub * float((self.export_weights * c[self.export_cells]).sum())
            r = np.zeros(n)
            dia_matvec(n, n, 5, n, self.offsets, weights, c, r)
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
