"""TPFA finite-volume pressure operator and the single-phase Darcy solver.

:class:`TpfaSystem` is the one pressure system of the simulator: the
stage-1 IMPES pressure step and the single-phase solve of Stages 2-4 both
hand it face transmissibilities, known face fluxes (gravity, capillarity)
and cellwise boundary and source terms.  The matrix is symmetric positive
definite; with the cells numbered along the shorter grid side its
half-bandwidth is ``min(nx, ny)``, so it is solved by a banded Cholesky
factorization (LAPACK ``pbsv``).

:func:`solve_pressure` (Stages 2-4): Dirichlet heads on the lateral
boundaries, no-flow top and bottom, optional well sources, spatially varying
permeability and viscosity.  Face transmissibilities use the harmonic mean
of the cell mobilities, which keeps the scheme locally conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded


class SolverError(RuntimeError):
    """Singular system or unacceptable linear-solve residual."""


@dataclass(frozen=True)
class FlowBC:
    """Lateral Dirichlet heads (m); None disables that side. Top/bottom are no-flow."""

    head_left: float | None
    head_right: float | None
    # volumetric sources per cell, m^3/s per unit thickness: {(i, j): rate}
    well_sources: dict = field(default_factory=dict)


@dataclass
class FlowField:
    pressure: np.ndarray   # (ny, nx) Pa
    qx: np.ndarray         # (ny, nx+1) face Darcy velocity, +x (m/s)
    qy: np.ndarray         # (ny+1, nx) face Darcy velocity, +y (m/s)

    def cell_velocity(self) -> tuple[np.ndarray, np.ndarray]:
        vx = 0.5 * (self.qx[:, :-1] + self.qx[:, 1:])
        vy = 0.5 * (self.qy[:-1, :] + self.qy[1:, :])
        return vx, vy

    def velocity_magnitude(self) -> np.ndarray:
        vx, vy = self.cell_velocity()
        return np.hypot(vx, vy)

    def divergence(self, dx: float, dy: float) -> np.ndarray:
        """Net volumetric outflow per cell (m^3/s per unit thickness)."""
        return (self.qx[:, 1:] - self.qx[:, :-1]) * dy + (self.qy[1:, :] - self.qy[:-1, :]) * dx


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


class TpfaSystem:
    """Five-point TPFA pressure system on a (ny, nx) cell grid.

    Row ``o`` reads ``sum_f t_f (p_o - p_nb) + d_o p_o = b_o + sum_f +-k_f``:
    ``t_x`` (ny, nx-1) and ``t_y`` (ny-1, nx) are the interior face
    transmissibilities; ``k_x``/``k_y`` (same shapes) are known face fluxes
    (gravity, capillarity) from the lower-index cell of each face to the
    other, entering the right-hand side as ``+k`` at the first and ``-k`` at
    the second; ``d`` and ``b`` (ny, nx) are the cellwise diagonal and
    right-hand-side terms of Dirichlet boundary faces and sources.
    """

    def __init__(self, t_x, t_y, k_x, k_y, d, b):
        self.t_x, self.t_y = t_x, t_y
        self.diag = np.zeros_like(d)
        self.diag[:, :-1] += t_x
        self.diag[:, 1:] += t_x
        self.diag[:-1, :] += t_y
        self.diag[1:, :] += t_y
        self.diag += d
        self.rhs = np.zeros_like(b)
        self.rhs[:, :-1] += k_x
        self.rhs[:, 1:] -= k_x
        self.rhs[:-1, :] += k_y
        self.rhs[1:, :] -= k_y
        self.rhs += b

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Matrix-vector product through the five-point stencil."""
        ap = self.diag * p
        ap[:, :-1] -= self.t_x * p[:, 1:]
        ap[:, 1:] -= self.t_x * p[:, :-1]
        ap[:-1, :] -= self.t_y * p[1:, :]
        ap[1:, :] -= self.t_y * p[:-1, :]
        return ap

    def solve(self) -> np.ndarray:
        """Banded Cholesky solve; raises SolverError if not positive definite."""
        transpose = self.diag.shape[1] > self.diag.shape[0]
        if transpose:  # number the cells along y, the shorter side
            inner, outer, diag, rhs = self.t_y.T, self.t_x.T, self.diag.T, self.rhs.T
        else:
            inner, outer, diag, rhs = self.t_x, self.t_y, self.diag, self.rhs
        rows, cols = diag.shape
        # LAPACK lower band storage, ab[m, i] = A[i + m, i], in Fortran order
        # so that pbsv factors it in place instead of copying it
        ab = np.zeros((rows * cols, cols + 1)).T
        ab[0] = diag.ravel()
        band1 = np.zeros((rows, cols))
        band1[:, :-1] = -inner
        ab[1] = band1.ravel()
        ab[cols, : rows * cols - cols] = -outer.ravel()
        try:
            p = solveh_banded(ab, rhs.ravel(), overwrite_ab=True, lower=True, check_finite=False)
        except LinAlgError as err:
            raise SolverError(f"pressure system is not positive definite: {err}") from err
        p = p.reshape(rows, cols)
        return p.T.copy() if transpose else p


def solve_pressure(
    grid,
    k_field: np.ndarray,
    mu_field: np.ndarray,
    bc: FlowBC,
    rho: float = 1000.0,
    g: float = 9.81,
    mobility_scale: np.ndarray | None = None,
    rtol: float = 1e-10,
) -> FlowField:
    """Solve div( (k/mu) (grad p + rho g e_z) ) = sources with TPFA.

    ``mobility_scale`` multiplies k/mu cellwise (relative-permeability
    scaling in the presence of trapped NAPL).
    """
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    if np.any(k_field <= 0) or np.any(mu_field <= 0):
        raise ValueError("permeability and viscosity must be positive everywhere")
    if bc.head_left is None and bc.head_right is None:
        raise SolverError("all-no-flow problem is singular: need a Dirichlet head")

    lam = k_field / mu_field
    if mobility_scale is not None:
        lam = lam * mobility_scale
    yc = grid.yc
    lam_fx = _harmonic(lam[:, :-1], lam[:, 1:])
    lam_fy = _harmonic(lam[:-1, :], lam[1:, :])
    t_x = lam_fx * dy / dx
    t_y = lam_fy * dx / dy

    # lateral Dirichlet boundaries (boundary face at the cell-center elevation)
    d = np.zeros((ny, nx))
    b = np.zeros((ny, nx))
    for col, head in ((0, bc.head_left), (-1, bc.head_right)):
        if head is not None:
            t_b = lam[:, col] * dy / (dx / 2.0)
            d[:, col] += t_b
            b[:, col] += t_b * (rho * g * (head - yc))
    for (i, j), rate in bc.well_sources.items():
        b[j, i] += rate

    # y-faces carry the gravity term rho*g*(z_nb - z_o)
    system = TpfaSystem(t_x, t_y, np.zeros_like(t_x), t_y * (rho * g * dy), d, b)
    pm = system.solve()
    ap = system.apply(pm)
    scale = max(np.abs(system.rhs).max(), np.abs(ap).max(), 1e-300)
    residual = np.abs(ap - system.rhs).max() / scale
    if not np.isfinite(pm).all() or residual > rtol:
        raise SolverError(f"pressure solve residual {residual:.3e} exceeds {rtol:.1e}")

    qx = np.zeros((ny, nx + 1))
    qy = np.zeros((ny + 1, nx))
    qx[:, 1:-1] = -lam_fx * (pm[:, 1:] - pm[:, :-1]) / dx
    qy[1:-1, :] = -lam_fy * ((pm[1:, :] - pm[:-1, :]) / dy + rho * g)
    if bc.head_left is not None:
        p_b = rho * g * (bc.head_left - yc)
        qx[:, 0] = -lam[:, 0] * (pm[:, 0] - p_b) / (dx / 2.0)
    if bc.head_right is not None:
        p_b = rho * g * (bc.head_right - yc)
        qx[:, -1] = -lam[:, -1] * (p_b - pm[:, -1]) / (dx / 2.0)

    return FlowField(pressure=pm, qx=qx, qy=qy)

