"""TPFA finite-volume pressure operator and the single-phase Darcy solver.

:class:`TpfaSystem` is the one pressure system of the simulator: the
stage-1 IMPES pressure step and the single-phase solve of Stages 2-4 both
hand it face transmissibilities, known face fluxes (gravity, capillarity)
and cellwise boundary and source terms.  The matrix is symmetric positive
definite; with the cells numbered along the shorter grid side its
half-bandwidth is ``min(nx, ny)``, so it is solved by a banded Cholesky
factorization.

:func:`scatter_faces` is the one face-to-cell balance of the finite-volume
kernels (this operator, the IMPES saturation step and the transport
kernel): it adds interior face values to the cells on either side of each
face, in a fixed order so that results are reproducible bit for bit.

A run solves sequences of such systems (one per IMPES sub-step or operator
split step) whose mobility changes only in part of the grid: around the NAPL
body in Stage 1, inside the CMC plume and the clogged zone in Stages 3-4.
:class:`FactorCache` carries the factors from one solve of a sequence to the
next and re-factors only the contiguous span of grid columns (along the
longer side) whose matrix entries differ bitwise from the last full solve;
the unchanged strips on either side enter through their Schur complements.

:func:`solve_pressure` (Stages 2-4): Dirichlet heads on the lateral
boundaries, no-flow top and bottom, optional well sources, spatially varying
permeability and viscosity.  Face transmissibilities use the harmonic mean
of the cell mobilities, which keeps the scheme locally conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solveh_banded


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


# (lower cell, upper cell) of the interior faces of a (ny, nx) cell array,
# x-faces first, then y-faces
FACES = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]))


def scatter_faces(out, x_lo, x_hi, y_lo, y_hi):
    """Add interior face values to the cells on either side and return
    ``out``: ``x_lo``/``x_hi`` (ny, nx-1) to the cell left/right of each
    x-face, then ``y_lo``/``y_hi`` (ny-1, nx) to the cell below/above each
    y-face, in that order."""
    for (lo, hi), v_lo, v_hi in zip(FACES, (x_lo, y_lo), (x_hi, y_hi)):
        out[lo] += v_lo
        out[hi] += v_hi
    return out


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
        self.diag = scatter_faces(np.zeros_like(d), t_x, t_x, t_y, t_y)
        self.diag += d
        self.rhs = scatter_faces(np.zeros_like(b), k_x, -k_x, k_y, -k_y)
        self.rhs += b

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Matrix-vector product through the five-point stencil."""
        return scatter_faces(self.diag * p, -(self.t_x * p[:, 1:]), -(self.t_x * p[:, :-1]),
                             -(self.t_y * p[1:, :]), -(self.t_y * p[:-1, :]))

    def solve(self, cache: FactorCache | None = None) -> np.ndarray:
        """Banded Cholesky solve, re-using the factors of ``cache`` (a fresh
        one by default); raises SolverError if not positive definite."""
        transpose = self.diag.shape[1] > self.diag.shape[0]
        if transpose:  # number the cells along y, the shorter side
            terms = self.diag.T, self.t_y.T, self.t_x.T, self.rhs.T
        else:
            terms = self.diag, self.t_x, self.t_y, self.rhs
        try:
            p = (FactorCache() if cache is None else cache).solve(*terms)
        except LinAlgError as err:
            raise SolverError(f"pressure system is not positive definite: {err}") from err
        return p.T.copy() if transpose else p


def _band(diag, inner, outer, ab=None):
    """LAPACK lower band storage ``ab[k, i] = A[i + k, i]`` of the system on
    ``diag`` (rows, cols), cells numbered row by row, written into ``ab`` or a
    new array.  Fortran order, so that LAPACK factors it in place and any
    prefix of cells is a contiguous view."""
    rows, cols = diag.shape
    if ab is None:
        ab = np.zeros((rows * cols, cols + 1)).T
    else:
        ab[...] = 0.0
    ab[0] = diag.ravel()
    band1 = np.zeros((rows, cols))
    band1[:, :-1] = -inner
    ab[1] = band1.ravel()
    ab[cols, : rows * cols - cols] = -outer.ravel()
    return ab


def _flip(a):
    """Reverse the cell order of a (rows, cols) array: both axes."""
    return a[::-1, ::-1]


def _differs(a, ref):
    """Per row: does any entry differ bitwise from the reference?"""
    return (a.view(np.int64) != ref.view(np.int64)).any(axis=1)


def _block_product(factor):
    """``L L^T`` for the last diagonal block ``L`` of a lower band Cholesky
    factor: the Schur complement of the factored cells onto that block."""
    m = factor.shape[0] - 1
    row, col = np.tril_indices(m)
    low = np.zeros((m, m))
    low[row, col] = factor[row - col, factor.shape[1] - m + col]
    return low @ low.T


def _put_block(ab, first, s):
    """Write the symmetric block ``s`` into band storage from cell ``first``."""
    row, col = np.tril_indices(len(s))
    ab[row - col, first + col] = s[row, col]


class FactorCache:
    """Factor reuse over one sequence of pressure solves on the same grid.

    The first solve factors the whole band and keeps its ``diag``/``inner``/
    ``outer`` terms as the reference.  A later solve finds the span ``[a, b]``
    of outer-index columns whose terms differ bitwise from the reference,
    both columns of a changed cross-column face included, and factors only
    that span (block elimination, one level of nested dissection):

    - the unchanged strips ``[0, a)`` and ``(b, n)`` are factored once, at the
      first such solve, the right one in reversed cell order, so that in
      both the column coupled to the span comes last;
    - the band of columns ``[a - 1, b + 1]`` holds each strip's coupling
      column as its Schur complement ``L L^T`` (``L`` the last block of the
      strip factor), so that eliminating it subtracts ``T (L L^T)^-1 T`` from
      the span's end block (``T`` the coupling transmissibilities); one strip
      solve each corrects the right-hand side, one more back-substitutes
      each strip.

    A later, wider span uses prefixes of the strip factors; a narrower one
    keeps the widest span so far.  Strips and span share the memory of one
    band.  A span that reaches both ends is a full solve that becomes the
    new reference.
    """

    def __init__(self):
        self.reference = None        # (diag, inner, outer) of the last full solve
        self.band = None             # left strip factor | span | right strip factor
        self.span = None             # widest (a, b) since the strips were factored
        self.n_columns = 0           # length of the outer index
        self.solves = 0
        self.full = 0
        self.columns = 0             # columns factored, summed over the solves

    def stats(self) -> dict:
        """Solves, full factorizations and mean factored width in columns."""
        return {"solves": self.solves, "full": self.full, "columns": self.n_columns,
                "mean_columns": self.columns / max(self.solves, 1)}

    def solve(self, diag, inner, outer, rhs) -> np.ndarray:
        """Solve the system on ``diag`` (n, m) with in-row couplings ``inner``
        (n, m-1) and row-to-row couplings ``outer`` (n-1, m); raises
        LinAlgError if it is not positive definite."""
        n, m = diag.shape
        self.n_columns = n
        self.solves += 1
        if self.reference is not None:
            ref_diag, ref_inner, ref_outer = self.reference
            changed = _differs(diag, ref_diag) | _differs(inner, ref_inner)
            face = _differs(outer, ref_outer)
            changed[:-1] |= face
            changed[1:] |= face
            a, b = self.span or (n, -1)
            span = np.flatnonzero(changed)
            if span.size:
                a, b = min(a, span[0]), max(b, span[-1])
            if a <= b and (a > 0 or b < n - 1):
                return self._solve_span(diag, inner, outer, rhs, int(a), int(b))
        p = solveh_banded(_band(diag, inner, outer), rhs.ravel(), overwrite_ab=True, lower=True,
                          check_finite=False)
        self.reference = (diag.copy(), inner.copy(), outer.copy())
        self.band = self.span = None
        self.full += 1
        self.columns += n
        return p.reshape(n, m)

    def _solve_span(self, diag, inner, outer, rhs, a, b):
        n, m = diag.shape
        if self.span is None:
            self.band = np.empty((n * m, m + 1)).T
            strips = ((self.band[:, : a * m], (diag[:a], inner[:a], outer[: max(a - 1, 0)])),
                      (self.band[:, (b + 1) * m:],
                       (_flip(diag[b + 1:]), _flip(inner[b + 1:]), _flip(outer[b + 1:]))))
            for cells, terms in strips:
                if cells.size:
                    cells[...] = cholesky_banded(_band(*terms, cells), overwrite_ab=True,
                                                 lower=True, check_finite=False)
        elif b > self.span[1]:
            # the right strip factor always ends the band: move the prefix
            # still in use up to the cells after column b (a 1-D move, so
            # numpy copies the overlap without a temporary)
            cells = self.band.T.reshape(-1)
            width = (m + 1) * m
            keep = (n - 1 - b) * width
            start = (self.span[1] + 1) * width
            cells[(b + 1) * width: (b + 1) * width + keep] = cells[start: start + keep]
        self.span = (a, b)
        band = self.band
        left, right = band[:, : a * m], band[:, (b + 1) * m:]
        lo, hi = max(a - 1, 0), min(b + 1, n - 1)
        r = rhs[lo: hi + 1].copy()
        ends = []
        if a > 0:
            s = _block_product(left)
            z = cho_solve_banded((left, True), rhs[:a].ravel(), check_finite=False)
            r[0] = s @ z[-m:]
            ends.append((lo, s))
        if b < n - 1:
            s = _flip(_block_product(right))
            z = cho_solve_banded((right, True), _flip(rhs[b + 1:]).ravel(), check_finite=False)
            r[-1] = s @ z[-m:][::-1]
            ends.append((hi, s))
        # the band of [lo, hi] borrows the cells of the left factor's last
        # column and of the right factor's first, kept aside until it is solved
        kept = [band[:, col * m: (col + 1) * m].copy() for col, _ in ends]
        try:
            mid = _band(diag[lo: hi + 1], inner[lo: hi + 1], outer[lo:hi],
                        band[:, lo * m: (hi + 1) * m])
            for col, s in ends:
                _put_block(mid, (col - lo) * m, s)
            x = solveh_banded(mid, r.ravel(), overwrite_ab=True, lower=True, check_finite=False)
        finally:
            for (col, _), block in zip(ends, kept):
                band[:, col * m: (col + 1) * m] = block
        p = np.empty((n, m))
        p[a: b + 1] = x.reshape(-1, m)[a - lo: b + 1 - lo]
        # back-substitute each strip with its coupling to the span moved to
        # its right-hand side
        if a > 0:
            r = rhs[:a].copy()
            r[-1] += outer[a - 1] * p[a]
            p[:a] = cho_solve_banded((left, True), r.ravel(), check_finite=False).reshape(a, m)
        if b < n - 1:
            r = rhs[b + 1:].copy()
            r[0] += outer[b] * p[b]
            x = cho_solve_banded((right, True), _flip(r).ravel(), check_finite=False)
            p[b + 1:] = _flip(x.reshape(n - 1 - b, m))
        self.columns += hi - lo + 1
        return p


def solve_pressure(
    grid,
    k_field: np.ndarray,
    mu_field: np.ndarray,
    bc: FlowBC,
    rho: float = 1000.0,
    g: float = 9.81,
    mobility_scale: np.ndarray | None = None,
    rtol: float = 1e-10,
    cache: FactorCache | None = None,
) -> FlowField:
    """Solve div( (k/mu) (grad p + rho g e_z) ) = sources with TPFA.

    ``mobility_scale`` multiplies k/mu cellwise (relative-permeability
    scaling in the presence of trapped NAPL).  ``cache`` carries the factors
    of earlier solves of the same sequence (see :class:`FactorCache`).
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
    pm = system.solve(cache)
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

