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
each unchanged strip on either side enters through its Schur complement and
costs one backward triangular sweep.

:func:`solve_pressure` (Stages 2-4): Dirichlet heads on the lateral
boundaries (:func:`lateral_heads`, the one lateral boundary of both pressure
solves), no-flow top and bottom, optional well sources, spatially varying
permeability and viscosity.  Face transmissibilities use the harmonic mean
of the cell mobilities, which keeps the scheme locally conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, solve_triangular, solveh_banded
from scipy.linalg.lapack import dtbtrs


class SolverError(RuntimeError):
    """Singular system or unacceptable linear-solve residual."""


@dataclass(frozen=True)
class FlowBC:
    """Lateral Dirichlet heads (m) of :func:`lateral_heads`; top and bottom
    are no-flow."""

    head_left: float
    head_right: float
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


def lateral_heads(grid, lam, head_left: float, head_right: float, rho: float, g: float):
    """Cellwise ``(d, b)`` of :class:`TpfaSystem` for the Dirichlet heads of
    the left and right boundaries: each boundary face sits at the elevation
    of its cell's center, half a cell from it, with the cell's mobility
    ``lam`` (ny, nx)."""
    d = np.zeros((grid.ny, grid.nx))
    b = np.zeros((grid.ny, grid.nx))
    yc = grid.yc
    for col, head in ((0, head_left), (-1, head_right)):
        t_b = lam[:, col] * grid.dy / (grid.dx / 2.0)
        d[:, col] += t_b
        b[:, col] += t_b * (rho * g * (head - yc))
    return d, b


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


def _band(diag, inner, outer, ab):
    """Write the LAPACK lower band storage ``ab[k, i] = A[i + k, i]`` of the
    system on ``diag`` (rows, cols), cells numbered row by row, into ``ab``
    and return it.  ``ab`` is in Fortran order, so that LAPACK factors it in
    place and any prefix of cells is a contiguous view."""
    rows, cols = diag.shape
    ab[...] = 0.0
    ab[0] = diag.ravel()
    band1 = np.zeros((rows, cols))
    band1[:, :-1] = -inner
    ab[1] = band1.ravel()
    ab[cols, : rows * cols - cols] = -outer.ravel()
    return ab


def _factor(ab):
    """Banded Cholesky factor ``L`` of ``ab``, in place."""
    ab[...] = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    return ab


def _sweep(factor, v, trans="N"):
    """``L^-1 v`` (``trans="N"``) or ``L^-T v`` (``"T"``), band factor ``L``."""
    x, info = dtbtrs(factor, v, uplo="L", trans=trans)
    if info:
        raise LinAlgError(f"triangular band solve failed (info {info})")
    return x


def _differs(a, ref):
    """Per row: does any entry differ bitwise from the reference?"""
    return (a.view(np.int64) != ref.view(np.int64)).any(axis=1)


class FactorCache:
    """Factor reuse over one sequence of pressure solves on the same grid.

    The first solve factors the whole band, ``A = L L^T``, and keeps its
    terms, right-hand side and forward vector ``L^-1 rhs`` as the reference.
    A later solve factors only the span ``[a, b]`` of outer-index columns
    whose terms differ bitwise from the reference, both columns of a changed
    cross-column face included (block elimination, one level of nested
    dissection).  Each unchanged strip, ``[0, a)`` and ``(b, n)``, keeps a
    factor ``L`` and a forward vector ``y = L^-1 rhs`` of the reference
    right-hand side: the left strip's are prefixes of the reference's, the
    right strip's are computed once, at the first such solve, in reversed
    cell order, so that in both the column coupled to the span comes last.
    With ``L_e`` and ``y_e`` the last blocks of ``L`` and ``y``:

    - the span's band, columns ``[a - 1, b + 1]``, holds each strip's
      coupling column as its Schur complement ``L_e L_e^T`` with right-hand
      side ``L_e y_e``, because ``L^T`` is upper banded and ``(L^-T y)_e =
      L_e^-T y_e``; both blocks are rebuilt only when the span changes;
    - the span's solution ``p`` reaches a strip through its last block only
      (``T`` the coupling transmissibilities): ``L^-1 (rhs + T p) = y +
      [0; L_e^-1 T p]``, so one backward sweep ``L^-T`` solves the strip.

    A strip whose right-hand side differs bitwise from the reference takes
    one fresh forward sweep.  A wider span uses prefixes of the strips, a
    narrower one keeps the widest so far; one that reaches both ends is a
    full solve and the new reference.
    """

    def __init__(self):
        self.reference = None        # (diag, inner, outer, rhs) of the last full solve
        self.band = None             # reference factor, then left strip | span | right strip
        self.forward = None          # forward vectors, laid out as the band
        self.span = None             # widest (a, b) since the strips were factored
        self.strips = []             # the unchanged strips of the span (see _solve_span)
        self.n_columns = 0           # length of the outer index
        self.solves = 0
        self.full = 0
        self.columns = 0             # columns factored, summed over the solves
        self.strip_sweeps = 0        # triangular sweeps over unchanged strips

    def stats(self) -> dict:
        """Solves, full factorizations, mean factored width and strip sweeps."""
        return {"solves": self.solves, "full": self.full, "columns": self.n_columns,
                "mean_columns": self.columns / max(self.solves, 1),
                "strip_sweeps": self.strip_sweeps}

    def solve(self, diag, inner, outer, rhs) -> np.ndarray:
        """Solve the system on ``diag`` (n, m) with in-row couplings ``inner``
        (n, m-1) and row-to-row couplings ``outer`` (n-1, m); raises
        LinAlgError if it is not positive definite."""
        n, m = diag.shape
        self.n_columns = n
        self.solves += 1
        if self.reference is not None:
            ref_diag, ref_inner, ref_outer, _ = self.reference
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
        self.reference = self.span = None
        if self.band is None or self.band.shape != (m + 1, n * m):
            self.band = np.empty((n * m, m + 1)).T
        factor = _factor(_band(diag, inner, outer, self.band))
        self.forward = _sweep(factor, rhs.ravel())
        p = _sweep(factor, self.forward, "T")
        self.reference = (diag.copy(), inner.copy(), outer.copy(), rhs.copy())
        self.full += 1
        self.columns += n
        return p.reshape(n, m)

    def _solve_span(self, diag, inner, outer, rhs, a, b):
        n, m = diag.shape
        band, forward, ref_rhs = self.band, self.forward, self.reference[3]
        if self.span is None and b < n - 1:
            right = _factor(_band(*(t[b + 1:][::-1, ::-1] for t in (diag, inner, outer)),
                                  band[:, (b + 1) * m:]))
            forward[(b + 1) * m:] = _sweep(right, ref_rhs[b + 1:][::-1, ::-1].ravel())
        elif self.span is not None and b > self.span[1]:
            # move the prefixes of the right strip's factor and forward vector
            # still in use up to column b + 1 (1-D moves: no temporary)
            for cells, width in ((band.T.reshape(-1), (m + 1) * m), (forward, m)):
                keep, start = (n - 1 - b) * width, (self.span[1] + 1) * width
                cells[(b + 1) * width: (b + 1) * width + keep] = cells[start: start + keep]
        row, cell = np.tril_indices(m)  # lower triangle of a block; band row row - cell
        if self.span != (a, b):
            # per strip, in its own cell order (step -1: reversed): its rows,
            # the column coupled to the span, its cells in the band and the
            # forward vector, L_e and L_e L_e^T in grid order
            self.strips = []
            for rows, step, col, cells in ((np.s_[:a], 1, a - 1, np.s_[: a * m]),
                                           (np.s_[b + 1:], -1, b + 1, np.s_[(b + 1) * m:])):
                if 0 <= col < n:
                    low = np.zeros((m, m))
                    low[row, cell] = band[:, cells][row - cell, cell - m]
                    self.strips.append((rows, step, col, cells, low, (low @ low.T)[::step, ::step]))
            self.span = (a, b)
        lo, hi = max(a - 1, 0), min(b + 1, n - 1)
        r = rhs[lo: hi + 1].copy()
        ys = []
        for rows, step, col, cells, low, _ in self.strips:
            ys.append(forward[cells])
            if _differs(rhs[rows], ref_rhs[rows]).any():
                ys[-1] = _sweep(band[:, cells], rhs[rows][::step, ::step].ravel())
                self.strip_sweeps += 1
            r[col - lo] = (low @ ys[-1][-m:])[::step]
        # the band of [lo, hi] borrows the cells of the left factor's last
        # column and of the right factor's first, kept aside until it is solved
        kept = [band[:, col * m: (col + 1) * m].copy() for _, _, col, *_ in self.strips]
        try:
            mid = _band(diag[lo: hi + 1], inner[lo: hi + 1], outer[lo:hi],
                        band[:, lo * m: (hi + 1) * m])
            for _, _, col, _, _, s in self.strips:
                mid[row - cell, (col - lo) * m + cell] = s[row, cell]
            x = solveh_banded(mid, r.ravel(), overwrite_ab=True, lower=True, check_finite=False)
        finally:
            for (_, _, col, *_), block in zip(self.strips, kept):
                band[:, col * m: (col + 1) * m] = block
        p = np.empty((n, m))
        p[a: b + 1] = x.reshape(-1, m)[a - lo: b + 1 - lo]
        # back-substitute each strip: the span's end column couples to its
        # last block only
        for (rows, step, col, cells, low, _), y in zip(self.strips, ys):
            end = col + step
            z = y.copy()
            z[-m:] += solve_triangular(low, (outer[min(col, end)] * p[end])[::step], lower=True,
                                       check_finite=False)
            p[rows] = _sweep(band[:, cells], z, "T").reshape(-1, m)[::step, ::step]
            self.strip_sweeps += 1
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

    lam = k_field / mu_field
    if mobility_scale is not None:
        lam = lam * mobility_scale
    yc = grid.yc
    lam_fx = _harmonic(lam[:, :-1], lam[:, 1:])
    lam_fy = _harmonic(lam[:-1, :], lam[1:, :])
    t_x = lam_fx * dy / dx
    t_y = lam_fy * dx / dy

    d, b = lateral_heads(grid, lam, bc.head_left, bc.head_right, rho, g)
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
    qx[:, 0] = -lam[:, 0] * (pm[:, 0] - rho * g * (bc.head_left - yc)) / (dx / 2.0)
    qx[:, -1] = -lam[:, -1] * (rho * g * (bc.head_right - yc) - pm[:, -1]) / (dx / 2.0)

    return FlowField(pressure=pm, qx=qx, qy=qy)

