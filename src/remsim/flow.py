"""TPFA finite-volume pressure operator and the single-phase Darcy solver.

:meth:`FactorCache.solve` is the one pressure solve of the simulator: the
stage-1 IMPES pressure step and the single-phase solve of Stages 2-4 both
hand it face transmissibilities, known face fluxes (gravity, capillarity)
and cellwise boundary and source terms.  The matrix is symmetric positive
definite; with the cells numbered along the shorter grid side its
half-bandwidth is ``min(nx, ny)``, so it is solved by a banded Cholesky
factorization.  One :class:`FactorCache` solves each sequence of systems (one
per IMPES sub-step or operator-split step) and re-factors only the grid
columns where they differ: around the NAPL body in Stage 1, inside the CMC
plume and the clogged zone in Stages 3-4.

:func:`scatter_faces` is the one face-to-cell balance of the finite-volume
kernels (this operator, the IMPES saturation step and the transport
kernel): it adds interior face values to the cells on either side of each
face, in a fixed order so that results are reproducible bit for bit.

:func:`solve_pressure` (Stages 2-4): Dirichlet heads on the lateral
boundaries (:func:`lateral_heads`, the one lateral boundary of both pressure
solves), no-flow top and bottom, optional well sources, spatially varying
permeability and viscosity.  Face transmissibilities use the harmonic mean
of the cell mobilities, which keeps the scheme locally conservative.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np
from numpy.linalg import LinAlgError


def load_compiled(subpackage: str, name: str):
    """scipy's compiled extension ``name`` from the ``subpackage`` directory
    (``linalg/_flapack``, ``sparse/_sparsetools``), loaded by its path without
    importing the ``scipy`` package: ``scipy/linalg/__init__.py`` pulls in
    scipy's array-API layer (with ``numpy.f2py``, ``numpy.testing`` and
    ``numpy.ma``) and costs about 0.3 s and 18 MiB per process, and
    ``scipy/__init__.py`` alone tens of milliseconds.  Neither extension
    imports a scipy module when it loads."""
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"remsim needs scipy's {subpackage}/{name}, and scipy is not installed")
    directories = [os.path.join(path, subpackage) for path in scipy.submodule_search_locations]
    spec = PathFinder.find_spec(name, directories)
    if spec is None:
        raise ImportError(f"no {name} extension in {', '.join(directories)}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = load_compiled("linalg", "_flapack")
dpbtrf, dpbsv, dtbtrs, dtrtrs = _flapack.dpbtrf, _flapack.dpbsv, _flapack.dtbtrs, _flapack.dtrtrs


class SolverError(RuntimeError):
    """Singular system or unacceptable linear-solve residual."""


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
    """Cellwise ``(d, b)`` of :meth:`FactorCache.solve` for the Dirichlet
    heads of the left and right boundaries: each boundary face sits at the
    elevation of its cell's center, half a cell from it, with the cell's
    mobility ``lam`` (ny, nx)."""
    d = np.zeros((grid.ny, grid.nx))
    b = np.zeros((grid.ny, grid.nx))
    yc = grid.yc
    for col, head in ((0, head_left), (-1, head_right)):
        t_b = lam[:, col] * grid.dy / (grid.dx / 2.0)
        d[:, col] += t_b
        b[:, col] += t_b * (rho * g * (head - yc))
    return d, b


# largest relative residual |A p - b| / max(|b|, |A p|) a pressure solve may leave
RTOL = 1e-10


def _stencil(diag, t_x, t_y, p):
    """``A p`` through the five-point stencil of the system on ``diag``."""
    return scatter_faces(diag * p, -(t_x * p[:, 1:]), -(t_x * p[:, :-1]),
                         -(t_y * p[1:, :]), -(t_y * p[:-1, :]))


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


def _check(info, what):
    if info:
        raise LinAlgError(f"{what} failed (LAPACK info {info})")


def _factor(ab):
    """Banded Cholesky factor ``L`` of ``ab``, in place."""
    ab[...], info = dpbtrf(ab, lower=1, overwrite_ab=1)
    _check(info, "banded Cholesky factorization")
    return ab


def _sweep(factor, v, trans="N"):
    """``L^-1 v`` (``trans="N"``) or ``L^-T v`` (``"T"``), band factor ``L``."""
    x, info = dtbtrs(factor, v, uplo="L", trans=trans)
    _check(info, "triangular band solve")
    return x


def _differs(a, ref):
    """Per row: does any entry differ bitwise from the reference?"""
    return (a.view(np.int64) != ref.view(np.int64)).any(axis=1)


class FactorCache:
    """The solver of one sequence of pressure systems on the same grid, with
    factor reuse from one solve to the next.

    The first solve factors the whole band, ``A = L L^T``, and keeps its
    terms, right-hand side and forward vector ``L^-1 rhs`` as the reference.
    A later solve factors only the span ``[a, b]`` of outer-index columns
    whose terms or right-hand side differ bitwise from the reference, both
    columns of a changed cross-column face included (block elimination, one
    level of nested dissection).  Each unchanged strip, ``[0, a)`` and
    ``(b, n)``, thus holds the reference right-hand side and keeps a factor
    ``L`` and a forward vector ``y = L^-1 rhs``: the left strip's are
    prefixes of the reference's, the right strip's are computed once, at the
    first such solve, in reversed cell order, so that in both the column
    coupled to the span comes last.
    With ``L_e`` and ``y_e`` the last blocks of ``L`` and ``y``:

    - the span's band, columns ``[a - 1, b + 1]``, holds each strip's
      coupling column as its Schur complement ``L_e L_e^T`` with right-hand
      side ``L_e y_e``, because ``L^T`` is upper banded and ``(L^-T y)_e =
      L_e^-T y_e``; both blocks are rebuilt only when the span changes;
    - the span's solution ``p`` reaches a strip through its last block only
      (``T`` the coupling transmissibilities): ``L^-1 (rhs + T p) = y +
      [0; L_e^-1 T p]``, so one backward sweep ``L^-T`` solves the strip.

    A wider span uses prefixes of the strips, a narrower one keeps the
    widest so far; one that reaches both ends is a full solve and the new
    reference.
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

    def solve(self, t_x, t_y, k_x, k_y, d, b) -> np.ndarray:
        """Pressure of the five-point TPFA system on a (ny, nx) cell grid whose
        row ``o`` reads ``sum_f t_f (p_o - p_nb) + d_o p_o = b_o + sum_f +-k_f``.

        ``t_x`` (ny, nx-1) and ``t_y`` (ny-1, nx) are the interior face
        transmissibilities; ``k_x``/``k_y`` (same shapes) are known face fluxes
        (gravity, capillarity) from the lower-index cell of each face to the
        other, entering the right-hand side as ``+k`` at the first and ``-k``
        at the second; ``d`` and ``b`` (ny, nx) are the cellwise diagonal and
        right-hand-side terms of Dirichlet boundary faces and sources.  Raises
        SolverError if the system is not positive definite or the solution is
        not finite or leaves a relative residual above :data:`RTOL`."""
        diag = scatter_faces(np.zeros_like(d), t_x, t_x, t_y, t_y)
        diag += d
        rhs = scatter_faces(np.zeros_like(b), k_x, -k_x, k_y, -k_y)
        rhs += b
        transpose = diag.shape[1] > diag.shape[0]  # number the cells along the shorter side
        terms = (diag.T, t_y.T, t_x.T, rhs.T) if transpose else (diag, t_x, t_y, rhs)
        try:
            p = self._solve_banded(*terms)
        except LinAlgError as err:
            raise SolverError(f"pressure system is not positive definite: {err}") from err
        p = p.T.copy() if transpose else p
        ap = _stencil(diag, t_x, t_y, p)
        scale = max(np.abs(rhs).max(), np.abs(ap).max(), 1e-300)
        residual = np.abs(ap - rhs).max() / scale
        if not np.isfinite(p).all() or residual > RTOL:
            raise SolverError(f"pressure solve residual {residual:.3e} exceeds {RTOL:.1e}")
        return p

    def _solve_banded(self, diag, inner, outer, rhs):
        """Solve on ``diag`` (n, m), in-row ``inner`` (n, m-1), row-to-row ``outer`` (n-1, m)."""
        n, m = diag.shape
        self.n_columns = n
        self.solves += 1
        if self.reference is not None:
            ref_diag, ref_inner, ref_outer, ref_rhs = self.reference
            changed = _differs(diag, ref_diag) | _differs(inner, ref_inner) | _differs(rhs, ref_rhs)
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
        # solve() builds diag and rhs for this call; the couplings are the caller's
        self.reference = (diag, inner.copy(), outer.copy(), rhs)
        self.full += 1
        self.columns += n
        return p.reshape(n, m)

    def _solve_span(self, diag, inner, outer, rhs, a, b):
        n, m = diag.shape
        band, forward = self.band, self.forward
        if self.span is None and b < n - 1:
            right = _factor(_band(*(t[b + 1:][::-1, ::-1] for t in (diag, inner, outer)),
                                  band[:, (b + 1) * m:]))
            forward[(b + 1) * m:] = _sweep(right, rhs[b + 1:][::-1, ::-1].ravel())
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
        for _, step, col, cells, low, _ in self.strips:
            ys.append(forward[cells])
            r[col - lo] = (low @ ys[-1][-m:])[::step]
        # the band of [lo, hi] borrows the cells of the left factor's last
        # column and of the right factor's first, kept aside until it is solved
        kept = [band[:, col * m: (col + 1) * m].copy() for _, _, col, *_ in self.strips]
        try:
            mid = _band(diag[lo: hi + 1], inner[lo: hi + 1], outer[lo:hi],
                        band[:, lo * m: (hi + 1) * m])
            for _, _, col, _, _, s in self.strips:
                mid[row - cell, (col - lo) * m + cell] = s[row, cell]
            _, x, info = dpbsv(mid, r.ravel(), lower=1, overwrite_ab=1)
            _check(info, "banded Cholesky solve")
        finally:
            for (_, _, col, *_), block in zip(self.strips, kept):
                band[:, col * m: (col + 1) * m] = block
        p = np.empty((n, m))
        p[a: b + 1] = x.reshape(-1, m)[a - lo: b + 1 - lo]
        # back-substitute each strip: the span's end column couples to its
        # last block only
        for (rows, step, col, cells, low, _), y in zip(self.strips, ys):
            end = col + step
            # low.T is the Fortran-ordered upper triangle, so trans=1 solves low x = v
            v, info = dtrtrs(low.T, (outer[min(col, end)] * p[end])[::step], lower=0, trans=1)
            _check(info, "triangular solve")
            z = y.copy()
            z[-m:] += v
            p[rows] = _sweep(band[:, cells], z, "T").reshape(-1, m)[::step, ::step]
            self.strip_sweeps += 1
        self.columns += hi - lo + 1
        return p


def solve_pressure(
    grid,
    k_field: np.ndarray,
    mu_field: np.ndarray,
    mobility_scale: np.ndarray,
    head_left: float,
    head_right: float,
    *,
    rho: float,
    g: float,
    well_sources: dict | None = None,
    cache: FactorCache | None = None,
) -> FlowField:
    """Solve div( (k/mu) (grad p + rho g e_z) ) = sources with TPFA.

    ``mobility_scale`` multiplies k/mu cellwise (relative-permeability
    scaling in the presence of trapped NAPL).  The heads (m) hold the left
    and right boundaries (:func:`lateral_heads`); top and bottom are
    no-flow.  ``well_sources`` maps cells (i, j) to volumetric rates (m^3/s
    per unit thickness).  ``cache`` carries the factors of earlier solves of
    the same sequence (see :class:`FactorCache`).
    """
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    lam = k_field / mu_field * mobility_scale
    yc = grid.yc
    lam_fx = _harmonic(lam[:, :-1], lam[:, 1:])
    lam_fy = _harmonic(lam[:-1, :], lam[1:, :])
    t_x = lam_fx * dy / dx
    t_y = lam_fy * dx / dy

    d, b = lateral_heads(grid, lam, head_left, head_right, rho, g)
    for (i, j), rate in (well_sources or {}).items():
        b[j, i] += rate

    # y-faces carry the gravity term rho*g*(z_nb - z_o)
    pm = (FactorCache() if cache is None else cache).solve(
        t_x, t_y, np.zeros_like(t_x), t_y * (rho * g * dy), d, b)

    qx = np.zeros((ny, nx + 1))
    qy = np.zeros((ny + 1, nx))
    qx[:, 1:-1] = -lam_fx * (pm[:, 1:] - pm[:, :-1]) / dx
    qy[1:-1, :] = -lam_fy * ((pm[1:, :] - pm[:-1, :]) / dy + rho * g)
    qx[:, 0] = -lam[:, 0] * (pm[:, 0] - rho * g * (head_left - yc)) / (dx / 2.0)
    qx[:, -1] = -lam[:, -1] * (rho * g * (head_right - yc) - pm[:, -1]) / (dx / 2.0)

    return FlowField(pressure=pm, qx=qx, qy=qy)

