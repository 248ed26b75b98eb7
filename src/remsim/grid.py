"""Rectangular domain, uniform cell-centered grid and lithology assignment.

Cell arrays are shaped ``(ny, nx)`` with row 0 at the domain bottom and the
domain's lower-left corner at (0, 0); the flat index of cell (i, j) is
``j*nx + i``.  Lithologies and wells are the config's own records, checked
when the config is read; this module checks only what needs the cells: an
even division (:func:`build_grid`) and a strip covering a column (:func:`strip_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, LithologyCfg, RunConfig, WellCfg

# lithology ids
UPPER_SAND = 0
LOWER_SAND = 1
CLAY = 2


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    dx: float
    dy: float

    @property
    def width(self) -> float:
        return self.nx * self.dx

    @property
    def height(self) -> float:
        return self.ny * self.dy

    @property
    def cell_volume(self) -> float:
        # per unit thickness
        return self.dx * self.dy

    @property
    def xc(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def yc(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.dy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) center coordinate arrays, each shaped (ny, nx)."""
        return np.meshgrid(self.xc, self.yc)


def build_grid(domain_extent: tuple[float, float], resolution: tuple[float, float]) -> Grid:
    """Uniform cell-centered grid covering ``domain_extent`` = (width, height)."""
    width, height = domain_extent
    dx, dy = resolution
    nx = int(round(width / dx))
    ny = int(round(height / dy))
    if abs(nx * dx - width) > 1e-9 * width or abs(ny * dy - height) > 1e-9 * height:
        raise ConfigError("resolution must divide the domain extent evenly")
    return Grid(nx=nx, ny=ny, dx=dx, dy=dy)


@dataclass
class MaterialMap:
    """Per-cell lithology and the properties of each lithology resolved onto
    the cells."""

    grid: Grid
    lithology: np.ndarray          # (ny, nx) int ids
    props: dict[int, LithologyCfg]
    porosity: np.ndarray = field(init=False)
    swr: np.ndarray = field(init=False)
    snr: np.ndarray = field(init=False)
    entry_pressure: np.ndarray = field(init=False)
    bc_lambda: np.ndarray = field(init=False)
    k: np.ndarray = field(init=False)  # heterogeneous permeability (m^2)
    split_elevation: float             # upper/lower layer boundary (m)

    def __post_init__(self) -> None:
        shape = self.lithology.shape

        def resolve(attr: str) -> np.ndarray:
            out = np.empty(shape)
            for lid, p in self.props.items():
                out[self.lithology == lid] = getattr(p, attr)
            return out

        self.porosity = resolve("porosity")
        self.swr = resolve("swr")
        self.snr = resolve("snr")
        self.entry_pressure = resolve("entry_pressure")
        self.bc_lambda = resolve("bc_lambda")
        self.k = resolve("permeability")

    @property
    def sand_mask(self) -> np.ndarray:
        return self.lithology != CLAY

    def layer_mask(self, upper: bool) -> np.ndarray:
        """Cells belonging to the upper/lower layer by center elevation."""
        _, yv = self.grid.cell_centers()
        return yv > self.split_elevation if upper else yv <= self.split_elevation


def assign_lithology(grid: Grid, cfg: RunConfig) -> MaterialMap:
    """Two sand layers split at ``cfg.split_elevation`` plus clay lens rectangles."""
    xv, yv = grid.cell_centers()
    lith = np.where(yv > cfg.split_elevation, UPPER_SAND, LOWER_SAND)
    for x0, y0, x1, y1 in cfg.lenses:
        inside = (xv >= x0) & (xv <= x1) & (yv >= y0) & (yv <= y1)
        lith[inside] = CLAY  # overlapping lenses: clay wins
    return MaterialMap(
        grid=grid,
        lithology=lith,
        props={UPPER_SAND: cfg.upper_sand, LOWER_SAND: cfg.lower_sand, CLAY: cfg.clay},
        split_elevation=cfg.split_elevation,
    )


def locate_well_cells(grid: Grid, well: WellCfg) -> list[tuple[int, int]]:
    """(i, j) cells covered by the screen; single containing cell for short screens."""
    y_center = grid.height - well.depth
    y_lo = y_center - 0.5 * well.screen_length
    y_hi = y_center + 0.5 * well.screen_length
    i = min(int(well.x / grid.dx), grid.nx - 1)
    yc = grid.yc
    rows = [j for j in range(grid.ny) if y_lo <= yc[j] <= y_hi]
    if not rows:
        rows = [min(int(y_center / grid.dy), grid.ny - 1)]
    return [(i, j) for j in rows]


def strip_columns(grid: Grid, center: float, width: float) -> np.ndarray:
    """Column indices of the top-boundary infiltration strip."""
    xc = grid.xc
    cols = np.nonzero(np.abs(xc - center) <= width / 2.0)[0]
    if cols.size == 0:
        raise ConfigError("infiltration strip does not cover any cell column")
    return cols
