"""Shared scenario setup: grid, lithology, permeability field and well cells
resolved from a RunConfig + seed.  Every stage runner starts here so the
stages agree on geometry bit-for-bit; lithologies and wells stay the
config's own records, and the fluid values are read from the config."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .grid import (
    Grid,
    MaterialMap,
    assign_lithology,
    build_grid,
    locate_well_cells,
    strip_columns,
)
from .randfield import generate_log_normal_field


@dataclass
class Scenario:
    config: RunConfig
    seed: int
    grid: Grid
    material: MaterialMap
    injection_cells: list[tuple[int, int]]
    monitor_cells: dict[str, tuple[int, int]]    # name -> screen cell
    infil_columns: np.ndarray

    @classmethod
    def build(cls, config: RunConfig, seed: int) -> "Scenario":
        grid = build_grid((config.width, config.height), (config.dx, config.dy))
        material = assign_lithology(grid, config)
        material.k = generate_log_normal_field(
            grid, material, config.log_variance, config.correlation_length, seed
        )
        return cls(
            config=config,
            seed=seed,
            grid=grid,
            material=material,
            injection_cells=locate_well_cells(grid, config.injection),
            monitor_cells={name: locate_well_cells(grid, w)[0]
                           for name, w in config.monitors.items()},
            infil_columns=strip_columns(grid, config.infil_center, config.infil_width),
        )

    def injection_sources(self) -> dict[tuple[int, int], float]:
        """Volumetric sources (m^3/s per unit thickness) of the injection
        well's screen cells."""
        w, cells = self.config.injection, self.injection_cells
        rate = w.velocity * w.screen_area() / len(cells)
        return {cell: rate for cell in cells}

    def napl_source_field(self) -> np.ndarray:
        """Volumetric NAPL source rate per cell volume (1/s) for the strip."""
        src = np.zeros((self.grid.ny, self.grid.nx))
        # mass flux (kg/m^2/s) over the strip's top area -> volumetric rate
        rate = self.config.infil_flux / (self.config.rho_n * self.grid.dy)
        src[-1, self.infil_columns] = rate
        return src
