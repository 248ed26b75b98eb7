"""Shared scenario setup: grid, lithology, permeability field and well cells
resolved from a RunConfig + seed.  Every stage runner starts here so the
stages agree on geometry bit-for-bit; lithologies and wells stay the
config's own records."""

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
from .twophase import FluidProps


@dataclass
class Scenario:
    config: RunConfig
    seed: int
    grid: Grid
    material: MaterialMap
    fluids: FluidProps
    well_cells: dict[str, list[tuple[int, int]]]
    infil_columns: np.ndarray

    @classmethod
    def build(cls, config: RunConfig, seed: int) -> "Scenario":
        grid = build_grid((config.width, config.height), (config.dx, config.dy))
        material = assign_lithology(grid, config)
        material.k = generate_log_normal_field(
            grid, material, config.log_variance, config.correlation_length, seed
        )
        fluids = FluidProps(
            rho_w=config.rho_w,
            rho_n=config.rho_n,
            mu_w=config.mu_w,
            mu_n=config.mu_n,
            solubility=config.solubility,
            g=config.gravity,
        )
        return cls(
            config=config,
            seed=seed,
            grid=grid,
            material=material,
            fluids=fluids,
            well_cells={name: locate_well_cells(grid, w) for name, w in config.wells.items()},
            infil_columns=strip_columns(grid, config.infil_center, config.infil_width),
        )

    def injection_sources(self) -> dict[tuple[int, int], float]:
        """Volumetric well sources (m^3/s per unit thickness) for injection wells."""
        sources: dict[tuple[int, int], float] = {}
        for name, w in self.config.wells.items():
            if w.mode != "injection" or w.velocity <= 0:
                continue
            cells = self.well_cells[name]
            rate = w.velocity * w.screen_area() / len(cells)
            for cell in cells:
                sources[cell] = sources.get(cell, 0.0) + rate
        return sources

    def monitoring_cells(self) -> dict[str, tuple[int, int]]:
        return {
            name: self.well_cells[name][0]
            for name, w in self.config.wells.items()
            if w.mode == "monitoring"
        }

    def napl_source_field(self) -> np.ndarray:
        """Volumetric NAPL source rate per cell volume (1/s) for the strip."""
        src = np.zeros((self.grid.ny, self.grid.nx))
        # mass flux (kg/m^2/s) over the strip's top area -> volumetric rate
        rate = self.config.infil_flux / (self.fluids.rho_n * self.grid.dy)
        src[-1, self.infil_columns] = rate
        return src
