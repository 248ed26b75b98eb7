"""Snapshot writers: flat CSV tables and legacy-VTK structured grids."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def write_csv(path, grid, fields: dict[str, np.ndarray]) -> None:
    """One row per cell: x, y, then one column per field (row-major,
    bottom row first, matching the array layout)."""
    xv, yv = grid.cell_centers()
    names = list(fields)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", *names])
        cols = [xv.ravel(), yv.ravel()] + [np.asarray(fields[n]).ravel() for n in names]
        for row in zip(*cols):
            writer.writerow([f"{v:.10g}" for v in row])


def write_vtk(path, grid, fields: dict[str, np.ndarray]) -> None:
    """Legacy-VTK structured points (one point per cell center)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# vtk DataFile Version 3.0",
        "simulation snapshot",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx} {grid.ny} 1",
        f"ORIGIN {grid.dx / 2:.10g} {grid.dy / 2:.10g} 0",
        f"SPACING {grid.dx:.10g} {grid.dy:.10g} 1",
        f"POINT_DATA {grid.nx * grid.ny}",
    ]
    for name, arr in fields.items():
        arr = np.asarray(arr)
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        # one %-format per row: the same text as f"{v:.10g}" per value, faster
        row_format = " ".join(["%.10g"] * arr.shape[-1])
        lines.extend(row_format % tuple(row) for row in arr.tolist())
    path.write_text("\n".join(lines) + "\n")


def write_series_csv(path, header: list[str], rows) -> None:
    """Time-series table (e.g. monitoring-well breakthrough)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])
