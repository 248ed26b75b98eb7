"""Snapshot writers: flat CSV tables and legacy-VTK structured grids."""

from __future__ import annotations

import csv
from functools import lru_cache
from pathlib import Path

import numpy as np


def _write_table(path, header: list[str], lines) -> None:
    """The header row through csv.writer, then the formatted data lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(lines))


def _row_format(columns: int) -> str:
    """One %-format per row of numbers: the same text as csv.writer with
    f"{v:.10g}" per value, faster."""
    return ",".join(["%.10g"] * columns) + "\r\n"


@lru_cache(maxsize=4)
def _xy_text(grid) -> tuple[str, ...]:
    """Each cell's ``x,y,`` row prefix in :func:`write_csv`, row-major.  The
    cell centers are the mesh of ``xc`` and ``yc``, so each coordinate is
    formatted once, and the grid, the same for every snapshot of a run, once
    per run."""
    xs, ys = (["%.10g," % v for v in axis.tolist()] for axis in (grid.xc, grid.yc))
    return tuple(x + y for y in ys for x in xs)


def write_csv(path, grid, fields: dict[str, np.ndarray]) -> None:
    """One row per cell: x, y, then one column per field (row-major,
    bottom row first, matching the array layout)."""
    xy = _xy_text(grid)
    columns = [f.ravel().tolist() for f in fields.values()]
    for column in columns:
        if len(column) != len(xy):
            raise ValueError(f"fields of {len(column)} cells on a grid of {len(xy)}")
    row_format = "%s" + _row_format(len(fields))
    _write_table(path, ["x", "y", *fields], (row_format % row for row in zip(xy, *columns)))


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
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        # one %-format per row: the same text as f"{v:.10g}" per value, faster
        row_format = " ".join(["%.10g"] * arr.shape[-1])
        lines.extend(row_format % tuple(row) for row in arr.tolist())
    path.write_text("\n".join(lines) + "\n")


def write_series_csv(path, header: list[str], rows) -> None:
    """Time-series table (e.g. monitoring-well breakthrough)."""
    row_format = _row_format(len(header))
    _write_table(path, header, (row_format % tuple(row) for row in rows))
