import csv
import io

import numpy as np

from remsim.export import write_csv, write_series_csv, write_vtk
from remsim.grid import build_grid


def test_csv_rows_and_header(tmp_path):
    g = build_grid((1.0, 1.0), (0.5, 0.5))
    sn = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "snap.csv"
    write_csv(path, g, {"sn": sn})
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "sn"]
    assert len(rows) == 5
    assert rows[1] == ["0.25", "0.25", "0.1"]
    assert rows[4] == ["0.75", "0.75", "0.4"]


def test_csv_multiple_fields(tmp_path):
    g = build_grid((1.0, 0.5), (0.5, 0.5))
    path = tmp_path / "two.csv"
    write_csv(path, g, {"a": np.array([[1.0, 2.0]]), "b": np.array([[3.0, 4.0]])})
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "a", "b"]
    assert rows[2] == ["0.75", "0.25", "2", "4"]


def test_vtk_structure(tmp_path):
    g = build_grid((1.0, 1.0), (0.5, 0.5))
    path = tmp_path / "snap.vtk"
    write_vtk(path, g, {"sn": np.arange(4.0).reshape(2, 2)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DIMENSIONS 2 2 1" in text
    assert "ORIGIN 0.25 0.25 0" in text
    assert "SPACING 0.5 0.5 1" in text
    assert "POINT_DATA 4" in text
    assert "SCALARS sn double 1" in text
    i = text.index("LOOKUP_TABLE default")
    values = " ".join(text[i + 1: i + 3]).split()
    assert values == ["0", "1", "2", "3"]


def test_series_csv(tmp_path):
    path = tmp_path / "probe.csv"
    write_series_csv(path, ["t", "c"], [[0.0, 0.0], [10.0, 0.5]])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["t", "c"], ["0", "0"], ["10", "0.5"]]


def test_csv_matches_csv_writer_per_value_format(tmp_path):
    g = build_grid((3.0, 2.0), (1.0, 1.0))
    a = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 1e-300]])
    b = np.array([[1e300, -1.5, 2.0 / 3.0], [7.0, 1e-5, -123456789012.5]])
    path = tmp_path / "snap.csv"
    write_csv(path, g, {"a": a, "b": b})
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "y", "a", "b"])
    xv, yv = g.cell_centers()
    for row in zip(xv.ravel(), yv.ravel(), a.ravel(), b.ravel()):
        writer.writerow([f"{v:.10g}" for v in row])
    assert path.read_bytes() == expected.getvalue().encode()


def test_vtk_values_match_per_value_format(tmp_path):
    g = build_grid((3.0, 3.0), (1.0, 1.0))
    arr = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 1e-300], [1e300, -1.5, 2.0 / 3.0]])
    path = tmp_path / "snap.vtk"
    write_vtk(path, g, {"v": arr})
    text = path.read_text().splitlines()
    i = text.index("LOOKUP_TABLE default")
    assert text[i + 1:] == [" ".join(f"{v:.10g}" for v in row) for row in arr]
