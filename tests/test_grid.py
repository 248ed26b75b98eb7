import numpy as np
import pytest

from remsim.config import ConfigError, RunConfig
from remsim.grid import (
    CLAY,
    LOWER_SAND,
    UPPER_SAND,
    WellSpec,
    assign_lithology,
    build_grid,
    locate_well_cells,
    strip_columns,
)


@pytest.fixture(scope="module")
def cfg():
    return RunConfig.default()


class TestBuildGrid:
    def test_paper_domain(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        assert (g.nx, g.ny) == (175, 60)
        assert g.nx * g.ny == 10500

    def test_tiny(self):
        g = build_grid((1.0, 1.0), (0.5, 0.5))
        assert (g.nx, g.ny) == (2, 2)

    def test_fine(self):
        g = build_grid((35.0, 12.0), (0.1, 0.1))
        assert (g.nx, g.ny) == (350, 120)
        assert g.width * g.height == pytest.approx(420.0)

    def test_uneven_resolution_rejected(self):
        with pytest.raises(ConfigError):
            build_grid((35.0, 12.0), (0.3, 0.2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            build_grid((35.0, 12.0), (0.0, 0.2))


class TestLithology:
    def test_every_cell_assigned(self, cfg):
        g = build_grid((cfg.width, cfg.height), (cfg.dx, cfg.dy))
        m = assign_lithology(g, cfg)
        assert set(np.unique(m.lithology)) <= {UPPER_SAND, LOWER_SAND, CLAY}

    def test_table_values_resolved_exactly(self, cfg):
        g = build_grid((cfg.width, cfg.height), (cfg.dx, cfg.dy))
        m = assign_lithology(g, cfg)
        assert (m.entry_pressure[m.lithology == UPPER_SAND] == 1300.0).all()
        assert (m.porosity[m.lithology == CLAY] == 0.25).all()
        assert (m.k[m.lithology == CLAY] == 5e-14).all()
        assert (m.swr[m.lithology == LOWER_SAND] == 0.04).all()

    def test_zero_lenses_all_sand(self, cfg):
        import re

        text = re.sub(r"\[lens\.\d\]\n(?:[a-z0-9]+ = [^\n]+\n)+", "", cfg.source_text)
        cfg2 = RunConfig.from_text(text)
        g = build_grid((cfg2.width, cfg2.height), (cfg2.dx, cfg2.dy))
        m = assign_lithology(g, cfg2)
        assert not (m.lithology == CLAY).any()

    def test_lens_interior_is_clay(self, cfg):
        g = build_grid((cfg.width, cfg.height), (cfg.dx, cfg.dy))
        m = assign_lithology(g, cfg)
        x0, y0, x1, y1 = cfg.lenses[0]
        i = int(((x0 + x1) / 2) / g.dx)
        j = int(((y0 + y1) / 2) / g.dy)
        assert m.lithology[j, i] == CLAY

    def test_layer_split(self, cfg):
        g = build_grid((cfg.width, cfg.height), (cfg.dx, cfg.dy))
        m = assign_lithology(g, cfg)
        assert m.lithology[0, 0] == LOWER_SAND
        assert m.lithology[-1, 0] == UPPER_SAND

    def test_deterministic(self, cfg):
        g = build_grid((cfg.width, cfg.height), (cfg.dx, cfg.dy))
        a = assign_lithology(g, cfg)
        b = assign_lithology(g, cfg)
        assert (a.lithology == b.lithology).all()


class TestWells:
    def test_short_screen_single_cell(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        w = WellSpec(x=20.0, depth=6.6, screen_length=0.02, mode="injection")
        cells = locate_well_cells(g, w)
        assert len(cells) == 1
        i, j = cells[0]
        # screen center at y = 12 - 6.6 = 5.4 m
        assert g.yc[j] == pytest.approx(5.5) or abs(g.yc[j] - 5.4) <= 0.1

    def test_wells_seven_meters_apart(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        inj = locate_well_cells(g, WellSpec(20.0, 6.6, 0.02, "injection"))
        mon = locate_well_cells(g, WellSpec(27.0, 6.6, 0.02, "monitoring"))
        assert inj[0][0] != mon[0][0]
        assert (mon[0][0] - inj[0][0]) * g.dx == pytest.approx(7.0)

    def test_long_screen_two_cells(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        w = WellSpec(x=20.0, depth=6.6, screen_length=0.4, mode="injection")
        assert len(locate_well_cells(g, w)) == 2

    def test_outside_domain(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        with pytest.raises(ConfigError):
            locate_well_cells(g, WellSpec(40.0, 6.6, 0.02, "injection"))


def test_strip_columns_width():
    g = build_grid((35.0, 12.0), (0.2, 0.2))
    cols = strip_columns(g, 10.0, 2.0)
    assert cols.size == 10
    assert np.all(np.abs(g.xc[cols] - 10.0) <= 1.0)
