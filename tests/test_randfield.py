import numpy as np
import pytest

from remsim.config import RunConfig
from remsim.grid import CLAY, assign_lithology, build_grid
from remsim.randfield import generate_log_normal_field


@pytest.fixture(scope="module")
def material():
    cfg = RunConfig.default()
    g = build_grid((cfg.width, cfg.height), (cfg.dx, cfg.dy))
    return g, assign_lithology(g, cfg)


class TestGenerate:
    def test_zero_variance_is_constant(self, material):
        g, m = material
        k = generate_log_normal_field(g, m, 0.0, 1.0, 7)
        for lid, props in m.props.items():
            assert (k[m.lithology == lid] == props.permeability).all()

    def test_deterministic_for_seed(self, material):
        g, m = material
        a = generate_log_normal_field(g, m, 0.2, 1.0, 42)
        b = generate_log_normal_field(g, m, 0.2, 1.0, 42)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self, material):
        g, m = material
        a = generate_log_normal_field(g, m, 0.2, 1.0, 1)
        b = generate_log_normal_field(g, m, 0.2, 1.0, 2)
        assert not np.array_equal(a, b)

    def test_clay_untouched(self, material):
        g, m = material
        k = generate_log_normal_field(g, m, 0.2, 1.0, 3)
        assert (k[m.lithology == CLAY] == 5e-14).all()

    def test_positive_everywhere(self, material):
        g, m = material
        k = generate_log_normal_field(g, m, 0.2, 1.0, 5)
        assert (k > 0).all()

    def test_sample_variance_in_band(self, material):
        # 3-sigma band for the sample variance of ln k over >= 1e4 cells
        g, m = material
        sand = m.lithology != CLAY
        assert sand.sum() >= 1e4
        variances = []
        for seed in range(5):
            k = generate_log_normal_field(g, m, 0.2, 1.0, seed)
            for lid in (0, 1):
                variances.append(np.log(k[m.lithology == lid]).var())
        assert 0.16 <= np.mean(variances) <= 0.24

    def test_geometric_mean_anchored(self, material):
        g, m = material
        k = generate_log_normal_field(g, m, 0.2, 1.0, 11)
        for lid, props in m.props.items():
            if lid == CLAY:
                continue
            gmean = np.exp(np.log(k[m.lithology == lid]).mean())
            assert gmean == pytest.approx(props.permeability, rel=0.05)

    def test_correlation_decays(self, material):
        g, m = material
        k = generate_log_normal_field(g, m, 0.2, 1.0, 13)
        lnk = np.log(k)
        row = lnk[10, :]  # a lower-sand row away from lenses
        row = row - row.mean()

        def corr(lag):
            return float(np.mean(row[:-lag] * row[lag:]) / np.mean(row * row))

        assert corr(2) > corr(25)
        assert abs(corr(100)) < 0.4

