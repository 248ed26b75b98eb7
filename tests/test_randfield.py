import numpy as np
import pytest

from remsim.config import LithologyCfg, RunConfig
from remsim.grid import CLAY, LOWER_SAND, UPPER_SAND, MaterialMap, assign_lithology, build_grid
from remsim.randfield import generate_log_normal_field


def reference_field(grid, material, log_variance, correlation_length, seed):
    """The per-layer generator the shared spectrum replaced: each sand layer
    rebuilds the embedding's spectrum and takes a full 2D transform."""
    k = material.k.copy()
    for lid, props in material.props.items():
        mask = material.lithology == lid
        if lid == CLAY or not mask.any():
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, lid]))
        m, n = 2 * grid.ny, 2 * grid.nx
        jy = np.minimum(np.arange(m), m - np.arange(m)) * grid.dy
        jx = np.minimum(np.arange(n), n - np.arange(n)) * grid.dx
        cov = np.exp(-np.hypot(jx[None, :], jy[:, None]) / correlation_length)
        lam = np.maximum(np.fft.fft2(cov).real, 0.0)
        xi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        z = np.fft.fft2(np.sqrt(lam / (m * n)) * xi).real[: grid.ny, : grid.nx][mask]
        k[mask] = props.permeability * np.exp(np.sqrt(log_variance) * (z - z.mean()))
    return k


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



@pytest.mark.parametrize("extent", [(7.0, 2.2), (1.8, 6.6)], ids=["wide", "tall"])
def test_matches_per_layer_reference_bitwise(extent):
    g = build_grid(extent, (0.2, 0.2))
    lith = np.full((g.ny, g.nx), LOWER_SAND)
    lith[g.ny // 2:, :] = UPPER_SAND
    lith[2:4, 1:5] = CLAY
    props = {UPPER_SAND: LithologyCfg(2e-11, 0.35, 0.08, 0.08, 1300.0, 2.0),
             LOWER_SAND: LithologyCfg(5e-12, 0.3, 0.08, 0.08, 1900.0, 2.0),
             CLAY: LithologyCfg(5e-14, 0.25, 0.189, 0.04, 3.2e4, 2.0)}
    m = MaterialMap(grid=g, lithology=lith, props=props)
    for seed in (0, 9):
        k = generate_log_normal_field(g, m, 0.3, 0.7, seed)
        assert k.tobytes() == reference_field(g, m, 0.3, 0.7, seed).tobytes()
