import pytest

from remsim.config import ConfigError, RunConfig, parse_sections
from remsim.units import UnitError, parse_quantity


class TestUnits:
    def test_si_passthrough(self):
        assert parse_quantity("3.5 m") == 3.5

    def test_velocity_per_day(self):
        assert parse_quantity("88 m/day") == pytest.approx(88.0 / 86400.0, rel=1e-14)

    def test_rate_per_day(self):
        assert parse_quantity("1200 1/day") == pytest.approx(1200.0 / 86400.0, rel=1e-14)

    def test_compound_rate_constant(self):
        # L/h/m^2 -> m^3 per second per m^2
        assert parse_quantity("2.6e-3 L/h/m^2") == pytest.approx(
            2.6e-3 * 1e-3 / 3600.0, rel=1e-14
        )

    def test_area_per_mass(self):
        assert parse_quantity("23 m^2/g") == pytest.approx(2.3e4, rel=1e-14)

    def test_nanometers(self):
        assert parse_quantity("140 nm") == pytest.approx(1.4e-7, rel=1e-14)

    def test_flux_units(self):
        assert parse_quantity("0.001 kg/m^2/s") == pytest.approx(1e-3, rel=1e-14)

    def test_missing_unit_rejected(self):
        with pytest.raises(UnitError):
            parse_quantity("88")

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitError):
            parse_quantity("1 furlong")

    def test_dimensionless(self):
        assert parse_quantity("0.4", dimensionless=True) == 0.4
        assert parse_quantity("0.4 -", dimensionless=True) == 0.4


class TestSectionParser:
    def test_basic(self):
        sec = parse_sections("[a]\nx = 1 m\n# comment\n[b]\ny = 2 s\n")
        assert sec == {"a": {"x": "1 m"}, "b": {"y": "2 s"}}

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_sections("x = 1 m\n")


class TestRunConfig:
    def test_default_loads(self):
        cfg = RunConfig.default()
        assert cfg.width == 35.0 and cfg.height == 12.0
        assert cfg.upper_sand.entry_pressure == 1300.0
        assert cfg.lower_sand.permeability == 0.5e-12
        assert cfg.clay.porosity == 0.25
        assert len(cfg.lenses) == 6
        assert cfg.stage_durations[0] == pytest.approx(135 * 86400.0)
        assert cfg.stage_durations[2] == pytest.approx(8 * 3600.0)

    def test_unknown_key_ignored(self):
        # configs written for older versions still carry [clogging] sand_density
        from tests.test_pipeline import fast_config_text

        text = fast_config_text()
        old = RunConfig.from_text(
            text.replace("[clogging]\n", "[clogging]\nsand_density = 2600 kg/m^3\n"))
        assert "sand_density = 2600 kg/m^3" in old.source_text
        assert old == RunConfig.from_text(text)
        assert not hasattr(old, "sand_density")

    def test_hash_stable(self):
        a, b = RunConfig.default(), RunConfig.default()
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 16

    def test_missing_key(self):
        text = RunConfig.default().source_text.replace("width = 35 m", "")
        with pytest.raises(ConfigError, match="width"):
            RunConfig.from_text(text)

    def test_unitless_physical_quantity_rejected(self):
        text = RunConfig.default().source_text.replace("width = 35 m", "width = 35")
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    def test_lens_outside_domain(self):
        text = RunConfig.default().source_text.replace("x1 = 11.2 m", "x1 = 99 m")
        with pytest.raises(ConfigError, match="lens"):
            RunConfig.from_text(text)

    def test_bad_residuals(self):
        text = RunConfig.default().source_text.replace("swr = 0.08", "swr = 0.95", 1)
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    def test_well_modes(self):
        cfg = RunConfig.default()
        assert cfg.wells["injection"].mode == "injection"
        assert cfg.wells["monitoring"].velocity == 0.0
