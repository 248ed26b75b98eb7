import re

import pytest

from remsim.config import ConfigError, RunConfig, parse_sections
from remsim.units import UnitError, parse_quantity


class TestUnits:
    def test_si_passthrough(self):
        assert parse_quantity("3.5 m", "m") == 3.5

    def test_velocity_per_day(self):
        assert parse_quantity("88 m/day", "m/s") == pytest.approx(88.0 / 86400.0, rel=1e-14)

    def test_rate_per_day(self):
        assert parse_quantity("1200 1/day", "1/s") == pytest.approx(1200.0 / 86400.0, rel=1e-14)

    def test_compound_rate_constant(self):
        # L/h/m^2 -> m^3 per second per m^2
        assert parse_quantity("2.6e-3 L/h/m^2", "m^3/m^2/s") == pytest.approx(
            2.6e-3 * 1e-3 / 3600.0, rel=1e-14
        )

    def test_area_per_mass(self):
        assert parse_quantity("23 m^2/g", "m^2/kg") == pytest.approx(2.3e4, rel=1e-14)

    def test_nanometers(self):
        assert parse_quantity("140 nm", "m") == pytest.approx(1.4e-7, rel=1e-14)

    def test_flux_units(self):
        assert parse_quantity("0.001 kg/m^2/s", "kg/m^2/s") == pytest.approx(1e-3, rel=1e-14)

    def test_missing_unit_rejected(self):
        with pytest.raises(UnitError, match=re.escape("88 is dimensionless, expected m s^-1")):
            parse_quantity("88", "m/s")

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitError):
            parse_quantity("1 furlong", "m")

    def test_dimensionless(self):
        assert parse_quantity("0.4", "-") == 0.4
        assert parse_quantity("0.4 -", "-") == 0.4
        for unit in ("m", "m/m"):
            with pytest.raises(UnitError):
                parse_quantity(f"0.4 {unit}", "-")

    @pytest.mark.parametrize("text, unit, message", [
        ("35 Pa", "m", "35 Pa is kg m^-1 s^-2, expected m"),
        ("1e-20 J", "Pa*s", "1e-20 J is m^2 kg s^-2, expected kg m^-1 s^-1"),
        ("293 K", "-", "293 K is K, expected dimensionless"),
        ("1200 1/day", "m", "1200 1/day is s^-1, expected m"),
    ])
    def test_both_dimensions_named(self, text, unit, message):
        with pytest.raises(UnitError, match=re.escape(message)):
            parse_quantity(text, unit)


class TestSectionParser:
    def test_basic(self):
        sec = parse_sections("[a]\nx = 1 m\n# comment\n[b]\ny = 2 s\n")
        assert sec == {"a": {"x": "1 m"}, "b": {"y": "2 s"}}

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_sections("x = 1 m\n")

    @pytest.mark.parametrize("text, message", [
        ("[a]\nx = 1 m\ny = 2 s\nx = 3 m\n", "line 4: [a] x given twice"),
        ("[a]\nx = 1 m\n[b]\ny = 2 s\n[a]\nz = 3 m\n", "line 5: section [a] given twice"),
    ], ids=["key", "section"])
    def test_repeat_refused(self, text, message):
        # a second value would silently override the first
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_sections(text)
        # one key name in two sections is two keys
        assert parse_sections("[a]\nx = 1 m\n[b]\nx = 2 m\n") == {"a": {"x": "1 m"},
                                                                   "b": {"x": "2 m"}}


def set_key(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``key`` of ``[section]`` set to ``value``."""
    out, n = re.subn(rf"(^\[{re.escape(section)}\]\n[^\[]*?^){key} = [^\n]*",
                     rf"\g<1>{key} = {value}", text, count=1, flags=re.M | re.S)
    assert n == 1, (section, key)
    return out


# (section, key, value) of every physics value the model cannot run with
BAD_VALUES = {
    "dispersivity=nan": ("transport", "dispersivity", "nan m"),
    "dispersivity<0": ("transport", "dispersivity", "-0.02 m"),
    "diffusion<0": ("transport", "diffusion", "-1e-8 m^2/s"),
    "mass_transfer<0": ("transport", "mass_transfer", "-1200 1/day"),
    "nzvi_concentration<0": ("nzvi", "concentration", "-0.2 kg/m^3"),
    "particle_diameter=0": ("nzvi", "particle_diameter", "0 nm"),
    "particle_density=0": ("nzvi", "particle_density", "0 kg/m^3"),
    "attachment_efficiency>1": ("nzvi", "attachment_efficiency", "1.5"),
    "attachment_efficiency<0": ("nzvi", "attachment_efficiency", "-0.02"),
    "temperature=0": ("nzvi", "temperature", "0 K"),
    "hamaker=0": ("nzvi", "hamaker", "0 J"),
    "cmc_concentration=0": ("cmc", "concentration", "0 kg/m^3"),
    "solution_viscosity=0": ("cmc", "solution_viscosity", "0 Pa*s"),
    "a0=0": ("clogging", "a0", "0 1/m"),
    "zvi_specific_area=0": ("clogging", "zvi_specific_area", "0 1/m"),
    "gamma=0": ("clogging", "gamma", "0"),
    "gamma>1": ("clogging", "gamma", "1.5"),
    "k_sa<0": ("reaction", "k_sa", "-2.6e-3 L/h/m^2"),
    "alpha_s<0": ("reaction", "alpha_s", "-23 m^2/g"),
    "stoichiometry<0": ("reaction", "stoichiometry", "-0.85"),
    "stoichiometry=0": ("reaction", "stoichiometry", "0"),
    "water_density<0": ("fluids", "water_density", "-1000 kg/m^3"),
    "tce_density=0": ("fluids", "tce_density", "0 kg/m^3"),
    "water_viscosity=0": ("fluids", "water_viscosity", "0 Pa*s"),
    "tce_viscosity=0": ("fluids", "tce_viscosity", "0 Pa*s"),
    "solubility=0": ("fluids", "solubility", "0 kg/m^3"),
    "gravity=0": ("fluids", "gravity", "0 m/s^2"),
    "snapshot<0": ("output", "stage2_snapshots", "-5 day"),
    "snapshot=nan": ("output", "stage2_snapshots", "nan day"),
    "snapshot=0": ("output", "stage2_snapshots", "0 day"),
    "snapshot=abc": ("output", "stage2_snapshots", "abc year"),
    "snapshot_unit_unknown": ("output", "stage2_snapshots", "0.1 furlong"),
    "screen_length<0": ("well.injection", "screen_length", "-0.02 m"),
    "swr<0": ("upper_sand", "swr", "-0.05"),
    "porosity=1": ("lower_sand", "porosity", "1"),
    "head_left=inf": ("flow", "head_left", "inf m"),
    "infiltration_flux<0": ("infiltration", "flux", "-0.001 kg/m^2/s"),
    "infiltration_duration<0": ("infiltration", "duration", "-5 day"),
    "infiltration_width=0": ("infiltration", "width", "0 m"),
    "dx=0": ("grid", "dx", "0 m"),
    "height=0": ("domain", "height", "0 m"),
    "well_x>width": ("well.injection", "x", "40 m"),
    # the 0.02 m screen reaches 5 mm above the top, or below the 12 m bottom
    "screen_above_top": ("well.injection", "depth", "0.005 m"),
    "screen_below_bottom": ("well.monitoring", "depth", "11.995 m"),
}

DEFAULT_TEXT = RunConfig.default().source_text
# every key of default.cfg
DEFAULT_KEYS = [(section, key, value)
                for section, values in parse_sections(DEFAULT_TEXT).items()
                for key, value in values.items()]


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
        # configs written for older versions still carry [clogging]
        # sand_density, a mode in each [well.<name>] and a [numerics] section,
        # whose values are code constants now
        from tests.test_pipeline import fast_config_text

        text = fast_config_text()
        old = RunConfig.from_text(
            text.replace("[clogging]\n", "[clogging]\nsand_density = 2600 kg/m^3\n")
            .replace("[well.injection]\n", "[well.injection]\nmode = injection\n")
            .replace("[well.monitoring]\n", "[well.monitoring]\nmode = monitoring\n")
            .replace("[output]\n", "[numerics]\ntransport_cfl = 0.5\n\n[output]\n"))
        assert "sand_density = 2600 kg/m^3" in old.source_text
        assert "mode = monitoring" in old.source_text
        assert "transport_cfl = 0.5" in old.source_text
        assert old == RunConfig.from_text(text)
        assert not hasattr(old, "sand_density")

    def test_hash_stable(self):
        a, b = RunConfig.default(), RunConfig.default()
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 16

    @pytest.mark.parametrize("section, key, value", DEFAULT_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in DEFAULT_KEYS])
    def test_every_key_required(self, section, key, value):
        text, n = re.subn(rf"(^\[{re.escape(section)}\]\n[^\[]*?^){key} = [^\n]*\n", r"\g<1>",
                          DEFAULT_TEXT, count=1, flags=re.M | re.S)
        assert n == 1
        with pytest.raises(ConfigError, match=rf"^missing \[{re.escape(section)}\] {key}$"):
            RunConfig.from_text(text)

    def test_missing_key(self):
        text = RunConfig.default().source_text
        for old, new, key in (("width = 35 m", "", "width"),
                              ("stage2_snapshots =", "old_stage2_snapshots =", "stage2_snapshots")):
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_text(text.replace(old, new))

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

    @pytest.mark.parametrize("section, key, value", BAD_VALUES.values(), ids=BAD_VALUES)
    def test_value_rejected_at_load(self, section, key, value):
        text = set_key(RunConfig.default().source_text, section, key, value)
        with pytest.raises(ConfigError, match=section):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("section, key, value", DEFAULT_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in DEFAULT_KEYS])
    def test_wrong_dimension_rejected(self, section, key, value):
        # a dimensionless key gets a length, a physical one a temperature
        # (a temperature a length); a list is cut to its first item
        number, _, unit = value.split(",")[0].partition(" ")
        wrong = "m" if unit in ("", "K") else "K"
        text = set_key(DEFAULT_TEXT, section, key, f"{number} {wrong}")
        with pytest.raises(ConfigError, match=rf"^\[{re.escape(section)}\] {key}: "
                                              rf"{re.escape(number)} {wrong} is {wrong}, expected \S"):
            RunConfig.from_text(text)

    def test_range_ends_accepted(self):
        text = RunConfig.default().source_text
        for section, key, value in (("clogging", "gamma", "1"),
                                    ("nzvi", "attachment_efficiency", "1"),
                                    ("nzvi", "concentration", "0 kg/m^3"),
                                    ("reaction", "k_sa", "0 L/h/m^2"),
                                    ("transport", "diffusion", "0 m^2/s"),
                                    ("upper_sand", "swr", "0"),
                                    ("infiltration", "flux", "0 kg/m^2/s"),
                                    ("infiltration", "duration", "0 day"),
                                    # past the stage's end: loads, writes nothing
                                    ("output", "stage2_snapshots", "99 year")):
            text = set_key(text, section, key, value)
        cfg = RunConfig.from_text(text)
        assert cfg.clogging.gamma == 1.0 and cfg.reaction.k_sa == 0.0

    def test_sections_are_records(self):
        cfg = RunConfig.default()
        assert cfg.transport.mass_transfer == pytest.approx(1200.0 / 86400.0, rel=1e-14)
        assert cfg.nzvi.particle_diameter == pytest.approx(1.4e-7, rel=1e-14)
        assert cfg.cmc.solution_viscosity == 0.0027
        assert cfg.clogging.gamma == 1.04e-3
        assert cfg.reaction.alpha_s == pytest.approx(2.3e4, rel=1e-14)

    def test_well_roles(self):
        # [well.injection] is the injection well; every other well monitors
        cfg = RunConfig.default()
        assert cfg.injection_velocity == pytest.approx(88.0 / 86400.0, rel=1e-14)
        assert list(cfg.monitors) == ["monitoring"]
        assert cfg.monitors["monitoring"].x == 27.0
