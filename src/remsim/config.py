"""Run configuration: sectioned key=value files with explicit units.

The parser is deliberately small: sections in brackets, one ``key = value``
per line, ``#`` comments.  Everything is converted to SI on load.

Each config value is declared once, in the metadata of the dataclass field
that holds it (:func:`quantity`): its unit, whose dimension the value must
have, and the interval it must lie in.  A bare number is accepted only
where that unit is dimensionless (``-``).  Each lithology and physics
section is read into one frozen record whose fields are named after the
section's keys; the flat :class:`RunConfig` fields name their section and
key.  :meth:`RunConfig.from_text` reads every value through one checked
reader, so a value of the wrong dimension, outside its interval or not
finite fails when the file is read, naming its section and key.  The
kernels take the records as they are.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from importlib import resources

from .units import parse_quantity


class ConfigError(ValueError):
    """Raised for malformed or physically invalid configuration."""


def parse_sections(text: str) -> dict[str, dict[str, str]]:
    """Parse the raw section/key/value structure, keeping values as strings.
    A section header or a key within one section given twice is refused."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"line {lineno}: section [{name}] given twice")
            current = sections[name] = {}
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise ConfigError(f"line {lineno}: [{name}] {key} given twice")
        current[key] = value.strip()
    return sections


def quantity(unit: str, interval: str = "(-inf, inf)", at: tuple[str, str] | None = None):
    """A field read from the config: a value of ``unit``'s dimension lying in
    ``interval`` (``(`` and ``)`` open, ``[`` and ``]`` closed); ``at`` is the
    ``(section, key)`` of a field not named after a key of its record's
    section.  Every declared key is required."""
    return field(metadata={"unit": unit, "interval": interval, "at": at})


def _within(value: float, interval: str) -> bool:
    # no interval includes an infinite end, and NaN compares false, so a
    # value that is not finite is never within
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


@dataclass(frozen=True)
class LithologyCfg:
    """Hydrogeological properties of one lithological unit."""

    permeability: float = quantity("m^2", "(0, inf)")    # geometric mean
    porosity: float = quantity("-", "(0, 1)")
    swr: float = quantity("-", "[0, 1)")
    snr: float = quantity("-", "[0, 1)")
    entry_pressure: float = quantity("Pa", "(0, inf)")
    bc_lambda: float = quantity("-", "(0, inf)")


@dataclass(frozen=True)
class TransportCfg:
    """[transport]: dispersion of every aqueous species and NAPL dissolution."""

    dispersivity: float = quantity("m", "[0, inf)")      # longitudinal alpha_L
    diffusion: float = quantity("m^2/s", "[0, inf)")     # molecular Dd
    # lumped volumetric NAPL mass-transfer coefficient
    mass_transfer: float = quantity("1/s", "[0, inf)")


@dataclass(frozen=True)
class NzviCfg:
    """[nzvi]: the injected particles and their filtration."""

    concentration: float = quantity("kg/m^3", "[0, inf)")         # injected, aqueous
    particle_diameter: float = quantity("m", "(0, inf)")          # dp
    attachment_efficiency: float = quantity("-", "[0, 1]")        # alpha
    particle_density: float = quantity("kg/m^3", "(0, inf)")      # rho_p
    temperature: float = quantity("K", "(0, inf)")
    hamaker: float = quantity("J", "(0, inf)")                    # Hamaker constant A


@dataclass(frozen=True)
class CmcCfg:
    """[cmc]: the polymer carrier solution."""

    concentration: float = quantity("kg/m^3", "(0, inf)")         # injected CMC
    solution_viscosity: float = quantity("Pa*s", "(0, inf)")      # at that concentration


@dataclass(frozen=True)
class CloggingCfg:
    """[clogging]: specific-surface growth of the clogging feedback."""

    a0: float = quantity("1/m", "(0, inf)")                 # clean-bed specific surface
    zvi_specific_area: float = quantity("1/m", "(0, inf)")  # deposited-particle specific surface
    gamma: float = quantity("-", "(0, 1]")                  # deposit surface exposed to flow


@dataclass(frozen=True)
class ReactionCfg:
    """[reaction]: degradation on the iron, at the rate k_sa * alpha_s per
    unit iron concentration."""

    k_sa: float = quantity("m^3/m^2/s", "[0, inf)")    # surface-area-normalized rate constant
    alpha_s: float = quantity("m^2/kg", "[0, inf)")    # reactive surface per unit iron mass
    stoichiometry: float = quantity("-", "(0, inf)")   # kg iron per kg contaminant degraded


@dataclass(frozen=True)
class WellCfg:
    """Vertical well with a short screen; depths measured from the surface."""

    x: float = quantity("m")
    depth: float = quantity("m")
    screen_length: float = quantity("m", "(0, inf)")

    def screen_area(self) -> float:
        # both faces of the screen per unit thickness of the 2D slice
        return 2.0 * self.screen_length


@dataclass(frozen=True)
class RunConfig:
    width: float = quantity("m", "(0, inf)", ("domain", "width"))
    height: float = quantity("m", "(0, inf)", ("domain", "height"))
    dx: float = quantity("m", "(0, inf)", ("grid", "dx"))
    dy: float = quantity("m", "(0, inf)", ("grid", "dy"))
    split_elevation: float = quantity("m", at=("layers", "split_elevation"))
    upper_sand: LithologyCfg
    lower_sand: LithologyCfg
    clay: LithologyCfg
    # corners (x0, y0, x1, y1) of [lens.1], [lens.2], ...
    lenses: tuple[tuple[float, float, float, float], ...] = quantity("m")
    infil_center: float = quantity("m", at=("infiltration", "center"))
    infil_width: float = quantity("m", "(0, inf)", ("infiltration", "width"))
    infil_flux: float = quantity("kg/m^2/s", "[0, inf)", ("infiltration", "flux"))
    infil_duration: float = quantity("s", "[0, inf)", ("infiltration", "duration"))
    log_variance: float = quantity("-", "[0, inf)", ("randfield", "log_variance"))
    correlation_length: float = quantity("m", "(0, inf)", ("randfield", "correlation_length"))
    rho_w: float = quantity("kg/m^3", "(0, inf)", ("fluids", "water_density"))
    rho_n: float = quantity("kg/m^3", "(0, inf)", ("fluids", "tce_density"))
    mu_w: float = quantity("Pa*s", "(0, inf)", ("fluids", "water_viscosity"))
    mu_n: float = quantity("Pa*s", "(0, inf)", ("fluids", "tce_viscosity"))
    solubility: float = quantity("kg/m^3", "(0, inf)", ("fluids", "solubility"))
    gravity: float = quantity("m/s^2", "(0, inf)", ("fluids", "gravity"))
    head_left: float = quantity("m", at=("flow", "head_left"))
    head_right: float = quantity("m", at=("flow", "head_right"))
    # [well.injection], the one injection well, and every other [well.<name>],
    # which only probes concentrations and has no velocity
    injection: WellCfg
    # Darcy velocity of the injectate at the injection well's screen
    injection_velocity: float = quantity("m/s", "[0, inf)", ("well.injection", "velocity"))
    monitors: dict[str, WellCfg]
    transport: TransportCfg
    nzvi: NzviCfg
    cmc: CmcCfg
    clogging: CloggingCfg
    reaction: ReactionCfg
    # [stages] stage1_duration ... stage4_duration
    stage_durations: tuple[float, float, float, float] = quantity("s", "[0, inf)")
    # [output] stage1_snapshots ...: times after the stage start; one past
    # the stage's end writes nothing
    snapshots: tuple[tuple[float, ...], ...] = quantity("s", "(0, inf)")
    # canonical source text, for hashing
    source_text: str = field(default="", compare=False)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()[:16]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        sec = parse_sections(text)
        declared = {f.name: f.metadata for f in fields(cls)}

        def raw(section: str, key: str) -> str:
            try:
                return sec[section][key]
            except KeyError as err:
                raise ConfigError(f"missing [{section}] {key}") from err

        def get(section: str, key: str, meta, item: str | None = None) -> float:
            """``[section] key`` (or ``item``, one of its list), checked
            against its declared unit and interval."""
            item = (raw(section, key) if item is None else item).strip()
            try:
                value = parse_quantity(item, meta["unit"])
            except ValueError as err:   # UnitError included
                raise ConfigError(f"[{section}] {key}: {err}") from err
            if not _within(value, meta["interval"]):
                raise ConfigError(f"[{section}] {key}: {item} is outside {meta['interval']}")
            return value

        def read(section: str, record: type):
            """The section's keys, in one pass, as its record."""
            return record(**{f.name: get(section, f.name, f.metadata) for f in fields(record)})

        def monitor(section: str) -> WellCfg:
            if "velocity" in sec[section]:
                raise ConfigError(f"[{section}] velocity: a monitoring well injects nothing; "
                                  "only [well.injection] has a velocity")
            return read(section, WellCfg)

        lenses = []
        while (lens := f"lens.{len(lenses) + 1}") in sec:
            lenses.append(tuple(get(lens, k, declared["lenses"]) for k in ("x0", "y0", "x1", "y1")))

        cfg = cls(
            **{name: get(*meta["at"], meta) for name, meta in declared.items() if meta.get("at")},
            upper_sand=read("upper_sand", LithologyCfg),
            lower_sand=read("lower_sand", LithologyCfg),
            clay=read("clay", LithologyCfg),
            lenses=tuple(lenses),
            injection=read("well.injection", WellCfg),
            monitors={name[len("well."):]: monitor(name) for name in sec
                      if name.startswith("well.") and name != "well.injection"},
            transport=read("transport", TransportCfg),
            nzvi=read("nzvi", NzviCfg),
            cmc=read("cmc", CmcCfg),
            clogging=read("clogging", CloggingCfg),
            reaction=read("reaction", ReactionCfg),
            stage_durations=tuple(get("stages", f"stage{n}_duration", declared["stage_durations"])
                                  for n in (1, 2, 3, 4)),
            snapshots=tuple(
                tuple(get("output", key, declared["snapshots"], part)
                      for part in raw("output", key).split(","))
                for key in (f"stage{n}_snapshots" for n in (1, 2, 3, 4))),
            source_text=text,
        )
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"{path}: cannot be read: {err.strerror}") from err
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from err
        return cls.from_text(text)

    @classmethod
    def default(cls) -> "RunConfig":
        text = resources.files("remsim.data").joinpath("default.cfg").read_text()
        return cls.from_text(text)

    def _validate(self) -> None:
        """The checks that span fields; each value's own range is declared."""
        for name in ("upper_sand", "lower_sand", "clay"):
            lith = getattr(self, name)
            if lith.swr + lith.snr >= 1.0:
                raise ConfigError(f"[{name}] swr + snr must be < 1")
        for x0, y0, x1, y1 in self.lenses:
            if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
                raise ConfigError(f"lens ({x0},{y0})-({x1},{y1}) outside domain")
        for name, w in {"injection": self.injection, **self.monitors}.items():
            top, bottom = w.depth - w.screen_length / 2, w.depth + w.screen_length / 2
            if not (0 <= w.x <= self.width and 0 <= top and bottom <= self.height):
                raise ConfigError(f"[well.{name}] x = {w.x} m or the screen, {top} to {bottom} m "
                                  f"deep, lies outside the {self.width} x {self.height} m domain")
