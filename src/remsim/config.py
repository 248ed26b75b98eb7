"""Run configuration: sectioned key=value files with explicit units.

The parser is deliberately small: sections in brackets, one ``key = value``
per line, ``#`` comments.  Values of physical quantities must carry a unit
suffix; everything is converted to SI on load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources

from .units import UnitError, parse_quantity


class ConfigError(ValueError):
    """Raised for malformed or physically invalid configuration."""


def parse_sections(text: str) -> dict[str, dict[str, str]]:
    """Parse the raw section/key/value structure, keeping values as strings."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    return sections


@dataclass(frozen=True)
class LithologyCfg:
    """Hydrogeological properties of one lithological unit."""

    permeability: float            # geometric-mean permeability (m^2)
    porosity: float
    swr: float
    snr: float
    entry_pressure: float
    bc_lambda: float

    def validate(self, name: str) -> None:
        if not 0.0 < self.porosity < 1.0:
            raise ConfigError(f"{name}: porosity must be in (0,1)")
        if self.swr + self.snr >= 1.0:
            raise ConfigError(f"{name}: Swr + Snr must be < 1")
        if self.entry_pressure <= 0 or self.bc_lambda <= 0 or self.permeability <= 0:
            raise ConfigError(f"{name}: entry pressure, lambda and permeability must be positive")


@dataclass(frozen=True)
class WellCfg:
    """Vertical well with a short screen; depths measured from the surface."""

    x: float
    depth: float
    screen_length: float
    mode: str                      # "injection" or "monitoring"
    velocity: float = 0.0          # injection Darcy velocity at the screen (m/s)

    def screen_area(self) -> float:
        # both faces of the screen per unit thickness of the 2D slice
        return 2.0 * self.screen_length


@dataclass(frozen=True)
class RunConfig:
    width: float
    height: float
    dx: float
    dy: float
    split_elevation: float
    upper_sand: LithologyCfg
    lower_sand: LithologyCfg
    clay: LithologyCfg
    lenses: tuple[tuple[float, float, float, float], ...]
    # infiltration
    infil_center: float
    infil_width: float
    infil_flux: float
    infil_duration: float
    # random field
    log_variance: float
    correlation_length: float
    # fluids
    rho_w: float
    rho_n: float
    mu_w: float
    mu_n: float
    solubility: float
    gravity: float
    # transport
    dispersivity: float
    diffusion: float
    mass_transfer: float
    # flow
    head_left: float
    head_right: float
    # wells
    wells: dict[str, WellCfg]
    # nzvi
    nzvi_concentration: float
    particle_diameter: float
    attachment_efficiency: float
    particle_density: float
    temperature: float
    hamaker: float
    # cmc
    cmc_concentration: float
    cmc_viscosity: float
    # clogging
    a0: float
    zvi_specific_area: float
    gamma: float
    # reaction
    k_sa: float
    alpha_s: float
    stoichiometry: float
    # stage durations
    stage_durations: tuple[float, float, float, float]
    # numerics
    two_phase_cfl: float
    transport_cfl: float
    se_clamp: float
    pool_threshold: float
    roi_threshold: float
    # output schedules (seconds from stage start)
    snapshots: tuple[tuple[float, ...], ...]
    # canonical source text, for hashing
    source_text: str = field(default="", compare=False)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()[:16]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        sec = parse_sections(text)

        def get(section: str, key: str, *, bare: bool = False) -> float:
            try:
                raw = sec[section][key]
            except KeyError as err:
                raise ConfigError(f"missing [{section}] {key}") from err
            try:
                return parse_quantity(raw, dimensionless=bare)
            except (UnitError, ValueError) as err:
                raise ConfigError(f"[{section}] {key}: {err}") from err

        def lith(section: str) -> LithologyCfg:
            l = LithologyCfg(
                permeability=get(section, "permeability"),
                porosity=get(section, "porosity", bare=True),
                swr=get(section, "swr", bare=True),
                snr=get(section, "snr", bare=True),
                entry_pressure=get(section, "entry_pressure"),
                bc_lambda=get(section, "bc_lambda", bare=True),
            )
            l.validate(section)
            return l

        lenses = []
        i = 1
        while f"lens.{i}" in sec:
            lenses.append(tuple(get(f"lens.{i}", k) for k in ("x0", "y0", "x1", "y1")))
            i += 1

        wells = {}
        for name in sec:
            if not name.startswith("well."):
                continue
            wname = name[len("well."):]
            mode = sec[name].get("mode", "monitoring")
            if mode not in ("injection", "monitoring"):
                raise ConfigError(f"[{name}] mode must be injection or monitoring")
            wells[wname] = WellCfg(
                x=get(name, "x"),
                depth=get(name, "depth"),
                screen_length=get(name, "screen_length"),
                mode=mode,
                velocity=get(name, "velocity") if "velocity" in sec[name] else 0.0,
            )

        def schedule(key: str) -> tuple[float, ...]:
            raw = sec["output"][key]
            return tuple(parse_quantity(part) for part in raw.split(","))

        cfg = cls(
            width=get("domain", "width"),
            height=get("domain", "height"),
            dx=get("grid", "dx"),
            dy=get("grid", "dy"),
            split_elevation=get("layers", "split_elevation"),
            upper_sand=lith("upper_sand"),
            lower_sand=lith("lower_sand"),
            clay=lith("clay"),
            lenses=tuple(lenses),
            infil_center=get("infiltration", "center"),
            infil_width=get("infiltration", "width"),
            infil_flux=get("infiltration", "flux"),
            infil_duration=get("infiltration", "duration"),
            log_variance=get("randfield", "log_variance", bare=True),
            correlation_length=get("randfield", "correlation_length"),
            rho_w=get("fluids", "water_density"),
            rho_n=get("fluids", "tce_density"),
            mu_w=get("fluids", "water_viscosity"),
            mu_n=get("fluids", "tce_viscosity"),
            solubility=get("fluids", "solubility"),
            gravity=get("fluids", "gravity"),
            dispersivity=get("transport", "dispersivity"),
            diffusion=get("transport", "diffusion"),
            mass_transfer=get("transport", "mass_transfer"),
            head_left=get("flow", "head_left"),
            head_right=get("flow", "head_right"),
            wells=wells,
            nzvi_concentration=get("nzvi", "concentration"),
            particle_diameter=get("nzvi", "particle_diameter"),
            attachment_efficiency=get("nzvi", "attachment_efficiency", bare=True),
            particle_density=get("nzvi", "particle_density"),
            temperature=get("nzvi", "temperature"),
            hamaker=get("nzvi", "hamaker"),
            cmc_concentration=get("cmc", "concentration"),
            cmc_viscosity=get("cmc", "solution_viscosity"),
            a0=get("clogging", "a0"),
            zvi_specific_area=get("clogging", "zvi_specific_area"),
            gamma=get("clogging", "gamma", bare=True),
            k_sa=get("reaction", "k_sa"),
            alpha_s=get("reaction", "alpha_s"),
            stoichiometry=get("reaction", "stoichiometry", bare=True),
            stage_durations=(
                get("stages", "stage1_duration"),
                get("stages", "stage2_duration"),
                get("stages", "stage3_duration"),
                get("stages", "stage4_duration"),
            ),
            two_phase_cfl=get("numerics", "two_phase_cfl", bare=True),
            transport_cfl=get("numerics", "transport_cfl", bare=True),
            se_clamp=get("numerics", "se_clamp", bare=True),
            pool_threshold=get("numerics", "pool_threshold", bare=True),
            roi_threshold=get("numerics", "roi_threshold"),
            snapshots=tuple(schedule(f"stage{n}_snapshots") for n in (1, 2, 3, 4)),
            source_text=text,
        )
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def default(cls) -> "RunConfig":
        text = resources.files("remsim.data").joinpath("default.cfg").read_text()
        return cls.from_text(text)

    def _validate(self) -> None:
        if min(self.width, self.height, self.dx, self.dy) <= 0:
            raise ConfigError("domain extents and resolution must be positive")
        for x0, y0, x1, y1 in self.lenses:
            if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
                raise ConfigError(f"lens ({x0},{y0})-({x1},{y1}) outside domain")
        for name, w in self.wells.items():
            if not 0 <= w.x <= self.width or not 0 < w.depth < self.height:
                raise ConfigError(f"well {name} outside domain")
            if w.velocity < 0:
                raise ConfigError(f"well {name}: injection velocity must be >= 0")
        if self.log_variance < 0 or self.correlation_length <= 0:
            raise ConfigError("log_variance must be >= 0 and correlation_length > 0")
        if any(d < 0 for d in self.stage_durations):
            raise ConfigError("stage durations must be >= 0")
