"""Run configuration: sectioned key=value files with explicit units.

The parser is deliberately small: sections in brackets, one ``key = value``
per line, ``#`` comments.  Values of physical quantities must carry a unit
suffix; everything is converted to SI on load.

Each lithology and physics section is read into one frozen record whose
fields are named after the section's keys; its ``dimensionless`` names the
keys that may be bare numbers, and its ``validate`` rejects a value the
model cannot run with, so a bad value fails when the file is read.  The
kernels take these records as they are.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import ClassVar

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

    dimensionless: ClassVar[tuple[str, ...]] = ("porosity", "swr", "snr", "bc_lambda")

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
class TransportCfg:
    """[transport]: dispersion of every aqueous species and NAPL dissolution."""

    dimensionless: ClassVar[tuple[str, ...]] = ()

    dispersivity: float            # longitudinal dispersivity alpha_L (m)
    diffusion: float               # molecular diffusion Dd (m^2/s)
    mass_transfer: float           # lumped volumetric NAPL mass-transfer coefficient (1/s)

    def validate(self, name: str) -> None:
        if min(self.dispersivity, self.diffusion, self.mass_transfer) < 0:
            raise ConfigError(f"{name}: dispersivity, diffusion and mass_transfer must be >= 0")


@dataclass(frozen=True)
class NzviCfg:
    """[nzvi]: the injected particles and their filtration."""

    dimensionless: ClassVar[tuple[str, ...]] = ("attachment_efficiency",)

    concentration: float           # injected aqueous concentration (kg/m^3)
    particle_diameter: float       # dp (m)
    attachment_efficiency: float   # alpha (-)
    particle_density: float        # rho_p (kg/m^3)
    temperature: float             # T (K)
    hamaker: float                 # Hamaker constant A (J)

    def validate(self, name: str) -> None:
        if self.concentration < 0:
            raise ConfigError(f"{name}: concentration must be >= 0")
        if min(self.particle_diameter, self.particle_density, self.temperature, self.hamaker) <= 0:
            raise ConfigError(
                f"{name}: particle size and density, temperature and hamaker must be positive")
        if not 0.0 <= self.attachment_efficiency <= 1.0:
            raise ConfigError(f"{name}: attachment efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class CmcCfg:
    """[cmc]: the polymer carrier solution."""

    dimensionless: ClassVar[tuple[str, ...]] = ()

    concentration: float           # injected CMC concentration (kg/m^3)
    solution_viscosity: float      # viscosity at the injected concentration (Pa s)

    def validate(self, name: str) -> None:
        if self.concentration <= 0 or self.solution_viscosity <= 0:
            raise ConfigError(f"{name}: concentration and solution_viscosity must be positive")


@dataclass(frozen=True)
class CloggingCfg:
    """[clogging]: specific-surface growth of the clogging feedback."""

    dimensionless: ClassVar[tuple[str, ...]] = ("gamma",)

    a0: float                      # clean-bed specific surface (1/m)
    zvi_specific_area: float       # deposited-particle specific surface (1/m)
    gamma: float                   # fraction of deposit surface exposed to flow (-)

    def validate(self, name: str) -> None:
        if self.a0 <= 0 or self.zvi_specific_area <= 0:
            raise ConfigError(f"{name}: a0 and zvi_specific_area must be positive")
        if not 0 < self.gamma <= 1:
            raise ConfigError(f"{name}: gamma must lie in (0, 1]")


@dataclass(frozen=True)
class ReactionCfg:
    """[reaction]: degradation on the iron, at the rate k_sa * alpha_s per
    unit iron concentration."""

    dimensionless: ClassVar[tuple[str, ...]] = ("stoichiometry",)

    k_sa: float                    # surface-area-normalized rate constant (m^3/(m^2 s))
    alpha_s: float                 # reactive surface per unit iron mass (m^2/kg)
    stoichiometry: float           # kg iron consumed per kg contaminant degraded

    def validate(self, name: str) -> None:
        if self.k_sa < 0 or self.alpha_s < 0:
            raise ConfigError(f"{name}: k_sa and alpha_s must be >= 0")
        if self.stoichiometry <= 0:
            raise ConfigError(f"{name}: stoichiometry must be > 0")


@dataclass(frozen=True)
class NumericsCfg:
    """[numerics]: time-step safety factors and diagnostic thresholds."""

    dimensionless: ClassVar[tuple[str, ...]] = (
        "two_phase_cfl", "transport_cfl", "se_clamp", "pool_threshold")

    two_phase_cfl: float           # IMPES inflow and capillary bounds
    transport_cfl: float           # fraction of the transport positivity bound
    se_clamp: float                # least effective saturation the capillary pressure sees
    pool_threshold: float          # NAPL saturation counted as pooled
    roi_threshold: float           # deposit counted in the radius of influence (kg/m^3)

    def validate(self, name: str) -> None:
        if self.two_phase_cfl <= 0:
            raise ConfigError(f"{name}: two_phase_cfl must be > 0")
        # above 1 the explicit upwind update loses positivity
        if not 0 < self.transport_cfl <= 1:
            raise ConfigError(f"{name}: transport_cfl must lie in (0, 1]")
        if not 0 < self.se_clamp <= 1:
            raise ConfigError(f"{name}: se_clamp must lie in (0, 1]")


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
    # flow
    head_left: float
    head_right: float
    # wells
    wells: dict[str, WellCfg]
    # physics sections
    transport: TransportCfg
    nzvi: NzviCfg
    cmc: CmcCfg
    clogging: CloggingCfg
    reaction: ReactionCfg
    numerics: NumericsCfg
    # stage durations
    stage_durations: tuple[float, float, float, float]
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
                value = parse_quantity(raw, dimensionless=bare)
            except (UnitError, ValueError) as err:
                raise ConfigError(f"[{section}] {key}: {err}") from err
            if not math.isfinite(value):
                raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
            return value

        def read(section: str, record: type):
            """The section's keys, in one pass, as its checked record."""
            values = record(**{f.name: get(section, f.name, bare=f.name in record.dimensionless)
                               for f in fields(record)})
            values.validate(section)
            return values

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
            if key not in sec.get("output", {}):
                raise ConfigError(f"missing [output] {key}")
            return tuple(parse_quantity(part) for part in sec["output"][key].split(","))

        cfg = cls(
            width=get("domain", "width"),
            height=get("domain", "height"),
            dx=get("grid", "dx"),
            dy=get("grid", "dy"),
            split_elevation=get("layers", "split_elevation"),
            upper_sand=read("upper_sand", LithologyCfg),
            lower_sand=read("lower_sand", LithologyCfg),
            clay=read("clay", LithologyCfg),
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
            head_left=get("flow", "head_left"),
            head_right=get("flow", "head_right"),
            wells=wells,
            transport=read("transport", TransportCfg),
            nzvi=read("nzvi", NzviCfg),
            cmc=read("cmc", CmcCfg),
            clogging=read("clogging", CloggingCfg),
            reaction=read("reaction", ReactionCfg),
            numerics=read("numerics", NumericsCfg),
            stage_durations=(
                get("stages", "stage1_duration"),
                get("stages", "stage2_duration"),
                get("stages", "stage3_duration"),
                get("stages", "stage4_duration"),
            ),
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
        if min(self.rho_w, self.rho_n, self.mu_w, self.mu_n, self.solubility, self.gravity) <= 0:
            raise ConfigError("fluids: every value must be positive")
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
