"""Stage runners: each advances the shared state bundle over one stage of
the remediation timeline and returns a checkpoint plus diagnostics.

Stage 1  NAPL release and redistribution (two-phase IMPES)
Stage 2  source dissolution and plume migration (single-phase transport)
Stage 3  CMC-nZVI injection with filtration and clogging feedback
Stage 4  contaminant degradation on the emplaced iron

The stages communicate only through :class:`StageCheckpoint`, so any stage
can restart from a file produced by the previous one; stage 1 starts from
the stage-0 checkpoint of :func:`initial_checkpoint`, built in memory.  All
four stages walk one schedule (:func:`_march`): stage 1 takes the IMPES
sub-steps its stability bounds allow, stages 2-4 fixed operator-split steps.
Stage 1's chunks end only at its output times, the release end and the stage
end, and its series holds one row per chunk end.  Stages 2-4 run through one
runner (:func:`_aqueous_stage`), which solves the flow again only when ``k``
or ``c_cmc`` has been replaced.
All four also share one field state: a copy of the incoming checkpoint's
``fields`` dict whose entries the runner replaces as the stage advances and
hands on to the outgoing checkpoint.  The state holds each quantity once:
the NAPL saturation ``sn``, whose complement is the water saturation, and
the bulk iron deposit ``s_bulk``, which stage 4 reacts as the iron per unit
pore volume ``s_bulk / theta_m``.  Only :func:`_make_checkpoint` forms the
checkpoint's ``sw``, as ``1 - sn``, for readers of the file: no stage reads
it and no snapshot holds it.

Every stage keeps a :class:`Ledger` for each species it moves: initial,
injected, dissolved, exported, degraded and final mass, each weighed by
:func:`_mass`.  ``audit_report.txt`` prints every term with the ledger's
relative closure error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nzvi as nz
from .checkpoint import StageCheckpoint
from .flow import FactorCache, solve_pressure
from .reaction import reactive_step
from .scenario import Scenario
from .solute import TransportKernel, dissolution_substep
from .twophase import ImpesStepper, hydrostatic_two_phase, water_mobility

DAY = 86400.0

# outer operator-split steps of stages 2, 3 and 4 (s)
STAGE2_DT = 1.0 * DAY
STAGE3_DT = 300.0
STAGE4_DT = 1.0 * DAY
# fraction of the transport kernel's positivity bound each sub-step takes;
# above 1 the explicit upwind update loses positivity
TRANSPORT_CFL = 0.9
# NAPL saturation counted as pooled in the source-zone statistics
POOL_THRESHOLD = 0.3

LEDGER_TERMS = ("initial", "injected", "dissolved", "exported", "degraded", "final")


@dataclass
class Ledger:
    """Mass of one species over a stage (kg per metre of thickness)."""

    initial: float = 0.0
    injected: float = 0.0
    dissolved: float = 0.0        # from the NAPL phase
    exported: float = 0.0         # net, across the open domain boundaries
    degraded: float = 0.0
    final: float = 0.0
    napl: float = 0.0             # NAPL mass available to dissolve at the start

    def closure(self) -> float:
        """|initial + injected + dissolved - final - exported - degraded|
        relative to the mass the stage started with or could receive."""
        gap = (self.initial + self.injected + self.dissolved) - (
            self.final + self.degraded + self.exported
        )
        return abs(gap) / max(self.initial + self.injected + self.napl, 1e-300)


@dataclass
class StageResult:
    stage: int
    checkpoint: StageCheckpoint
    diagnostics: dict
    ledger: dict                     # species -> Ledger
    snapshots: list = field(default_factory=list)   # (t_stage, {name: array})
    series: list = field(default_factory=list)      # rows of time series

    @property
    def audit(self) -> dict:
        """Species -> relative closure error of its ledger."""
        return {name: ledger.closure() for name, ledger in self.ledger.items()}


def _make_checkpoint(scn: Scenario, stage: int, clock: float, fields: dict) -> StageCheckpoint:
    """The checkpoint of the field state ``fields``, with ``sw = 1 - sn``."""
    g = scn.grid
    return StageCheckpoint(
        stage=stage,
        clock=clock,
        nx=g.nx,
        ny=g.ny,
        seed=scn.seed,
        config_hash=scn.config.config_hash,
        fields={**fields, "sw": 1.0 - fields["sn"]},
    )


def initial_checkpoint(scn: Scenario) -> StageCheckpoint:
    """The stage-0 state stage 1 starts from: water at rest under a water
    table at the grid top, no NAPL, the clean bed's ``theta_m`` and ``k``,
    and every other field zero."""
    m = scn.material
    return _make_checkpoint(scn, 0, 0.0, {**hydrostatic_two_phase(scn.grid, scn.config),
                                          "theta_m": m.porosity.copy(), "k": m.k.copy()})


def _mass(f: dict, c, cell_volume: float) -> float:
    """Mass per metre of thickness of a quantity ``c`` per unit pore volume
    on the field state ``f``: ``theta_m * cell_volume * c``, summed.  Every
    ledger term is weighed here; only the bulk deposit ``s_bulk``, a mass
    per bulk volume, is summed on its own."""
    return float((f["theta_m"] * cell_volume * c).sum())


def _chunks(duration: float, marks) -> list[float]:
    """Sorted unique stop times in (0, duration]."""
    times = {float(t) for t in marks if 0.0 < t <= duration}
    times.add(duration)
    return sorted(times)


def _march(duration: float, marks, dt_max: float, step):
    """The time schedule of every stage.

    Walks the chunks of :func:`_chunks`, offering ``step(t, dt)`` at most
    ``dt = min(dt_max, t_stop - t)``; the step advances every operator of the
    stage from t and returns the length it took, at most dt.  Yields each
    chunk's stop time, to which t is then set once within 1e-6 s of it: the
    shortfall is dropped, not carried into the next chunk.
    """
    t = 0.0
    for t_stop in _chunks(duration, marks):
        while t < t_stop - 1e-6:
            t += step(t, min(dt_max, t_stop - t))
        t = t_stop
        yield t


def _aqueous_stage(scn: Scenario, stage: int, f: dict, ledger: dict, dt_max: float, operate,
                   sources=None, c_in={}):
    """The runner of stages 2-4: walks :func:`_march` over stage ``stage`` on
    the field state ``f``, yielding each chunk's stop time and the stage's
    :class:`FactorCache`.  A step of dt from t solves the flow (ambient
    heads, wells ``sources``) again only when ``f["k"]`` or
    ``f["c_cmc"]`` is not the array the last solve read: no other field moves
    the water mobility within a stage.  It transports every ``ledger`` species
    at the wells' ``c_in[name]`` (none if absent), booking what is injected
    and exported, dissolves NAPL on the cells holding it, and calls
    ``operate(t, dt, flow, mu)``.  The march's end books final and dissolved."""
    cfg, g, cv = scn.config, scn.grid, scn.grid.cell_volume
    mobility = water_mobility(f["sn"], scn.material)
    cache = FactorCache()
    # the field state gets its own sn, which each step dissolves in place;
    # sn only falls, so the cells that still hold NAPL are found among napl
    f["sn"] = f["sn"].copy()
    napl = np.flatnonzero(f["sn"] > 0)
    read = (None, None)       # the k and c_cmc arrays the last solve read
    flow = kernel = mu = None

    def step(t, dt):
        nonlocal napl, read, flow, kernel, mu
        if read[0] is not f["k"] or read[1] is not f["c_cmc"]:
            read = f["k"], f["c_cmc"]
            flow = kernel = None      # freed before the new ones are built
            mu = nz.cmc_viscosity(f["c_cmc"], cfg.cmc, cfg.mu_w)
            flow = solve_pressure(g, f["k"], mu, mobility, cfg.head_left, cfg.head_right,
                                  rho=cfg.rho_w, g=cfg.gravity, well_sources=sources, cache=cache)
            f["pw"] = flow.pressure
            kernel = TransportKernel(g, f["theta_m"], flow, cfg.transport, TRANSPORT_CFL,
                                     well_sources=sources)
        for name, entry in ledger.items():
            conc = c_in.get(name, 0.0)
            f["c_" + name], exported = kernel.step(f["c_" + name], dt, conc)
            entry.injected += kernel.inflow * conc * dt
            entry.exported += exported
        # every stage's ledger holds tce, so c_tce is the kernel's new array
        dissolution_substep(f["c_tce"], f["sn"], cfg.rho_n, cfg.solubility, cfg.transport, dt, napl)
        napl = napl[f["sn"].reshape(-1)[napl] > 0]
        operate(t, dt, flow, mu)
        return dt

    for t in _march(cfg.stage_durations[stage - 1], cfg.snapshots[stage - 1], dt_max, step):
        yield t, cache
    ledger["tce"].dissolved = ledger["tce"].napl - _mass(f, f["sn"], cv) * cfg.rho_n
    for name, entry in ledger.items():
        entry.final = _mass(f, f["c_" + name], cv)


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceZoneStats:
    total_mass: float
    upper_fraction: float
    lower_fraction: float
    pool_fraction: float
    ganglia_fraction: float


def source_zone_stats(f: dict, material, rho_n: float) -> SourceZoneStats:
    """NAPL mass on the field state ``f``, weighed as :func:`_mass` weighs
    ``sn`` and times ``rho_n``, with the fractions above and below
    ``material``'s layer split and at or above :data:`POOL_THRESHOLD` (pools)
    or under it (ganglia)."""
    volume = f["theta_m"] * material.grid.cell_volume * f["sn"]
    total = float(volume.sum())
    if total == 0.0:
        return SourceZoneStats(0.0, 0.0, 0.0, 0.0, 0.0)
    upper = material.layer_mask(upper=True)
    pool = f["sn"] >= POOL_THRESHOLD
    return SourceZoneStats(
        total_mass=total * rho_n,
        upper_fraction=float(volume[upper].sum() / total),
        lower_fraction=float(volume[~upper].sum() / total),
        pool_fraction=float(volume[pool].sum() / total),
        ganglia_fraction=float(volume[~pool].sum() / total),
    )


def run_stage1(scn: Scenario, ckpt: StageCheckpoint) -> StageResult:
    cfg, g, m = scn.config, scn.grid, scn.material
    rho_n, cv = cfg.rho_n, g.cell_volume
    duration = cfg.stage_durations[0]
    f = dict(ckpt.fields)
    # no ambient groundwater flow during the release
    stepper = ImpesStepper(m, cfg)
    source = scn.napl_source_field()
    ledger = {"napl": Ledger(initial=_mass(f, f["sn"], cv) * rho_n)}

    def step(t, dt):
        # the release end is a mark, so no sub-step straddles it; t snaps to
        # each chunk stop, as in stages 2-4 (see _march)
        if t >= cfg.infil_duration:
            return stepper.substep(f, dt)
        dt = stepper.substep(f, dt, source)
        ledger["napl"].injected += float(np.sum(source) * cv * dt * rho_n)
        return dt

    marks = set(cfg.snapshots[0])
    snapshots, series = [], []
    for t in _march(duration, marks | {cfg.infil_duration}, np.inf, step):
        stats = source_zone_stats(f, m, rho_n)
        series.append([t, stats.total_mass, stats.pool_fraction, stats.ganglia_fraction,
                       stats.upper_fraction, stats.lower_fraction])
        if t in marks:
            snapshots.append((t, {"sn": f["sn"]}))

    ledger["napl"].final = stats.total_mass
    diagnostics = {
        "source_zone": stats,
        "pressure": stepper.cache.stats(),
        # sub-steps set by each bound (advection, inflow, capillary, chunk end)
        "limits": stepper.limits,
        # grid columns a sub-step works on (the NAPL window), mean and widest
        "window": {"mean_columns": stepper.window_columns / max(sum(stepper.limits.values()), 1),
                   "max_columns": stepper.window_max,
                   "columns": g.nx},
        "series_header": ["t", "napl_mass", "pool_fraction", "ganglia_fraction",
                          "upper_fraction", "lower_fraction"],
    }
    ckpt_out = _make_checkpoint(scn, 1, ckpt.clock + t, f)
    return StageResult(1, ckpt_out, diagnostics, ledger, snapshots, series)


# ---------------------------------------------------------------------------
# Stage 2
# ---------------------------------------------------------------------------

def run_stage2(scn: Scenario, ckpt: StageCheckpoint) -> StageResult:
    cfg, g = scn.config, scn.grid
    rho_n, cv = cfg.rho_n, g.cell_volume
    f = dict(ckpt.fields)

    napl0 = _mass(f, f["sn"], cv) * rho_n
    ledger = {"tce": Ledger(initial=_mass(f, f["c_tce"], cv), napl=napl0)}
    mon = scn.monitor_cells
    marks = set(cfg.snapshots[1])
    snapshots, series = [], []
    # _mass's weights, formed once: theta_m does not change in stage 2
    pore_volume = f["theta_m"] * cv
    inflow = 0.0    # water entering across the upgradient boundary (m^2/s)

    def operate(t, dt, flow, mu):
        nonlocal inflow
        if t == 0.0:    # stage 2 solves its one flow for its first step
            inflow = float(np.maximum(flow.qx[:, 0], 0.0).sum()) * g.dy
        napl_mass = float((pore_volume * f["sn"]).sum()) * rho_n
        series.append([t + dt, napl_mass, napl_mass / max(napl0, 1e-300)]
                      + [float(f["c_tce"][j, i]) for i, j in mon.values()])

    for t, cache in _aqueous_stage(scn, 2, f, ledger, STAGE2_DT, operate):
        if t in marks:
            snapshots.append((t, {"c_tce": f["c_tce"], "sn": f["sn"].copy()}))

    # at solubility the inflow carries at most this much TCE out of the
    # source over the stage
    diagnostics = {
        "undissolved_fraction": _mass(f, f["sn"], cv) * rho_n / max(napl0, 1e-300),
        "pressure": cache.stats(),
        "budget": {"dissolution_ceiling": cfg.solubility * inflow * cfg.stage_durations[1],
                   "napl_initial": napl0},
        "series_header": ["t", "napl_mass", "napl_fraction", *mon],
    }
    ckpt_out = _make_checkpoint(scn, 2, ckpt.clock + t, f)
    return StageResult(2, ckpt_out, diagnostics, ledger, snapshots, series)


# ---------------------------------------------------------------------------
# Stage 3
# ---------------------------------------------------------------------------

def run_stage3(scn: Scenario, ckpt: StageCheckpoint) -> StageResult:
    cfg, g, m = scn.config, scn.grid, scn.material
    rho_n, cv = cfg.rho_n, g.cell_volume
    f = dict(ckpt.fields)
    theta0 = m.porosity
    k0 = m.k
    rho_p = cfg.nzvi.particle_density

    # clean-bed collector diameter is frozen at the pre-injection state
    dc = nz.collector_diameter(k0, theta0)
    f["theta_m"], f["k"], _ = nz.clogging_update(f["s_bulk"], k0, theta0, cfg.clogging, rho_p)

    c_in = {"nzvi": cfg.nzvi.concentration, "cmc": cfg.cmc.concentration}
    screen = (cfg.injection.x, g.height - cfg.injection.depth)
    iw, jw = scn.injection_cells[0]
    diagnostics = {"flux_reversed": False}

    marks = set(cfg.snapshots[2])
    snapshots, series = [], []
    ledger = {
        "nzvi": Ledger(initial=_mass(f, f["c_nzvi"], cv) + float(f["s_bulk"].sum()) * cv),
        "cmc": Ledger(initial=_mass(f, f["c_cmc"], cv)),
        "tce": Ledger(initial=_mass(f, f["c_tce"], cv), napl=_mass(f, f["sn"], cv) * rho_n),
    }

    def operate(t, dt, flow, mu):
        # background flow is +x; injection pushes the upgradient faces back
        if flow.qx[jw, max(iw - 2, 0): iw + 1].min() < 0:
            diagnostics["flux_reversed"] = True
        katt = nz.attachment_rate(dc, f["theta_m"], flow.velocity_magnitude(), mu, cfg.nzvi,
                                  cfg.rho_w, cfg.gravity)
        f["c_nzvi"], f["s_bulk"] = nz.deposit_step(f["c_nzvi"], f["s_bulk"], katt, f["theta_m"], dt)
        f["theta_m"], f["k"], _ = nz.clogging_update(f["s_bulk"], k0, theta0, cfg.clogging, rho_p)

    for t, cache in _aqueous_stage(scn, 3, f, ledger, STAGE3_DT, operate,
                                      scn.injection_sources(), c_in):
        roi = nz.radius_of_influence(f["s_bulk"], g, screen)
        series.append([t, roi, float(f["s_bulk"].max()), float(1.0 - (f["k"] / k0).min())])
        if t in marks:
            snapshots.append((t, {name: f[name] for name in ("c_nzvi", "s_bulk", "c_cmc", "k")}))

    ledger["nzvi"].final += float(f["s_bulk"].sum()) * cv
    _, roi, _, max_k_reduction = series[-1]
    diagnostics.update({
        "roi": roi,
        "max_k_reduction": max_k_reduction,
        "max_theta_reduction": float(1.0 - (f["theta_m"] / theta0).min()),
        "pressure": cache.stats(),
        "series_header": ["t", "roi", "max_s_bulk", "max_k_reduction"],
    })
    ckpt_out = _make_checkpoint(scn, 3, ckpt.clock + t, f)
    return StageResult(3, ckpt_out, diagnostics, ledger, snapshots, series)


# ---------------------------------------------------------------------------
# Stage 4
# ---------------------------------------------------------------------------

def run_stage4(scn: Scenario, ckpt: StageCheckpoint) -> StageResult:
    cfg, g = scn.config, scn.grid
    rho_n, cv = cfg.rho_n, g.cell_volume
    f = dict(ckpt.fields)
    # the iron that reacts, per unit pore volume; written back as s_bulk
    rho_m = f["s_bulk"] / f["theta_m"]

    iron0 = _mass(f, rho_m, cv)
    ledger = {"tce": Ledger(initial=_mass(f, f["c_tce"], cv), napl=_mass(f, f["sn"], cv) * rho_n),
              "cmc": Ledger(initial=_mass(f, f["c_cmc"], cv))}
    mon = scn.monitor_cells
    marks = set(cfg.snapshots[3])
    snapshots, series = [], []

    def operate(t, dt, flow, mu):
        nonlocal rho_m
        pre = f["c_tce"]
        f["c_tce"], rho_m = reactive_step(pre, rho_m, cfg.reaction, dt)
        ledger["tce"].degraded += _mass(f, pre - f["c_tce"], cv)
        iron_frac = _mass(f, rho_m, cv) / max(iron0, 1e-300)
        series.append([t + dt, iron_frac] + [float(f["c_tce"][j, i]) for i, j in mon.values()])

    for t, cache in _aqueous_stage(scn, 4, f, ledger, STAGE4_DT, operate):
        if t in marks:
            snapshots.append((t, {"c_tce": f["c_tce"], "rho_m": rho_m}))

    f["s_bulk"] = rho_m * f["theta_m"]
    ckpt_out = _make_checkpoint(scn, 4, ckpt.clock + t, f)
    diagnostics = {
        "iron_initial": iron0,
        "iron_final": _mass(f, rho_m, cv),
        "degraded_mass": ledger["tce"].degraded,
        "pressure": cache.stats(),
        # the iron can degrade at most its mass over the stoichiometry
        "budget": {"iron_capacity": iron0 / cfg.reaction.stoichiometry,
                   "degraded": ledger["tce"].degraded},
        "series_header": ["t", "iron_fraction", *mon],
    }
    return StageResult(4, ckpt_out, diagnostics, ledger, snapshots, series)
