"""Stage runners: each advances the shared state bundle over one stage of
the remediation timeline and returns a checkpoint plus diagnostics.

Stage 1  NAPL release and redistribution (two-phase IMPES)
Stage 2  source dissolution and plume migration (single-phase transport)
Stage 3  CMC-nZVI injection with filtration and clogging feedback
Stage 4  contaminant degradation on the emplaced iron

The stages communicate only through :class:`StageCheckpoint`, so any stage
can restart from a file produced by the previous one.  All four stages walk
one schedule (:func:`_march`): stage 1 takes the IMPES sub-steps its
stability bounds allow, stages 2-4 fixed operator-split steps.  Stages 2-4
also share one field state: a copy of the incoming checkpoint's ``fields``
dict whose entries the runner replaces as the stage advances and hands on
to the outgoing checkpoint.

Every stage keeps a :class:`Ledger` for each species it moves: initial,
injected, dissolved, exported, degraded and final mass.  ``audit_report.txt``
prints every term with the ledger's relative closure error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nzvi as nz
from .checkpoint import StageCheckpoint
from .flow import FactorCache, FlowBC, solve_pressure
from .reaction import KineticParams, reactive_step
from .scenario import Scenario
from .solute import (
    DissolutionParams,
    TransportKernel,
    TransportParams,
    dissolution_substep,
    probe,
)
from .twophase import (
    ImpesStepper,
    Numerics,
    hydrostatic_two_phase,
    rel_perm,
    source_zone_stats,
)

DAY = 86400.0

# outer operator-split steps of stages 2, 3 and 4 (s)
STAGE2_DT = 1.0 * DAY
STAGE3_DT = 300.0
STAGE4_DT = 1.0 * DAY

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
    g = scn.grid
    return StageCheckpoint(
        stage=stage,
        clock=clock,
        nx=g.nx,
        ny=g.ny,
        seed=scn.seed,
        config_hash=scn.config.config_hash,
        fields=fields,
    )


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


def _water_mobility(sw, material):
    """Water relative permeability with trapped NAPL (mobility scale)."""
    se = np.clip((sw - material.swr) / (1.0 - material.swr - material.snr), 0.0, 1.0)
    krw, _ = rel_perm(se, material.bc_lambda)
    return np.maximum(krw, 1e-6)


def _darcy(scn: Scenario, f: dict, mu, mobility, cache: FactorCache, sources=None):
    """Aqueous Darcy flow under the ambient heads on the current ``f["k"]``,
    re-using the stage's pressure factors; stores the pressure in the field
    state."""
    cfg = scn.config
    flow = solve_pressure(
        scn.grid, f["k"], mu, FlowBC(cfg.head_left, cfg.head_right, well_sources=sources or {}),
        rho=scn.fluids.rho_w, g=scn.fluids.g, mobility_scale=mobility, cache=cache,
    )
    f["pw"] = flow.pressure
    return flow


def _transport(kernel: TransportKernel, f: dict, ledger: dict, dt: float, well_conc=None):
    """Advect and disperse every ledger species over dt and book its export."""
    for name, entry in ledger.items():
        f["c_" + name], exported = kernel.step(f["c_" + name], dt, (well_conc or {}).get(name))
        entry.exported += exported


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

def run_stage1(scn: Scenario) -> StageResult:
    cfg, g, m = scn.config, scn.grid, scn.material
    duration = cfg.stage_durations[0]
    # no ambient groundwater flow during the release
    state = hydrostatic_two_phase(g, scn.fluids)
    stepper = ImpesStepper(m, scn.fluids, Numerics(se_clamp=cfg.se_clamp, cfl=cfg.two_phase_cfl))
    source = scn.napl_source_field()

    def step(t, dt):
        # the release end is a mark, so no sub-step straddles it; t snaps to
        # each chunk stop, as in stages 2-4 (see _march)
        return stepper.substep(state, dt, source if t < cfg.infil_duration else None)

    marks = set(cfg.snapshots[0]) | {cfg.infil_duration, duration - 10.0 * DAY}
    snapshots, series = [], []
    sn_near_end = state.sn
    for t in _march(duration, marks, np.inf, step):
        stats_t = source_zone_stats(state.sn, m, g, scn.fluids.rho_n, cfg.pool_threshold)
        series.append([t, stats_t.total_mass, stats_t.pool_fraction,
                       stats_t.ganglia_fraction, stats_t.upper_fraction,
                       stats_t.lower_fraction])
        if t in set(cfg.snapshots[0]):
            snapshots.append((t, {"sn": state.sn.copy(), "sw": state.sw.copy()}))
        if abs(t - (duration - 10.0 * DAY)) < 1.0:
            sn_near_end = state.sn.copy()

    # the release starts NAPL-free
    ledger = {"napl": Ledger(injected=stepper.injected_mass, final=stepper.napl_mass(state))}
    stats = source_zone_stats(state.sn, m, g, scn.fluids.rho_n, cfg.pool_threshold)
    ckpt = _make_checkpoint(scn, 1, t, {
        "sw": state.sw, "sn": state.sn, "pw": state.pw,
        "theta_m": m.porosity.copy(), "k": m.k.copy(),
    })
    diagnostics = {
        "source_zone": stats,
        "near_static_max_dsn": float(np.abs(state.sn - sn_near_end).max()),
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
    return StageResult(1, ckpt, diagnostics, ledger, snapshots, series)


# ---------------------------------------------------------------------------
# Stage 2
# ---------------------------------------------------------------------------

def run_stage2(scn: Scenario, ckpt: StageCheckpoint) -> StageResult:
    cfg, g, m = scn.config, scn.grid, scn.material
    rho_n = scn.fluids.rho_n
    f = dict(ckpt.fields)

    cache = FactorCache()
    flow = _darcy(scn, f, np.full_like(f["k"], scn.fluids.mu_w), _water_mobility(f["sw"], m), cache)
    tp = TransportParams(cfg.diffusion, cfg.dispersivity)
    dp = DissolutionParams(cfg.mass_transfer, cfg.solubility)
    kernel = TransportKernel(g, f["theta_m"], flow, tp, cfl=cfg.transport_cfl)
    pv = f["theta_m"] * g.cell_volume

    def mass(c):
        return float((pv * c).sum())

    napl0 = mass(f["sn"]) * rho_n
    ledger = {"tce": Ledger(initial=mass(f["c_tce"]), napl=napl0)}
    mon = scn.monitoring_cells()
    marks = set(cfg.snapshots[1])
    snapshots, series = [], []

    def step(t, dt):
        _transport(kernel, f, ledger, dt)
        f["c_tce"], f["sn"] = dissolution_substep(f["c_tce"], f["sn"], rho_n, dp, dt)
        napl_mass = mass(f["sn"]) * rho_n
        series.append([t + dt, napl_mass, napl_mass / max(napl0, 1e-300)]
                      + [probe(f["c_tce"], cell) for cell in mon.values()])
        return dt

    for t in _march(cfg.stage_durations[1], marks, STAGE2_DT, step):
        if t in marks:
            snapshots.append((t, {"c_tce": f["c_tce"], "sn": f["sn"]}))

    napl_end = mass(f["sn"]) * rho_n
    ledger["tce"].dissolved = napl0 - napl_end
    ledger["tce"].final = mass(f["c_tce"])
    # water enters only across the upgradient boundary; at solubility it
    # carries at most this much TCE out of the source over the stage
    inflow = float(np.maximum(flow.qx[:, 0], 0.0).sum()) * g.dy
    diagnostics = {
        "napl_final": napl_end,
        "undissolved_fraction": napl_end / max(napl0, 1e-300),
        "flow": flow,
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
    rho_n, cv = scn.fluids.rho_n, g.cell_volume
    f = dict(ckpt.fields)
    theta0 = m.porosity
    k0 = m.k
    a0_field = np.full_like(k0, cfg.a0)

    nzp = nz.NzviParams(
        particle_diameter=cfg.particle_diameter,
        particle_density=cfg.particle_density,
        attachment_efficiency=cfg.attachment_efficiency,
        hamaker=cfg.hamaker,
        temperature=cfg.temperature,
        fluid_density=scn.fluids.rho_w,
        g=scn.fluids.g,
    )
    clog = nz.CloggingParams(cfg.a0, cfg.zvi_specific_area, cfg.gamma)
    cmcp = nz.CmcParams(cfg.cmc_concentration, cfg.cmc_viscosity, scn.fluids.mu_w)
    tp = TransportParams(cfg.diffusion, cfg.dispersivity)
    dp = DissolutionParams(cfg.mass_transfer, cfg.solubility)

    # clean-bed collector diameter is frozen at the pre-injection state
    dc = nz.collector_diameter(k0, theta0)
    f["theta_m"], f["k"], _ = nz.clogging_update(
        f["s_bulk"], k0, theta0, a0_field, clog, cfg.particle_density
    )

    sources = scn.injection_sources()
    conc = {
        "nzvi": {cell: cfg.nzvi_concentration for cell in sources},
        "cmc": {cell: cfg.cmc_concentration for cell in sources},
    }
    q_total = sum(sources.values())
    mobility = _water_mobility(f["sw"], m)
    well = cfg.wells["injection"]
    screen = (well.x, g.height - well.depth)
    iw, jw = scn.well_cells["injection"][0]
    diagnostics = {"flux_reversed": False}
    cache = FactorCache()

    marks = set(cfg.snapshots[2])
    snapshots, series = [], []
    napl0 = float((f["theta_m"] * f["sn"]).sum()) * cv * rho_n
    ledger = {
        "nzvi": Ledger(initial=float((f["theta_m"] * f["c_nzvi"] + f["s_bulk"]).sum()) * cv),
        "cmc": Ledger(initial=float((f["theta_m"] * f["c_cmc"]).sum()) * cv),
        "tce": Ledger(initial=float((f["theta_m"] * f["c_tce"]).sum()) * cv, napl=napl0),
    }

    def step(t, dt):
        mu = nz.cmc_viscosity(f["c_cmc"], cmcp)
        flow = _darcy(scn, f, mu, mobility, cache, sources)
        # background flow is +x; injection pushes the upgradient faces back
        if flow.qx[jw, max(iw - 2, 0): iw + 1].min() < 0:
            diagnostics["flux_reversed"] = True
        kernel = TransportKernel(
            g, f["theta_m"], flow, tp, cfl=cfg.transport_cfl, well_sources=sources
        )
        _transport(kernel, f, ledger, dt, conc)
        ledger["cmc"].injected += q_total * cfg.cmc_concentration * dt
        ledger["nzvi"].injected += q_total * cfg.nzvi_concentration * dt

        f["c_tce"], f["sn"] = dissolution_substep(f["c_tce"], f["sn"], rho_n, dp, dt)
        katt = nz.attachment_rate(dc, f["theta_m"], flow.velocity_magnitude(), mu, nzp)
        f["c_nzvi"], f["s_bulk"] = nz.deposit_step(f["c_nzvi"], f["s_bulk"], katt, f["theta_m"], dt)
        f["theta_m"], f["k"], _ = nz.clogging_update(
            f["s_bulk"], k0, theta0, a0_field, clog, cfg.particle_density
        )
        return dt

    for t in _march(cfg.stage_durations[2], marks, STAGE3_DT, step):
        roi = nz.radius_of_influence(f["s_bulk"], g, screen, cfg.roi_threshold)
        series.append([t, roi, float(f["s_bulk"].max()), float(1.0 - (f["k"] / k0).min())])
        if t in marks:
            snapshots.append((t, {name: f[name] for name in ("c_nzvi", "s_bulk", "c_cmc", "k")}))

    theta_m, s_bulk = f["theta_m"], f["s_bulk"]
    ledger["nzvi"].final = float((theta_m * f["c_nzvi"]).sum()) * cv + float(s_bulk.sum()) * cv
    ledger["cmc"].final = float((theta_m * f["c_cmc"]).sum()) * cv
    ledger["tce"].final = float((theta_m * f["c_tce"]).sum()) * cv
    ledger["tce"].dissolved = napl0 - float((theta_m * f["sn"]).sum()) * cv * rho_n

    diagnostics.update({
        "roi": nz.radius_of_influence(s_bulk, g, screen, cfg.roi_threshold),
        "roi_upper": nz.radius_of_influence(
            s_bulk, g, screen, cfg.roi_threshold, m.layer_mask(upper=True)
        ),
        "roi_lower": nz.radius_of_influence(
            s_bulk, g, screen, cfg.roi_threshold, m.layer_mask(upper=False)
        ),
        "max_k_reduction": float(1.0 - (f["k"] / k0).min()),
        "max_theta_reduction": float(1.0 - (theta_m / theta0).min()),
        "retained_mass": float(s_bulk.sum()) * cv,
        "pressure": cache.stats(),
        "series_header": ["t", "roi", "max_s_bulk", "max_k_reduction"],
    })
    f["rho_m"] = s_bulk / theta_m
    ckpt_out = _make_checkpoint(scn, 3, ckpt.clock + t, f)
    return StageResult(3, ckpt_out, diagnostics, ledger, snapshots, series)


# ---------------------------------------------------------------------------
# Stage 4
# ---------------------------------------------------------------------------

def run_stage4(scn: Scenario, ckpt: StageCheckpoint, reactive: bool = True) -> StageResult:
    """Degradation stage; ``reactive=False`` leaves out the reaction operator."""
    cfg, g, m = scn.config, scn.grid, scn.material
    rho_n = scn.fluids.rho_n
    f = dict(ckpt.fields)

    kin = KineticParams(k_sa=cfg.k_sa, specific_area=cfg.alpha_s, stoichiometry=cfg.stoichiometry)
    cmcp = nz.CmcParams(cfg.cmc_concentration, cfg.cmc_viscosity, scn.fluids.mu_w)
    tp = TransportParams(cfg.diffusion, cfg.dispersivity)
    dp = DissolutionParams(cfg.mass_transfer, cfg.solubility)
    mobility = _water_mobility(f["sw"], m)
    pv = f["theta_m"] * g.cell_volume

    def mass(c):
        return float((pv * c).sum())

    iron0 = mass(f["rho_m"])
    napl0 = mass(f["sn"]) * rho_n
    ledger = {"tce": Ledger(initial=mass(f["c_tce"]), napl=napl0),
              "cmc": Ledger(initial=mass(f["c_cmc"]))}
    mon = scn.monitoring_cells()
    marks = set(cfg.snapshots[3])
    snapshots, series = [], []
    cache = FactorCache()

    def step(t, dt):
        mu = nz.cmc_viscosity(f["c_cmc"], cmcp)
        flow = _darcy(scn, f, mu, mobility, cache)
        kernel = TransportKernel(g, f["theta_m"], flow, tp, cfl=cfg.transport_cfl)
        _transport(kernel, f, ledger, dt)
        f["c_tce"], f["sn"] = dissolution_substep(f["c_tce"], f["sn"], rho_n, dp, dt)
        if reactive:
            pre = mass(f["c_tce"])
            f["c_tce"], f["rho_m"] = reactive_step(f["c_tce"], f["rho_m"], kin, dt)
            ledger["tce"].degraded += pre - mass(f["c_tce"])
        iron_frac = mass(f["rho_m"]) / max(iron0, 1e-300)
        series.append([t + dt, iron_frac] + [probe(f["c_tce"], cell) for cell in mon.values()])
        return dt

    for t in _march(cfg.stage_durations[3], marks, STAGE4_DT, step):
        if t in marks:
            snapshots.append((t, {"c_tce": f["c_tce"], "rho_m": f["rho_m"]}))

    ledger["tce"].dissolved = napl0 - mass(f["sn"]) * rho_n
    for name in ledger:
        ledger[name].final = mass(f["c_" + name])
    f["s_bulk"] = f["rho_m"] * f["theta_m"]
    ckpt_out = _make_checkpoint(scn, 4, ckpt.clock + t, f)
    diagnostics = {
        "iron_initial": iron0,
        "iron_final": mass(f["rho_m"]),
        "degraded_mass": ledger["tce"].degraded,
        "pressure": cache.stats(),
        # the iron can degrade at most its mass over the stoichiometry
        "budget": {"iron_capacity": iron0 / cfg.stoichiometry,
                   "degraded": ledger["tce"].degraded},
        "series_header": ["t", "iron_fraction", *mon],
    }
    return StageResult(4, ckpt_out, diagnostics, ledger, snapshots, series)
