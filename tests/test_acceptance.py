"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (straight to the real stdout, so it shows under capture).
The full-resolution default-scenario stages are expensive, so they run once
in a session fixture and are shared by the criteria that inspect them.

Run with ``pytest tests/test_acceptance.py -v``; expect ~2 minutes.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import erfc

from remsim.config import LithologyCfg, RunConfig
from remsim.flow import FlowBC, FlowField, solve_pressure
from remsim.grid import CLAY, MaterialMap, build_grid
from remsim.nzvi import (
    CmcParams,
    clogging_update,
    cmc_viscosity,
    collector_diameter,
    deposit_step,
    deposition_rate,
)
from remsim.pipeline import checkpoint_path
from remsim.pipeline import run as pipeline_run
from remsim.reaction import KineticParams, reactive_step
from remsim.scenario import Scenario
from remsim.solute import TransportKernel, TransportParams
from remsim.stages import (
    run_stage1,
    run_stage2,
    run_stage3,
    run_stage4,
)
from remsim.twophase import (
    FluidProps,
    ImpesStepper,
    Numerics,
    capillary_pressure,
    hydrostatic_two_phase,
)

DAY = 86400.0


def _finish(num: int, label: str, checks: list[tuple[str, bool]], capsys) -> None:
    """Print one PASS/FAIL line for the criterion, then assert."""
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = f"  ({'; '.join(failed)})" if failed else ""
    with capsys.disabled():
        print(f"acceptance {num:2d} [{status}] {label}{detail}", flush=True)
    assert not failed, f"criterion {num} failed: {failed}"


def _in(value: float, lo: float, hi: float) -> bool:
    return lo <= value <= hi


def _monotone(seq, direction: int, tol: float = 1e-12) -> bool:
    d = np.diff(np.asarray(seq, dtype=float)) * direction
    return bool((d >= -tol).all())


@pytest.fixture(scope="session")
def scn():
    return Scenario.build(RunConfig.default(), seed=0)


@pytest.fixture(scope="session")
def staged(scn):
    """Default scenario, all four stages at full resolution.

    Returns {stage: (StageResult, wall_seconds)}.
    """
    out = {}
    prev = None
    for num, runner in ((1, run_stage1), (2, run_stage2),
                        (3, run_stage3), (4, run_stage4)):
        t0 = time.perf_counter()
        res = runner(scn) if num == 1 else runner(scn, prev)
        out[num] = (res, time.perf_counter() - t0)
        prev = res.checkpoint
    return out


# ---------------------------------------------------------------------------
# 1. Closure formulas against hand-computed values
# ---------------------------------------------------------------------------

def test_criterion_01_closure_hand_values(capsys):
    t0 = time.perf_counter()
    checks = []

    # capillary entry point: pc(Se=1) equals the entry pressure
    checks.append(("pc endpoint",
                   capillary_pressure(1.0, 1300.0, 2.0)
                   == pytest.approx(1300.0, rel=1e-12)))

    # collector diameter from the permeability-porosity inversion
    dc_want = np.sqrt(180.0 * 1e-12 * (1.0 - 0.4) ** 2 / 0.4 ** 3)
    dc = float(collector_diameter(1e-12, 0.4))
    checks.append(("collector diameter formula",
                   dc == pytest.approx(dc_want, rel=1e-12)))
    checks.append(("collector diameter magnitude",
                   dc == pytest.approx(3.182e-5, rel=1e-4)))

    # deposition rate with all factors given by hand
    katt_want = 1.5 * (1.0 - 0.4) * 1e-4 * 0.02 * 0.01 / dc
    checks.append(("deposition rate",
                   float(deposition_rate(0.4, 1e-4, 0.02, 0.01, dc))
                   == pytest.approx(katt_want, rel=1e-12)))

    # clogging identity: zero deposit leaves porosity/permeability untouched
    from remsim.nzvi import CloggingParams
    clog = CloggingParams(a0=4.99e3, ap=2.34e8, gamma=1.04e-3)
    theta_m, k, a = clogging_update(np.array(0.0), 1e-12, 0.4, 4.99e3, clog, 6100.0)
    checks.append(("clogging identity at zero deposit",
                   theta_m == 0.4 and k == 1e-12 and a == 4.99e3))

    # viscosity mixing endpoints
    cmc = CmcParams(injected_concentration=3.0, injected_viscosity=0.0027)
    checks.append(("viscosity at zero polymer",
                   float(cmc_viscosity(0.0, cmc)) == pytest.approx(1e-3, rel=1e-12)))
    checks.append(("viscosity at injected polymer",
                   float(cmc_viscosity(3.0, cmc)) == pytest.approx(2.7e-3, rel=1e-12)))

    checks.append(("runtime < 1 s", time.perf_counter() - t0 < 1.0))
    _finish(1, "closure formulas match hand values", checks, capsys)


# ---------------------------------------------------------------------------
# 2. 1D advection-dispersion against the continuous-injection analytic front
# ---------------------------------------------------------------------------

def test_criterion_02_advection_dispersion_analytic(capsys):
    t0 = time.perf_counter()
    g = build_grid((20.0, 0.1), (0.1, 0.1))          # 200 cells
    q, alpha, c0 = 1e-4, 0.5, 1.0
    theta = np.ones((g.ny, g.nx))
    flow = FlowField(pressure=np.zeros((g.ny, g.nx)),
                     qx=np.full((g.ny, g.nx + 1), q),
                     qy=np.zeros((g.ny + 1, g.nx)))
    kernel = TransportKernel(g, theta, flow, TransportParams(0.0, alpha), cfl=0.5)
    c = np.zeros((g.ny, g.nx))
    t_end, t = 5.0e4, 0.0
    while t < t_end:
        dt = min(kernel.stable_dt, t_end - t)
        c[0, 0] = c0                                  # Dirichlet inlet
        c, _ = kernel.step(c, dt)
        t += dt
    c[0, 0] = c0

    x = g.xc - g.xc[0]
    d = alpha * q
    exact = 0.5 * c0 * (
        erfc((x - q * t_end) / (2.0 * np.sqrt(d * t_end)))
        + np.exp(np.clip(q * x / d, -700, 700))
        * erfc((x + q * t_end) / (2.0 * np.sqrt(d * t_end)))
    )
    err = np.linalg.norm(c[0] - exact) / np.linalg.norm(exact)
    checks = [
        ("L2 error <= 2 %", err <= 0.02),
        ("runtime < 5 s", time.perf_counter() - t0 < 5.0),
    ]
    _finish(2, f"1D advection-dispersion vs analytic (L2 {err:.3%})", checks, capsys)


# ---------------------------------------------------------------------------
# 3. 1D filtration column against the exponential steady profile
# ---------------------------------------------------------------------------

def test_criterion_03_filtration_column_steady_state(capsys):
    t0 = time.perf_counter()
    g = build_grid((10.0, 0.05), (0.05, 0.05))        # 200 cells
    theta = np.ones((g.ny, g.nx))
    q, katt = 1e-4, 2e-5
    flow = FlowField(pressure=np.zeros((g.ny, g.nx)),
                     qx=np.full((g.ny, g.nx + 1), q),
                     qy=np.zeros((g.ny + 1, g.nx)))
    kernel = TransportKernel(g, theta, flow, TransportParams(0.0, 0.0), cfl=0.5)
    c = np.zeros((g.ny, g.nx))
    s = np.zeros_like(c)
    t, t_end = 0.0, 8e5                               # many residence times
    while t < t_end:
        dt = min(kernel.stable_dt, t_end - t)
        c[0, 0] = 1.0                                 # Dirichlet inlet
        c, _ = kernel.step(c, dt)
        c, s = deposit_step(c, s, katt, theta, dt)
        t += dt
    c[0, 0] = 1.0

    x = g.xc - g.xc[0]
    exact = np.exp(-katt * x / q)                     # v_pore = q at theta = 1
    max_rel = float(np.max(np.abs(c[0] - exact) / exact))
    checks = [
        ("max error <= 1 %", max_rel <= 0.01),
        ("runtime < 5 s", time.perf_counter() - t0 < 5.0),
    ]
    _finish(3, f"1D filtration column vs exponential (max {max_rel:.3%})", checks, capsys)


# ---------------------------------------------------------------------------
# 4. Batch kinetics against an adaptive ODE oracle
# ---------------------------------------------------------------------------

def test_criterion_04_batch_kinetics_oracle(capsys):
    t0 = time.perf_counter()
    k_sa = 2.6e-3 * 1e-3 / 3600.0                     # L/h/m^2 in SI
    params = KineticParams(k_sa=k_sa, specific_area=2.3e4, stoichiometry=0.85)
    checks = []

    # unit-conversion check: first-order constant at 1 kg/m^3 iron
    checks.append(("rate constant 0.0598 per hour",
                   params.rate_coefficient * 3600.0
                   == pytest.approx(0.0598, rel=1e-3)))

    kk, x = params.rate_coefficient, 0.85
    c0, r0 = 1.1, 3.0

    def rhs(t, y):
        c, r = y
        return [-kk * r * c, -x * kk * r * c]

    t_end = 10.0 * np.log(2.0) / (kk * (r0 - x * c0))  # ~10 half-lives
    ref = solve_ivp(rhs, (0.0, t_end), [c0, r0], rtol=1e-12, atol=1e-14)
    c1, r1 = reactive_step(np.array(c0), np.array(r0), params, t_end)
    checks.append(("aqueous within 0.1 % of oracle",
                   float(c1) == pytest.approx(ref.y[0, -1], rel=1e-3)))
    checks.append(("iron within 0.1 % of oracle",
                   float(r1) == pytest.approx(ref.y[1, -1], rel=1e-3)))
    checks.append(("runtime < 1 s", time.perf_counter() - t0 < 1.0))
    _finish(4, "batch kinetics vs adaptive ODE oracle", checks, capsys)


# ---------------------------------------------------------------------------
# 5. Two-phase gravity column against a 10x-refined reference
# ---------------------------------------------------------------------------

def _gravity_column(dy: float):
    g = build_grid((0.2, 8.0), (0.2, dy))
    lith = np.zeros((g.ny, g.nx), dtype=int)
    props = LithologyCfg(permeability=1e-12, porosity=0.4, swr=0.08, snr=0.08,
                         entry_pressure=1300.0, bc_lambda=2.0)
    m = MaterialMap(grid=g, lithology=lith, props={0: props})
    fl = FluidProps()
    st = hydrostatic_two_phase(g, fl)
    _, yv = g.cell_centers()
    st.sn[yv > 7.0] = 0.4                             # 1 m slug at the top
    st.sw = 1.0 - st.sn
    stepper = ImpesStepper(m, fl, Numerics())
    m0 = stepper.napl_mass(st)
    t, t_end = 0.0, 4.0 * DAY
    while t < t_end - 1e-6:
        t += stepper.substep(st, t_end - t)
    mass_err = abs(stepper.napl_mass(st) - m0) / m0

    prof = st.sn.mean(axis=1)
    thr = 0.05
    j = int(np.nonzero(prof >= thr)[0][0])            # deepest occupied cell
    if j == 0:
        front = g.yc[0]
    else:                                             # interpolate the crossing
        front = g.yc[j] - dy * (prof[j] - thr) / (prof[j] - prof[j - 1])
    return float(front), float(mass_err), g.height


def test_criterion_05_gravity_column_refinement(capsys):
    t0 = time.perf_counter()
    front_c, mass_c, height = _gravity_column(0.2)
    front_f, mass_f, _ = _gravity_column(0.02)
    front_err = abs(front_c - front_f) / height
    checks = [
        ("front within 3 % of refined reference", front_err <= 0.03),
        ("coarse mass conservation <= 0.5 %", mass_c <= 5e-3),
        ("refined mass conservation <= 0.5 %", mass_f <= 5e-3),
        ("runtime < 60 s", time.perf_counter() - t0 < 60.0),
    ]
    _finish(5, f"two-phase gravity column vs refined (front {front_err:.3%})",
            checks, capsys)


# ---------------------------------------------------------------------------
# 6. Layer-mean Darcy velocities across random-field seeds
# ---------------------------------------------------------------------------

def test_criterion_06_darcy_velocity_bands(capsys):
    t0 = time.perf_counter()
    cfg = RunConfig.default()
    passes = 0
    means = []
    for seed in range(10):
        s = Scenario.build(cfg, seed)
        g, m = s.grid, s.material
        flow = solve_pressure(
            g, m.k, np.full_like(m.k, s.fluids.mu_w),
            FlowBC(cfg.head_left, cfg.head_right),
            rho=s.fluids.rho_w, g=s.fluids.g,
        )
        vx, _ = flow.cell_velocity()
        cm_day = vx * 100.0 * DAY
        upper = float(cm_day[m.layer_mask(upper=True) & m.sand_mask].mean())
        lower = float(cm_day[m.layer_mask(upper=False) & m.sand_mask].mean())
        means.append((upper, lower))
        if _in(upper, 1.4, 5.5) and _in(lower, 1.4, 3.8):
            passes += 1
    checks = [
        (f"bands met for >= 9 of 10 seeds (got {passes})", passes >= 9),
        ("runtime < 2 min", time.perf_counter() - t0 < 120.0),
    ]
    u, lo = np.array(means).mean(axis=0)
    _finish(6, f"layer-mean Darcy velocity bands (avg {u:.2f}/{lo:.2f} cm/day)",
            checks, capsys)


# ---------------------------------------------------------------------------
# 7. NAPL release structure at 135 d on the default configuration
# ---------------------------------------------------------------------------

def test_criterion_07_release_structure(scn, staged, capsys):
    res, wall = staged[1]
    sn = res.checkpoint.fields["sn"]
    lith = scn.material.lithology
    stats = res.diagnostics["source_zone"]
    pool = sn >= scn.config.pool_threshold

    atop_clay = bool((pool[1:, :] & (lith[:-1, :] == CLAY)).any())
    at_bedrock = bool(pool[0, :].any())
    checks = [
        ("mass balance <= 0.5 %", res.audit["napl"] <= 5e-3),
        ("no NAPL inside clay", float(sn[lith == CLAY].max()) < 1e-6),
        ("pool atop a clay lens", atop_clay),
        ("pool at bedrock", at_bedrock),
        ("pool mass fraction in [0.15, 0.5]",
         _in(stats.pool_fraction, 0.15, 0.5)),
        ("runtime < 15 min", wall < 900.0),
    ]
    _finish(7, f"NAPL release structure at 135 d "
               f"(pool fraction {stats.pool_fraction:.3f})", checks, capsys)


# ---------------------------------------------------------------------------
# 8. Dissolution trends over 11 years
# ---------------------------------------------------------------------------

def test_criterion_08_dissolution_trends(scn, staged, capsys):
    res, wall = staged[2]
    fractions = [row[2] for row in res.series]
    frac_end = res.diagnostics["undissolved_fraction"]
    c = res.checkpoint.fields["c_tce"]
    sn = res.checkpoint.fields["sn"]
    cs = scn.config.solubility
    near_source = c[sn > 1e-3]
    checks = [
        ("mass balance <= 0.5 %", res.audit["tce"] <= 5e-3),
        ("undissolved fraction monotone non-increasing",
         _monotone(fractions, direction=-1)),
        ("fraction at 11 y in [0.10, 0.40]", _in(frac_end, 0.10, 0.40)),
        ("near-source water at solubility",
         near_source.size > 0
         and float(near_source.min()) >= 0.99 * cs
         and float(c.max()) <= cs * (1.0 + 1e-9)),
        ("runtime < 30 min", wall < 1800.0),
    ]
    _finish(8, f"dissolution trends over 11 y "
               f"(undissolved {frac_end:.3f})", checks, capsys)


# ---------------------------------------------------------------------------
# 9. Injection: filtration, clogging feedback and radius of influence
# ---------------------------------------------------------------------------

def test_criterion_09_injection_suite(scn, staged, capsys):
    res, wall = staged[3]
    d = res.diagnostics
    s_series = [row[2] for row in res.series]
    s_bulk = res.checkpoint.fields["s_bulk"]
    k_ckpt = res.checkpoint.fields["k"]

    # hand-verify the clogging closure at the most clogged cell
    cfg = scn.config
    j, i = np.unravel_index(np.argmax(s_bulk), s_bulk.shape)
    vol = s_bulk[j, i] / cfg.particle_density
    theta0 = scn.material.porosity[j, i]
    k0 = scn.material.k[j, i]
    a = cfg.a0 + cfg.zvi_specific_area * cfg.gamma * vol
    k_hand = k0 * ((theta0 - vol) / theta0) ** 3 * (cfg.a0 / a) ** 2
    checks = [
        ("nZVI mass balance <= 0.1 %", res.audit["nzvi"] <= 1e-3),
        ("deposited mass non-decreasing", _monotone(s_series, direction=+1)),
        ("radius of influence in [0.5, 2.0] m", _in(d["roi"], 0.5, 2.0)),
        ("max permeability decline in [2 %, 8 %]",
         _in(d["max_k_reduction"], 0.02, 0.08)),
        ("max porosity decline in [0.05 %, 0.3 %]",
         _in(d["max_theta_reduction"], 5e-4, 3e-3)),
        ("clogging closure hand-verified",
         float(k_ckpt[j, i]) == pytest.approx(k_hand, rel=1e-12)),
        ("upgradient flux reversal detected", bool(d["flux_reversed"])),
        ("runtime < 10 min", wall < 600.0),
    ]
    _finish(9, f"injection suite (ROI {d['roi']:.2f} m, "
               f"dk {d['max_k_reduction']:.3%})", checks, capsys)


# ---------------------------------------------------------------------------
# 10. Degradation: stoichiometry, monitoring dip, zero-rate null test
# ---------------------------------------------------------------------------

def test_criterion_10_degradation_suite(scn, staged, capsys):
    t0 = time.perf_counter()
    res, wall = staged[4]
    d = res.diagnostics
    cs = scn.config.solubility
    iron_consumed = d["iron_initial"] - d["iron_final"]
    ratio = iron_consumed / d["degraded_mass"]
    iron_series = [row[1] for row in res.series]

    # monitoring-well concentration history
    mon_pre = float(staged[3][0].checkpoint.fields["c_tce"][
        scn.monitoring_cells()["monitoring"][::-1]])
    times = np.array([row[0] for row in res.series]) / DAY
    c_mon = np.array([row[2] for row in res.series])
    below = times[c_mon < 0.01 * cs]
    dip_ok = below.size > 0 and 100.0 <= float(below[0]) <= 250.0
    recovery_ok = float(c_mon[-1]) < mon_pre

    # downgradient clean-water zone at the injection depth while iron remains
    iw, jw = scn.well_cells["injection"][0]
    pv = res.checkpoint.fields["theta_m"] * scn.grid.cell_volume
    zone_ok = any(
        float((f["rho_m"] * pv).sum()) > 0.01 * d["iron_initial"]
        and bool((f["c_tce"][jw, iw + 1:] < 0.01 * cs).any())
        for _, f in res.snapshots
    )

    # zeroed rate constant must reproduce the no-reaction continuation bitwise
    cfg0 = RunConfig.from_text(scn.config.source_text.replace(
        "k_sa = 2.6e-3 L/h/m^2", "k_sa = 0 L/h/m^2"))
    scn0 = Scenario.build(cfg0, scn.seed)
    ckpt3 = staged[3][0].checkpoint
    null_run = run_stage4(scn0, ckpt3)
    continuation = run_stage4(scn, ckpt3, reactive=False)
    null_ok = all(
        np.array_equal(null_run.checkpoint.fields[name],
                       continuation.checkpoint.fields[name])
        for name in null_run.checkpoint.fields
    )

    checks = [
        ("stoichiometric ledger ratio 0.85 +/- 0.1 %",
         ratio == pytest.approx(0.85, rel=1e-3)),
        ("unreacted iron monotone non-increasing",
         _monotone(iron_series, direction=-1)),
        ("downgradient clean-water zone while iron remains", zone_ok),
        ("monitoring dip below 1 % solubility within [100, 250] d", dip_ok),
        ("monitoring recovery stays below pre-injection level", recovery_ok),
        ("zero-rate null test bitwise", null_ok),
        ("runtime < 30 min", wall + (time.perf_counter() - t0) < 1800.0),
    ]
    _finish(10, f"degradation suite (ledger ratio {ratio:.5f})", checks, capsys)


# ---------------------------------------------------------------------------
# 11. Determinism: identical runs give byte-identical checkpoints
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, capsys):
    cfg = RunConfig.default()
    pipeline_run(cfg, [1, 2, 3, 4], tmp_path / "a", seed=0, export=None)
    pipeline_run(cfg, [1, 2, 3, 4], tmp_path / "b", seed=0, export=None)
    same = all(
        checkpoint_path(tmp_path / "a", stage).read_bytes()
        == checkpoint_path(tmp_path / "b", stage).read_bytes()
        for stage in (1, 2, 3, 4)
    )
    _finish(11, "determinism: byte-identical checkpoints across runs",
            [("all four checkpoints byte-identical", same)], capsys)
