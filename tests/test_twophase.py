import numpy as np
import pytest

from remsim.config import LithologyCfg, RunConfig
from remsim.flow import FACES, FactorCache, SolverError, _harmonic, lateral_heads, scatter_faces
from remsim.grid import MaterialMap, build_grid
from remsim.scenario import Scenario
from remsim.stages import _chunks, _mass, initial_checkpoint, run_stage1, source_zone_stats
from remsim.twophase import (
    LIMITS,
    MAX_DS,
    SAT_TOL,
    SE_CLAMP,
    TWO_PHASE_CFL,
    ImpesStepper,
    capillary_pressure,
    hydrostatic_two_phase,
    interface_block_mask,
    rel_perm,
    water_mobility,
)
from tests.test_pipeline import fast_config_text
from tests.test_stages import every_limit_config_text

# fluids of the unit problems
CONFIG = RunConfig.default()


def impes_step(state, material, dt, source=None, stepper=None):
    """Advance a copy of the field state ``state`` by ``dt`` under the NAPL
    ``source``, sub-stepping as the stability bounds require."""
    if stepper is None:
        stepper = ImpesStepper(material, CONFIG)
    out = dict(state)
    t = 0.0
    while t < dt - 1e-9:
        t += stepper.substep(out, dt - t, source)
    return out


def clamped_saturation(sw, material):
    """Se = (Sw - Swr) / (1 - Swr - Snr), clamped to [SE_CLAMP, 1]: the
    saturation the capillary pressure sees."""
    m = material
    return np.clip((sw - m.swr) / (1.0 - m.swr - m.snr), SE_CLAMP, 1.0)


class ReferenceStepper:
    """Whole-grid IMPES sub-steps, the form the column window replaced: the
    closures, face terms, bounds and saturation update cover every cell, and
    the entry-pressure rule also asks for a change of lithology."""

    def __init__(self, material, config=CONFIG):
        grid = material.grid
        self.grid, self.material, self.config = grid, material, config
        self.cache = FactorCache()
        k = material.k
        self.kfx = _harmonic(k[:, :-1], k[:, 1:]) * grid.dy / grid.dx
        self.kfy = _harmonic(k[:-1, :], k[1:, :]) * grid.dx / grid.dy
        self.pore_vol = material.porosity * grid.cell_volume
        self.limits = dict.fromkeys(LIMITS, 0)

    def closures(self, state):
        m = self.material
        sw = 1.0 - state["sn"]
        se_pc = clamped_saturation(sw, m)
        se_kr = np.clip((sw - m.swr) / (1.0 - m.swr - m.snr), 0.0, 1.0)
        pc = capillary_pressure(se_pc, m.entry_pressure, m.bc_lambda)
        krw, krn = rel_perm(se_kr, m.bc_lambda)
        return pc, krw, krn

    def face_quantities(self, state, pc, krw, krn):
        c, m = self.config, self.material
        pw = state["pw"]
        pn = pw + pc
        pd, lith = m.entry_pressure, m.lithology
        faces = []
        for (lo, hi), kf, dz in zip(FACES, (self.kfx, self.kfy), (0.0, self.grid.dy)):
            up_w = pw[hi] - pw[lo] + c.rho_w * c.gravity * dz < 0
            up_n = pn[hi] - pn[lo] + c.rho_n * c.gravity * dz < 0
            blocked = (lith[lo] != lith[hi]) & np.where(
                up_n,
                interface_block_mask(pd[lo], pd[hi], pc[lo]),
                interface_block_mask(pd[hi], pd[lo], pc[hi]),
            )
            krn_f = np.where(blocked, 0.0, np.where(up_n, krn[lo], krn[hi]))
            lw = kf * np.where(up_w, krw[lo], krw[hi]) / c.mu_w
            faces.append((lw, kf * krn_f / c.mu_n, np.full_like(lw, c.rho_w * c.gravity * dz),
                          pc[hi] - pc[lo] + c.rho_n * c.gravity * dz))
        return faces

    def solve_pressure(self, krw, fx, fy, source):
        g, c = self.grid, self.config
        lw_x, ln_x, gw_x, gn_x = fx
        lw_y, ln_y, gw_y, gn_y = fy
        d, b = lateral_heads(g, self.material.k * krw / c.mu_w, g.height, g.height, c.rho_w,
                             c.gravity)
        if source is not None:
            b += source * g.cell_volume
        return self.cache.solve(lw_x + ln_x, lw_y + ln_y,
                                lw_x * gw_x + ln_x * gn_x, lw_y * gw_y + ln_y * gn_y, d, b)

    def stable_dt(self, state, out, fn_x, fn_y, fx, fy, dt_target, source):
        m, pv = self.material, self.pore_vol
        inflow = scatter_faces(np.zeros_like(out), np.maximum(-fn_x, 0.0), np.maximum(fn_x, 0.0),
                               np.maximum(-fn_y, 0.0), np.maximum(fn_y, 0.0))
        if source is not None:
            inflow += source * self.grid.cell_volume
        with np.errstate(divide="ignore"):
            dt_adv = np.where(out > 0, MAX_DS * pv / out, np.inf).min()
            avail = np.maximum(1.0 - m.swr - state["sn"], 0.02)
            dt_in = np.where(inflow > 0, TWO_PHASE_CFL * avail * pv / inflow, np.inf).min()
        se = clamped_saturation(1.0 - state["sn"], m)
        dpc = (m.entry_pressure / m.bc_lambda * se ** (-1.0 / m.bc_lambda - 1.0)
               / (1.0 - m.swr - m.snr))
        with np.errstate(invalid="ignore"):
            g_x, g_y = (np.where(lw + ln > 0, lw * ln / (lw + ln), 0.0)
                        * np.maximum(dpc[lo], dpc[hi])
                        for (lo, hi), (lw, ln, _, _) in zip(FACES, (fx, fy)))
        cond = scatter_faces(np.zeros_like(out), g_x, g_x, g_y, g_y)
        with np.errstate(divide="ignore"):
            dt_cap = np.where(cond > 0, TWO_PHASE_CFL * pv / cond, np.inf).min()
        bounds = dict(zip(LIMITS, (dt_adv, dt_in, dt_cap, dt_target)))
        limit = min(bounds, key=bounds.get)
        return float(bounds[limit]), limit

    def substep(self, state, dt_target, source=None):
        pc, krw, krn = self.closures(state)
        fx, fy = self.face_quantities(state, pc, krw, krn)
        pw = self.solve_pressure(krw, fx, fy, source)
        fn_x, fn_y = (-ln * ((pw[hi] - pw[lo]) + gn)
                      for (lo, hi), (_, ln, _, gn) in zip(FACES, (fx, fy)))
        out = scatter_faces(np.zeros_like(state["sn"]),
                            np.maximum(fn_x, 0.0), np.maximum(-fn_x, 0.0),
                            np.maximum(fn_y, 0.0), np.maximum(-fn_y, 0.0))
        dt, limit = self.stable_dt(state, out, fn_x, fn_y, fx, fy, dt_target, source)
        self.limits[limit] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(out * dt > 0,
                             np.minimum(1.0, state["sn"] * self.pore_vol / (out * dt)), 1.0)
        fn_x, fn_y = (fn * np.where(fn > 0, scale[lo], scale[hi])
                      for (lo, hi), fn in zip(FACES, (fn_x, fn_y)))
        div = scatter_faces(np.zeros_like(state["sn"]), fn_x, -fn_x, fn_y, -fn_y)
        dsn = -div * dt / self.pore_vol
        if source is not None:
            dsn += source * dt * self.grid.cell_volume / self.pore_vol
        sn = state["sn"] + dsn
        if sn.min() < -10 * SAT_TOL or sn.max() > 1.0 + 10 * SAT_TOL:
            raise SolverError(
                f"saturation out of bounds: [{sn.min():.3e}, {sn.max():.3e}]")
        np.clip(sn, 0.0, 1.0, out=sn)
        state["sn"], state["pw"] = sn, pw
        return dt


def napl_mass(material, state):
    """NAPL mass (kg/m) of the field state ``state`` on ``material``."""
    return _mass({"theta_m": material.porosity}, state["sn"], material.grid.cell_volume) * CONFIG.rho_n


def homogeneous(grid, **over):
    props = dict(
        permeability=1e-12, porosity=0.4, swr=0.08, snr=0.08,
        entry_pressure=1300.0, bc_lambda=2.0,
    )
    props.update(over)
    lith = np.zeros((grid.ny, grid.nx), dtype=int)
    return MaterialMap(grid=grid, lithology=lith, props={0: LithologyCfg(**props)},
                       split_elevation=grid.height / 2)


def one_cell_closures(sn):
    """``ImpesStepper.closures`` of one homogeneous cell holding ``sn``."""
    stepper = ImpesStepper(homogeneous(build_grid((1.0, 1.0), (1.0, 1.0))), CONFIG)
    return [a[0, 0] for a in stepper.closures({"sn": np.array([[sn]])}, slice(0, 1))]


class TestClosures:
    def test_effective_saturation_hand_value(self):
        # Se = (0.54 - 0.08) / (1 - 0.08 - 0.08) at sw = 0.54; lambda = 2
        se = 0.46 / 0.84
        pc, _, krw, _ = one_cell_closures(0.46)
        assert pc == pytest.approx(1300.0 * se ** -0.5, rel=1e-12)
        assert krw == pytest.approx(se ** 4, rel=1e-12)

    def test_pc_endpoint_is_entry_pressure(self):
        assert capillary_pressure(1.0, 1300.0, 2.0) == pytest.approx(1300.0, rel=1e-12)

    def test_pc_power_law(self):
        # Se = 0.25, lambda = 2 -> pd * 0.25^-0.5 = 2 pd
        assert capillary_pressure(0.25, 1500.0, 2.0) == pytest.approx(3000.0, rel=1e-12)

    def test_pc_clamped_near_residual(self):
        # sw = 0.08, at residual: the relative permeabilities see Se = 0 and
        # the capillary pressure Se = SE_CLAMP = 0.01
        pc, _, krw, krn = one_cell_closures(0.92)
        assert SE_CLAMP == 0.01
        assert pc == pytest.approx(1300.0 * 0.01 ** -0.5, rel=1e-12)
        assert (krw, krn) == (0.0, 1.0)

    def test_rel_perm_hand_values(self):
        # lambda = 2: krw = Se^4, krn = (1-Se)^2 (1 - Se^2)
        krw, krn = rel_perm(0.5, 2.0)
        assert krw == pytest.approx(0.0625, rel=1e-12)
        assert krn == pytest.approx(0.1875, rel=1e-12)

    def test_rel_perm_endpoints(self):
        krw0, krn0 = rel_perm(0.0, 2.0)
        krw1, krn1 = rel_perm(1.0, 2.0)
        assert (krw0, krn0) == (0.0, 1.0)
        assert (krw1, krn1) == (1.0, 0.0)

    def test_water_mobility_is_the_closures_krw(self):
        # the water mobility of stages 2-4 is the krw of stage 1's closures,
        # floored at 1e-6, on the state stage 1 hands on
        scn = Scenario.build(RunConfig.from_text(fast_config_text()), 0)
        f = run_stage1(scn, initial_checkpoint(scn)).checkpoint.fields
        _, _, krw, _ = ImpesStepper(scn.material, scn.config).closures(f, slice(0, scn.grid.nx))
        mobility = water_mobility(f["sn"], scn.material)
        assert (mobility < 1.0).any()
        assert mobility.tobytes() == np.maximum(krw, 1e-6).tobytes()


class TestInterfaceRule:
    def test_blocked_into_finer(self):
        # sand (pc = 2000) above clay (pd = 3200): no invasion yet
        assert interface_block_mask(1300.0, 3200.0, np.array(2000.0))

    def test_permitted_once_entry_exceeded(self):
        assert not interface_block_mask(1300.0, 3200.0, np.array(3300.0))

    def test_permitted_into_slightly_finer_sand(self):
        # upper sand pc = 1600 above lower sand pd = 1500
        assert not interface_block_mask(1300.0, 1500.0, np.array(1600.0))

    def test_inactive_same_lithology(self):
        assert not interface_block_mask(1300.0, 1300.0, np.array(100.0))

    def test_inactive_into_coarser(self):
        assert not interface_block_mask(1500.0, 1300.0, np.array(100.0))

    @pytest.mark.parametrize("text", [RunConfig.default().source_text, fast_config_text()],
                             ids=["default", "fast"])
    def test_finer_receiver_is_another_lithology(self, text):
        # the rule reads entry pressures alone: a scenario's material sets one
        # entry pressure per lithology, so a finer receiver is another lithology
        m = Scenario.build(RunConfig.from_text(text), 0).material
        for lid in m.props:
            assert np.unique(m.entry_pressure[m.lithology == lid]).size == 1
        pd, lith = m.entry_pressure, m.lithology
        finer = 0
        for lo, hi in FACES:
            for up, recv in ((lo, hi), (hi, lo)):
                rises = pd[recv] > pd[up]
                assert (lith[recv][rises] != lith[up][rises]).all()
                finer += int(rises.sum())
        assert finer > 0


class TestHydrostaticState:
    def test_initial_state(self):
        g = build_grid((1.0, 12.0), (0.5, 0.5))
        st = hydrostatic_two_phase(g, CONFIG)
        assert set(st) == {"sn", "pw"} and (st["sn"] == 0.0).all()
        assert st["pw"][0, 0] == pytest.approx(1000.0 * 9.81 * 11.75)


class TestStepping:
    def test_equilibrium_no_op(self):
        g = build_grid((2.0, 4.0), (0.5, 0.5))
        m = homogeneous(g)
        st = hydrostatic_two_phase(g, CONFIG)
        out = impes_step(st, m, dt=86400.0)
        assert (out["sn"] == 0.0).all()
        np.testing.assert_allclose(out["pw"], st["pw"], atol=1e-6)

    def test_zero_infiltration_stays_napl_free(self):
        g = build_grid((2.0, 4.0), (0.5, 0.5))
        m = homogeneous(g)
        st = hydrostatic_two_phase(g, CONFIG)
        out = impes_step(st, m, dt=5 * 86400.0)
        assert (out["sn"] == 0.0).all()

    def test_injected_mass_linear_in_time(self):
        g = build_grid((2.0, 4.0), (0.5, 0.5))
        m = homogeneous(g)
        src = np.zeros((g.ny, g.nx))
        flux = 1e-3  # kg/m^2/s over one top cell
        src[-1, 2] = flux / (CONFIG.rho_n * g.dy)
        st = hydrostatic_two_phase(g, CONFIG)
        t = 3600.0
        st = impes_step(st, m, dt=t, source=src)
        assert napl_mass(m, st) == pytest.approx(flux * g.dx * t, rel=1e-9)

    def test_mass_conserved_without_source(self):
        g = build_grid((2.0, 4.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=500.0)
        st = hydrostatic_two_phase(g, CONFIG)
        st["sn"][-3:, 4:6] = 0.3
        stepper = ImpesStepper(m, CONFIG)
        m0 = napl_mass(m, st)
        out = impes_step(st, m, dt=86400.0, stepper=stepper)
        assert napl_mass(m, out) == pytest.approx(m0, rel=1e-12)

    def test_saturation_bounds_held(self):
        g = build_grid((2.0, 4.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=500.0)
        st = hydrostatic_two_phase(g, CONFIG)
        st["sn"][-3:, 4:6] = 0.5
        out = impes_step(st, m, dt=2 * 86400.0)
        assert out["sn"].min() >= 0.0
        assert out["sn"].max() <= 1.0 - m.swr.min() + 1e-9

    def test_gravity_sinks_center_of_mass(self):
        # negligible capillarity: slug falls monotonically until bedrock
        g = build_grid((1.0, 8.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=10.0, swr=0.05, snr=0.0)
        st = hydrostatic_two_phase(g, CONFIG)
        st["sn"][-5:, :] = 0.4
        stepper = ImpesStepper(m, CONFIG)
        _, yv = g.cell_centers()

        def com(s):
            return float((s["sn"] * yv).sum() / s["sn"].sum())

        heights = [com(st)]
        for _ in range(10):
            st = impes_step(st, m, dt=43200.0, stepper=stepper)
            heights.append(com(st))
        drops = np.diff(heights)
        assert (drops <= 1e-9).all()
        assert heights[-1] < heights[0] - 1.0

    def test_substep_names_its_limit(self):
        # a falling slug: a sub-step of a long target is advection-bound, and
        # a target equal to that bound still names advection (ties go to it)
        g = build_grid((1.0, 8.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=10.0, swr=0.05, snr=0.0)

        def slug():
            st = hydrostatic_two_phase(g, CONFIG)
            st["sn"][-5:, :] = 0.4
            return st

        free = ImpesStepper(m, CONFIG)
        dt = free.substep(slug(), 43200.0)
        assert dt < 43200.0
        assert free.limits == {"advection": 1, "inflow": 0, "capillary": 0, "chunk_end": 0}
        tie = ImpesStepper(m, CONFIG)
        assert tie.substep(slug(), dt) == dt
        assert tie.limits["advection"] == 1
        short = ImpesStepper(m, CONFIG)
        short.substep(slug(), dt / 2)
        assert short.limits["chunk_end"] == 1

    def test_clay_interface_blocks_invasion(self):
        # coarse over a very fine layer: NAPL pools, never enters
        g = build_grid((1.0, 4.0), (0.2, 0.2))
        lith = np.zeros((g.ny, g.nx), dtype=int)
        lith[:10, :] = 2
        sand = LithologyCfg(1e-12, 0.4, 0.08, 0.08, 500.0, 2.0)
        clay = LithologyCfg(5e-14, 0.25, 0.189, 0.04, 1e9, 2.0)
        m = MaterialMap(grid=g, lithology=lith, props={0: sand, 2: clay}, split_elevation=2.0)
        st = hydrostatic_two_phase(g, CONFIG)
        st["sn"][-4:, :] = 0.5
        stepper = ImpesStepper(m, CONFIG)
        out = impes_step(st, m, dt=5 * 86400.0, stepper=stepper)
        assert out["sn"][:10, :].max() == 0.0
        assert out["sn"][10, :].max() > 0.05  # pooled on the interface


class TestSourceZoneStats:
    def test_empty_field(self):
        g = build_grid((1.0, 1.0), (0.5, 0.5))
        m = homogeneous(g)
        s = source_zone_stats({"sn": np.zeros((g.ny, g.nx)), "theta_m": m.porosity}, m, 1470.0)
        assert s.total_mass == 0.0

    def test_fractions_sum_to_one(self):
        g = build_grid((2.0, 8.0), (0.5, 0.5))
        m = homogeneous(g)
        rng = np.random.default_rng(0)
        sn = rng.uniform(0.0, 0.6, (g.ny, g.nx))
        s = source_zone_stats({"sn": sn, "theta_m": m.porosity}, m, 1470.0)
        assert s.pool_fraction + s.ganglia_fraction == pytest.approx(1.0, rel=1e-12)
        assert s.upper_fraction + s.lower_fraction == pytest.approx(1.0, rel=1e-12)

    def test_pool_threshold(self):
        g = build_grid((1.0, 1.0), (0.5, 0.5))
        m = homogeneous(g)
        sn = np.array([[0.5, 0.0], [0.0, 0.1]])
        s = source_zone_stats({"sn": sn, "theta_m": m.porosity}, m, 1470.0)
        assert s.pool_fraction == pytest.approx(0.5 / 0.6, rel=1e-12)


def lockstep(state, stepper, reference, segments):
    """Advance one copy of ``state`` with the windowed ``stepper`` and another
    with its ``reference``, through ``segments`` = ``[(source, t_stop), ...]``
    from t = 0: each segment sub-steps under its NAPL ``source`` until
    ``t_stop``.  Asserts after every sub-step that dt, the limit counts,
    ``sn`` and ``pw`` agree bit for bit.  Returns the
    windowed state and the number of sub-steps."""
    ours, ref = dict(state), dict(state)
    t, substeps = 0.0, 0
    for source, t_stop in segments:
        while t < t_stop - 1e-6:
            dt = stepper.substep(ours, t_stop - t, source)
            assert reference.substep(ref, t_stop - t, source) == dt
            assert stepper.limits == reference.limits
            for name in ("sn", "pw"):
                a, b = ours[name], ref[name]
                assert a.tobytes() == b.tobytes(), (name, substeps, np.abs(a - b).max())
            t += dt
            substeps += 1
        t = t_stop
    return ours, substeps


def pair(material, config=CONFIG):
    """A windowed stepper and its whole-grid reference, each with its own cache."""
    return ImpesStepper(material, config), ReferenceStepper(material, config)


class TestWindow:
    """Each case runs the windowed stepper against :class:`ReferenceStepper`."""

    g = build_grid((3.0, 2.0), (0.2, 0.2))   # 15 x 10 cells

    def slug(self, cols, sn=0.4):
        st = hydrostatic_two_phase(self.g, CONFIG)
        st["sn"][-4:, cols] = sn
        return st

    @pytest.mark.parametrize("cols", [np.s_[:2], np.s_[-2:]], ids=["column 0", "column nx-1"])
    def test_napl_at_the_grid_edge(self, cols):
        m = homogeneous(self.g, entry_pressure=500.0)
        stepper, reference = pair(m)
        out, substeps = lockstep(self.slug(cols), stepper, reference, [(None, 86400.0)])
        assert substeps >= 5
        # the NAPL spreads into a third column; clipped at the grid edge, the
        # window C adds one column to it
        assert (out["sn"][:, 2] > 0).any() if cols == np.s_[:2] else (out["sn"][:, -3] > 0).any()
        assert stepper.window_max == 4

    def test_no_napl_and_no_source(self):
        stepper, reference = pair(homogeneous(self.g))
        st = hydrostatic_two_phase(self.g, CONFIG)
        out, substeps = lockstep(st, stepper, reference,
                                 [(None, t) for t in (600.0, 1200.0, 3600.0)])
        assert substeps == 3 and stepper.limits["chunk_end"] == 3
        assert (stepper.window_columns, stepper.window_max) == (3, 1)
        assert (out["sn"] == 0.0).all()

    def test_source_on_then_off(self):
        m = homogeneous(self.g, entry_pressure=500.0)
        src = np.zeros((self.g.ny, self.g.nx))
        flux = 0.02  # kg/m^2/s over one top cell
        src[-1, 7] = flux / (CONFIG.rho_n * self.g.dy)
        stepper, reference = pair(m)
        on, _ = lockstep(self.slug(np.s_[:0]), stepper, reference, [(src, 3600.0), (src, 7200.0)])
        assert stepper.limits["inflow"] >= 1
        released = flux * self.g.dx * 7200.0
        assert napl_mass(m, on) == pytest.approx(released, rel=1e-12)
        # the same stepper, its source switched off
        out, substeps = lockstep(on, stepper, reference, [(None, 4 * 3600.0)])
        assert substeps >= 3
        assert napl_mass(m, out) == pytest.approx(released, rel=1e-12)

    def test_blocked_face_at_the_window_edge(self):
        # NAPL in the last sand column beside a finer layer: the face between
        # them stays blocked while the window reaches past it
        lith = np.zeros((self.g.ny, self.g.nx), dtype=int)
        lith[:, 7:] = 1
        sand = LithologyCfg(1e-11, 0.4, 0.08, 0.08, 500.0, 2.0)
        fine = LithologyCfg(1e-12, 0.35, 0.1, 0.05, 5000.0, 2.0)
        m = MaterialMap(grid=self.g, lithology=lith, props={0: sand, 1: fine},
                        split_elevation=self.g.height / 2)
        stepper, reference = pair(m)
        out, substeps = lockstep(self.slug(np.s_[5:7], sn=0.3), stepper, reference,
                                 [(None, 86400.0)])
        assert substeps >= 5
        assert out["sn"][:, 6].max() > 0.0 and out["sn"][:, 7:].max() == 0.0

    def test_every_limit_matches_reference(self):
        scn = Scenario.build(RunConfig.from_text(every_limit_config_text()), 0)
        cfg, source = scn.config, scn.napl_source_field()
        stepper, reference = pair(scn.material, cfg)
        # stage 1's chunks, the source on until the release ends
        duration = cfg.stage_durations[0]
        marks = set(cfg.snapshots[0]) | {cfg.infil_duration, duration - 10 * 86400.0}
        lockstep(hydrostatic_two_phase(scn.grid, cfg), stepper, reference,
                 [(source if t <= cfg.infil_duration else None, t)
                  for t in _chunks(duration, marks)])
        assert all(stepper.limits[name] >= 1 for name in LIMITS)

    def test_saturation_guard_raises_as_reference(self):
        st = self.slug(np.s_[3:5], sn=1.5)
        for stepper in pair(homogeneous(self.g)):
            with pytest.raises(SolverError, match=r"saturation out of bounds: \[0.000e\+00, 1.5"):
                stepper.substep(dict(st), 3600.0)
