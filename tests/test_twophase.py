import numpy as np
import pytest

from remsim.config import LithologyCfg
from remsim.grid import MaterialMap, build_grid
from remsim.twophase import (
    FluidProps,
    ImpesStepper,
    Numerics,
    TwoPhaseBC,
    TwoPhaseState,
    capillary_pressure,
    effective_saturation,
    hydrostatic_two_phase,
    interface_block_mask,
    rel_perm,
    source_zone_stats,
)


def impes_step(state, material, fluids, bc, dt, numerics=Numerics(), stepper=None):
    """Advance a copy of ``state`` by ``dt``, sub-stepping as the CFL bound requires."""
    if stepper is None:
        stepper = ImpesStepper(material.grid, material, fluids, bc, numerics)
    out = TwoPhaseState(state.sw.copy(), state.sn.copy(), state.pw.copy(), state.clock)
    t_end = state.clock + dt
    while out.clock < t_end - 1e-9:
        stepper.substep(out, t_end - out.clock)
    return out


def homogeneous(grid, **over):
    props = dict(
        permeability=1e-12, porosity=0.4, swr=0.08, snr=0.08,
        entry_pressure=1300.0, bc_lambda=2.0,
    )
    props.update(over)
    lith = np.zeros((grid.ny, grid.nx), dtype=int)
    return MaterialMap(grid=grid, lithology=lith, props={0: LithologyCfg(**props)})


class TestClosures:
    def test_effective_saturation_hand_value(self):
        # (0.54 - 0.08) / (1 - 0.08 - 0.08)
        assert effective_saturation(0.54, 0.08, 0.08) == pytest.approx(
            0.46 / 0.84, rel=1e-12
        )

    def test_pc_endpoint_is_entry_pressure(self):
        assert capillary_pressure(1.0, 1300.0, 2.0) == pytest.approx(1300.0, rel=1e-12)

    def test_pc_power_law(self):
        # Se = 0.25, lambda = 2 -> pd * 0.25^-0.5 = 2 pd
        assert capillary_pressure(0.25, 1500.0, 2.0) == pytest.approx(3000.0, rel=1e-12)

    def test_pc_clamped_near_residual(self):
        se = effective_saturation(0.08, 0.08, 0.08)  # at residual -> clamp 0.01
        assert se == 0.01
        assert capillary_pressure(se, 1300.0, 2.0) == pytest.approx(
            1300.0 * 0.01 ** -0.5, rel=1e-12
        )

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

    def test_fluid_props_validation(self):
        with pytest.raises(ValueError):
            FluidProps(mu_n=0.0)


class TestInterfaceRule:
    def test_blocked_into_finer(self):
        # sand (pc = 2000) above clay (pd = 3200): no invasion yet
        assert interface_block_mask(1300.0, 3200.0, np.array(2000.0), 0, 2)

    def test_permitted_once_entry_exceeded(self):
        assert not interface_block_mask(1300.0, 3200.0, np.array(3300.0), 0, 2)

    def test_permitted_into_slightly_finer_sand(self):
        # upper sand pc = 1600 above lower sand pd = 1500
        assert not interface_block_mask(1300.0, 1500.0, np.array(1600.0), 0, 1)

    def test_inactive_same_lithology(self):
        assert not interface_block_mask(1300.0, 1300.0, np.array(100.0), 0, 0)

    def test_inactive_into_coarser(self):
        assert not interface_block_mask(1500.0, 1300.0, np.array(100.0), 1, 0)


class TestHydrostaticState:
    def test_initial_state(self):
        g = build_grid((1.0, 12.0), (0.5, 0.5))
        st = hydrostatic_two_phase(g, FluidProps(), head=12.0)
        assert (st.sn == 0.0).all() and (st.sw == 1.0).all()
        assert st.pw[0, 0] == pytest.approx(1000.0 * 9.81 * 11.75)


class TestStepping:
    def test_equilibrium_no_op(self):
        g = build_grid((2.0, 4.0), (0.5, 0.5))
        m = homogeneous(g)
        st = hydrostatic_two_phase(g, FluidProps(), head=4.0)
        bc = TwoPhaseBC(head_left=4.0, head_right=4.0)
        out = impes_step(st, m, FluidProps(), bc, dt=86400.0)
        assert (out.sn == 0.0).all()
        np.testing.assert_allclose(out.pw, st.pw, atol=1e-6)

    def test_zero_infiltration_stays_napl_free(self):
        g = build_grid((2.0, 4.0), (0.5, 0.5))
        m = homogeneous(g)
        st = hydrostatic_two_phase(g, FluidProps(), head=4.0)
        out = impes_step(st, m, FluidProps(), TwoPhaseBC(4.0, 4.0), dt=5 * 86400.0)
        assert (out.sn == 0.0).all()

    def test_injected_mass_linear_in_time(self):
        g = build_grid((2.0, 4.0), (0.5, 0.5))
        m = homogeneous(g)
        fluids = FluidProps()
        src = np.zeros((g.ny, g.nx))
        flux = 1e-3  # kg/m^2/s over one top cell
        src[-1, 2] = flux / (fluids.rho_n * g.dy)
        bc = TwoPhaseBC(4.0, 4.0, napl_source=src)
        stepper = ImpesStepper(g, m, fluids, bc)
        st = hydrostatic_two_phase(g, fluids, head=4.0)
        t = 3600.0
        st = impes_step(st, m, fluids, bc, dt=t, stepper=stepper)
        expected = flux * g.dx * t
        assert stepper.injected_mass == pytest.approx(expected, rel=1e-12)
        assert stepper.napl_mass(st) == pytest.approx(expected, rel=1e-9)

    def test_mass_conserved_without_source(self):
        g = build_grid((2.0, 4.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=500.0)
        fluids = FluidProps()
        st = hydrostatic_two_phase(g, fluids, head=4.0)
        st.sn[-3:, 4:6] = 0.3
        st.sw = 1.0 - st.sn
        stepper = ImpesStepper(g, m, fluids, TwoPhaseBC(4.0, 4.0))
        m0 = stepper.napl_mass(st)
        out = impes_step(st, m, fluids, TwoPhaseBC(4.0, 4.0), dt=86400.0, stepper=stepper)
        assert stepper.napl_mass(out) == pytest.approx(m0, rel=1e-12)

    def test_saturation_bounds_held(self):
        g = build_grid((2.0, 4.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=500.0)
        fluids = FluidProps()
        st = hydrostatic_two_phase(g, fluids, head=4.0)
        st.sn[-3:, 4:6] = 0.5
        st.sw = 1.0 - st.sn
        out = impes_step(st, m, fluids, TwoPhaseBC(4.0, 4.0), dt=2 * 86400.0)
        assert out.sn.min() >= 0.0
        assert out.sn.max() <= 1.0 - m.swr.min() + 1e-9

    def test_gravity_sinks_center_of_mass(self):
        # negligible capillarity: slug falls monotonically until bedrock
        g = build_grid((1.0, 8.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=10.0, swr=0.05, snr=0.0)
        fluids = FluidProps()
        st = hydrostatic_two_phase(g, fluids, head=8.0)
        st.sn[-5:, :] = 0.4
        st.sw = 1.0 - st.sn
        bc = TwoPhaseBC(8.0, 8.0)
        stepper = ImpesStepper(g, m, fluids, bc)
        _, yv = g.cell_centers()

        def com(s):
            return float((s.sn * yv).sum() / s.sn.sum())

        heights = [com(st)]
        for _ in range(10):
            st = impes_step(st, m, fluids, bc, dt=43200.0, stepper=stepper)
            heights.append(com(st))
        drops = np.diff(heights)
        assert (drops <= 1e-9).all()
        assert heights[-1] < heights[0] - 1.0

    def test_substep_names_its_limit(self):
        # a falling slug: a sub-step of a long target is advection-bound, and
        # a target equal to that bound still names advection (ties go to it)
        g = build_grid((1.0, 8.0), (0.2, 0.2))
        m = homogeneous(g, entry_pressure=10.0, swr=0.05, snr=0.0)
        fluids = FluidProps()
        bc = TwoPhaseBC(8.0, 8.0)

        def slug():
            st = hydrostatic_two_phase(g, fluids, head=8.0)
            st.sn[-5:, :] = 0.4
            st.sw = 1.0 - st.sn
            return st

        free = ImpesStepper(g, m, fluids, bc)
        dt = free.substep(slug(), 43200.0)
        assert dt < 43200.0
        assert free.limits == {"advection": 1, "inflow": 0, "capillary": 0, "chunk_end": 0}
        tie = ImpesStepper(g, m, fluids, bc)
        assert tie.substep(slug(), dt) == dt
        assert tie.limits["advection"] == 1
        short = ImpesStepper(g, m, fluids, bc)
        short.substep(slug(), dt / 2)
        assert short.limits["chunk_end"] == 1

    def test_clay_interface_blocks_invasion(self):
        # coarse over a very fine layer: NAPL pools, never enters
        g = build_grid((1.0, 4.0), (0.2, 0.2))
        lith = np.zeros((g.ny, g.nx), dtype=int)
        lith[:10, :] = 2
        sand = LithologyCfg(1e-12, 0.4, 0.08, 0.08, 500.0, 2.0)
        clay = LithologyCfg(5e-14, 0.25, 0.189, 0.04, 1e9, 2.0)
        m = MaterialMap(grid=g, lithology=lith, props={0: sand, 2: clay})
        fluids = FluidProps()
        st = hydrostatic_two_phase(g, fluids, head=4.0)
        st.sn[-4:, :] = 0.5
        st.sw = 1.0 - st.sn
        bc = TwoPhaseBC(4.0, 4.0)
        stepper = ImpesStepper(g, m, fluids, bc)
        out = impes_step(st, m, fluids, bc, dt=5 * 86400.0, stepper=stepper)
        assert out.sn[:10, :].max() == 0.0
        assert out.sn[10, :].max() > 0.05  # pooled on the interface


class TestSourceZoneStats:
    def test_empty_field(self):
        g = build_grid((1.0, 1.0), (0.5, 0.5))
        m = homogeneous(g)
        s = source_zone_stats(np.zeros((g.ny, g.nx)), m, g)
        assert s.total_mass == 0.0

    def test_fractions_sum_to_one(self):
        g = build_grid((2.0, 8.0), (0.5, 0.5))
        m = homogeneous(g)
        rng = np.random.default_rng(0)
        sn = rng.uniform(0.0, 0.6, (g.ny, g.nx))
        s = source_zone_stats(sn, m, g)
        assert s.pool_fraction + s.ganglia_fraction == pytest.approx(1.0, rel=1e-12)
        assert s.upper_fraction + s.lower_fraction == pytest.approx(1.0, rel=1e-12)

    def test_pool_threshold(self):
        g = build_grid((1.0, 1.0), (0.5, 0.5))
        m = homogeneous(g)
        sn = np.array([[0.5, 0.0], [0.0, 0.1]])
        s = source_zone_stats(sn, m, g, pool_threshold=0.3)
        assert s.pool_fraction == pytest.approx(0.5 / 0.6, rel=1e-12)
