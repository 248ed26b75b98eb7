import dataclasses
import re

import numpy as np
import pytest

from remsim import stages, twophase
from remsim.config import RunConfig
from remsim.flow import FactorCache, solve_pressure
from remsim.pipeline import run
from remsim.scenario import Scenario
from remsim.solute import dissolution_substep
from remsim.stages import (
    LEDGER_TERMS,
    STAGE3_DT,
    STAGE4_DT,
    Ledger,
    initial_checkpoint,
    run_stage1,
    run_stage3,
    run_stage4,
)
from remsim.twophase import MAX_DS, TWO_PHASE_CFL
from tests.test_config import set_key
from tests.test_pipeline import fast_config_text
from tests.test_solute import check_in_place

SPECIES = {1: {"napl"}, 2: {"tce"}, 3: {"nzvi", "cmc", "tce"}, 4: {"tce", "cmc"}}


def every_limit_config_text() -> str:
    """The fast config with finer cells, a five times stronger release and 19
    days of redistribution: every bound of LIMITS sets at least one sub-step."""
    text = fast_config_text()
    for old, new in (("dx = 1 m", "dx = 0.5 m"), ("dy = 1 m", "dy = 0.5 m"),
                     ("stage1_duration = 3 day", "stage1_duration = 20 day"),
                     ("flux = 0.001 kg/m^2/s", "flux = 0.005 kg/m^2/s")):
        assert old in text, old
        text = text.replace(old, new)
    return text


def dissolution_column_text() -> str:
    """``default.cfg`` without its lenses, cut to a 10 m x 0.2 m column of
    200 x 1 cells of one uniform lithology under heads of 1.1 and 0.2 m, with
    a 400-day stage 2; the release strip and both wells lie in the column."""
    text = re.sub(r"\[lens\.\d+\]\n[^\[]*", "", RunConfig.default().source_text)
    for section, key, value in (
            ("domain", "width", "10 m"), ("domain", "height", "0.2 m"),
            ("grid", "dx", "0.05 m"), ("grid", "dy", "0.2 m"),
            ("layers", "split_elevation", "0 m"), ("randfield", "log_variance", "0"),
            ("flow", "head_left", "1.1 m"), ("flow", "head_right", "0.2 m"),
            ("infiltration", "center", "5 m"),
            ("well.injection", "x", "5 m"), ("well.injection", "depth", "0.1 m"),
            ("well.monitoring", "x", "9 m"), ("well.monitoring", "depth", "0.1 m"),
            ("stages", "stage2_duration", "400 day")):
        text = set_key(text, section, key, value)
    return text


def gravity_column_text(columns: int, dy: float) -> str:
    """``default.cfg`` without its lenses, cut to a 16 m high section of
    ``columns`` 3 m wide columns and rows ``dy`` high, of one uniform
    lithology whose entry pressure of 1e-3 Pa leaves no capillarity to
    speak of, with no release and a 5-day stage 1."""
    text = re.sub(r"\[lens\.\d+\]\n[^\[]*", "", RunConfig.default().source_text)
    for section, key, value in (
            ("domain", "width", f"{3 * columns} m"), ("domain", "height", "16 m"),
            ("grid", "dx", "3 m"), ("grid", "dy", f"{dy} m"),
            ("layers", "split_elevation", "0 m"), ("randfield", "log_variance", "0"),
            ("upper_sand", "entry_pressure", "1e-3 Pa"),
            ("infiltration", "flux", "0 kg/m^2/s"), ("stages", "stage1_duration", "5 day")):
        text = set_key(text, section, key, value)
    return text


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    cfg = RunConfig.from_text(fast_config_text())
    return run(cfg, [1, 2, 3, 4], tmp_path_factory.mktemp("out"), seed=0, export=None)


class TestLedgers:
    def test_audit_names_every_species_moved(self, fast_run):
        for stage, species in SPECIES.items():
            assert set(fast_run.results[stage].audit) == species

    def test_every_ledger_closes(self, fast_run):
        for stage, res in fast_run.results.items():
            for name, err in res.audit.items():
                assert err <= 1e-4, (stage, name, err)

    def test_stage1_books_the_release(self, fast_run):
        # the strip's flux over its columns for the release's length
        scn = Scenario.build(RunConfig.from_text(fast_config_text()), 0)
        cfg = scn.config
        released = cfg.infil_flux * len(scn.infil_columns) * scn.grid.dx * cfg.infil_duration
        assert fast_run.results[1].ledger["napl"].injected == pytest.approx(released, rel=1e-12)

    def test_report_prints_every_term(self, fast_run):
        lines = fast_run.report.splitlines()
        for stage in SPECIES:
            assert f"stage {stage} audit:" in lines
        terms = [line for line in lines if line.startswith("    initial ")]
        assert len(terms) == sum(len(s) for s in SPECIES.values())
        for line in terms:
            assert line.split()[::2] == [*LEDGER_TERMS, "kg/m"]


class TestHandOff:
    """On cells of 0.1 m^2 (on 1 m^2 cells the cell volume cannot change the
    rounding of a mass) every stage weighs what it hands on as the next stage
    weighs what it receives, bit for bit."""

    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        text = fast_config_text()
        for old, new in (("dx = 1 m", "dx = 0.5 m"), ("dy = 1 m", "dy = 0.2 m")):
            assert old in text, old
            text = text.replace(old, new)
        cfg = RunConfig.from_text(text)
        return run(cfg, [1, 2, 3, 4], tmp_path_factory.mktemp("out"), seed=0,
                   export=None).results

    def test_species_final_is_next_initial(self, results):
        for n in (1, 2, 3):
            carried = set(results[n].ledger) & set(results[n + 1].ledger)
            assert carried == {1: set(), 2: {"tce"}, 3: {"tce", "cmc"}}[n]
            for name in carried:
                assert results[n].ledger[name].final == results[n + 1].ledger[name].initial, (
                    n, name)

    def test_napl_left_is_next_napl(self, results):
        left = {1: results[1].ledger["napl"].final}
        for n in (2, 3):
            tce = results[n].ledger["tce"]
            left[n] = tce.napl - tce.dissolved
        for n, napl in left.items():
            assert napl > 0.0
            assert napl == results[n + 1].ledger["tce"].napl, n


class TestDegradation:
    def test_saturated_iron_zone_degrades(self, fast_run):
        # the fast run's own plume barely meets its iron: put dissolved TCE at
        # solubility wherever there is iron, so stage 4 degrades a real amount
        scn = Scenario.build(RunConfig.from_text(fast_config_text()), 0)
        ckpt = fast_run.results[3].checkpoint
        fields = dict(ckpt.fields)
        fields["c_tce"] = np.where(fields["s_bulk"] > 0, scn.config.solubility, fields["c_tce"])
        res = run_stage4(scn, dataclasses.replace(ckpt, fields=fields))
        # the iron is used up here, so the degraded mass meets the capacity to
        # rounding (it is summed over the steps, the capacity is not)
        capacity = res.diagnostics["budget"]["iron_capacity"]
        assert 0.01 * capacity <= res.diagnostics["degraded_mass"] <= capacity * (1 + 1e-12)
        assert res.ledger["tce"].closure() <= 1e-12


def halving_orders(fields) -> list[float]:
    """Observed orders of the L1 differences between successive fields of a
    run whose step controls halve from one field to the next."""
    diffs = [float(np.abs(a - b).sum()) for a, b in zip(fields, fields[1:])]
    return [float(np.log2(coarse / fine)) for coarse, fine in zip(diffs, diffs[1:])]


class TestStepHalving:
    """Temporal error bars: with the step controls halved three times, the
    differences between successive fields shrink at first order."""

    def test_stage1_sn(self, monkeypatch):
        scn = Scenario.build(RunConfig.from_text(every_limit_config_text()), 0)
        ckpt = initial_checkpoint(scn)
        sn = []
        for n in range(4):
            monkeypatch.setattr(twophase, "MAX_DS", MAX_DS / 2**n)
            monkeypatch.setattr(twophase, "TWO_PHASE_CFL", TWO_PHASE_CFL / 2**n)
            res = run_stage1(scn, ckpt)
            # the halved controls bound the sub-steps, not the chunk ends alone
            assert min(res.diagnostics["limits"].values()) >= 1, (n, res.diagnostics["limits"])
            sn.append(res.checkpoint.fields["sn"])
        orders = halving_orders(sn)
        assert all(0.8 <= p <= 1.3 for p in orders), orders

    def test_stage4_c_tce(self, fast_run, monkeypatch):
        scn = Scenario.build(RunConfig.from_text(fast_config_text()), 0)
        ckpt = fast_run.results[3].checkpoint
        c = []
        for n in range(4):
            monkeypatch.setattr(stages, "STAGE4_DT", STAGE4_DT / 2**n)
            c.append(run_stage4(scn, ckpt).checkpoint.fields["c_tce"])
        orders = halving_orders(c)
        assert all(0.8 <= p <= 1.3 for p in orders), orders


class TestMarch:
    def test_step_may_take_less_than_offered(self):
        # a step that takes half of what it is offered, as an IMPES sub-step
        # bound by stability does; binary fractions keep the times exact
        offers = []

        def step(t, dt):
            offers.append((t, dt))
            return dt / 2

        stops = list(stages._march(1.0, {0.5, 7.0}, 0.25, step))
        assert stops == stages._chunks(1.0, {0.5, 7.0}) == [0.5, 1.0]
        assert all(dt <= 0.25 and t + dt <= stop
                   for (t, dt), stop in zip(offers, [0.5] * 20 + [1.0] * 20))
        # per chunk: two capped offers of 0.25 leave 0.25, then 18 halvings
        # bring the remainder to 0.25 / 2**18 < 1e-6 < 0.25 / 2**17
        assert len(offers) == 40
        # the second chunk starts at the first chunk's stop, snapped
        assert offers[20] == (0.5, 0.25)


class TestSubstepLimits:
    def test_counts_add_up_to_stage1_solves(self, fast_run):
        res = fast_run.results[1]
        limits = res.diagnostics["limits"]
        assert list(limits) == ["advection", "inflow", "capillary", "chunk_end"]
        assert sum(limits.values()) == res.diagnostics["pressure"]["solves"]

    @pytest.fixture(scope="class")
    def every_limit(self):
        scn = Scenario.build(RunConfig.from_text(every_limit_config_text()), 0)
        return scn, run_stage1(scn, initial_checkpoint(scn))

    def test_stage1_meets_every_limit(self, every_limit):
        _, res = every_limit
        limits = res.diagnostics["limits"]
        assert min(limits.values()) >= 1, limits
        assert sum(limits.values()) == res.diagnostics["pressure"]["solves"]
        assert res.audit["napl"] <= 1e-12

    def test_stage1_chunks_end_only_at_output_and_release_times(self, every_limit):
        # one series row per chunk end: the snapshots, the release end and the stage end
        scn, res = every_limit
        cfg = scn.config
        ends = stages._chunks(cfg.stage_durations[0], {*cfg.snapshots[0], cfg.infil_duration})
        assert [row[0] for row in res.series] == ends

    def test_report_prints_counts_under_stage1_pressure(self, fast_run):
        lines = fast_run.report.splitlines()
        limits = fast_run.results[1].diagnostics["limits"]
        line = "  sub-step limits: " + ", ".join(f"{k} {n}" for k, n in limits.items())
        assert lines[lines.index("stage 1 audit:") + 2] == line
        assert sum(line.startswith("  sub-step limits:") for line in lines) == 1

    def test_report_prints_window_under_limits(self, fast_run):
        # the fast config's NAPL sits under a 2 m strip of 1 m columns: the
        # source's two columns widen by one on each side
        window = fast_run.results[1].diagnostics["window"]
        assert window == {"mean_columns": 4.0, "max_columns": 4, "columns": 35}
        lines = fast_run.report.splitlines()
        assert lines[lines.index("stage 1 audit:") + 3] == "  window: mean 4.0/35 columns, max 4"
        assert sum(line.startswith("  window:") for line in lines) == 1


class TestBudgets:
    """Hand arithmetic on the fast config: 1 m cells, Cs = 1.27 kg/m^3, a
    20-day stage 2, 0.85 kg of iron per kg of TCE."""

    def test_stage2_dissolution_ceiling(self, fast_run):
        # stage 2's flow, solved again from the stage-1 checkpoint
        scn = Scenario.build(RunConfig.from_text(fast_config_text()), 0)
        f, cfg = fast_run.results[1].checkpoint.fields, scn.config
        mobility = twophase.water_mobility(f["sn"], scn.material)
        qx = solve_pressure(scn.grid, f["k"], np.full_like(f["k"], cfg.mu_w), mobility,
                            cfg.head_left, cfg.head_right, rho=cfg.rho_w, g=cfg.gravity).qx
        res = fast_run.results[2]
        inflow = float(np.maximum(qx[:, 0], 0.0).sum())           # m^3/s per m
        assert (qx[:, 0] > 0).all()
        # no wells and no-flow top and bottom: what enters on the left leaves on the right
        assert inflow == pytest.approx(float(qx[:, -1].sum()), rel=1e-9)
        budget = res.diagnostics["budget"]
        assert budget["dissolution_ceiling"] == pytest.approx(1.27 * inflow * 20 * 86400.0,
                                                              rel=1e-12)
        # stage 1 released 0.001 kg/m^2/s over the 2 m strip for 1 day
        assert budget["napl_initial"] == pytest.approx(0.001 * 2.0 * 86400.0, rel=1e-9)

    def test_stage2_of_no_length(self, fast_run):
        # no step, so no flow is solved and no water enters
        text = fast_config_text().replace("stage2_duration = 20 day", "stage2_duration = 0 day")
        ckpt1 = fast_run.results[1].checkpoint
        res = stages.run_stage2(Scenario.build(RunConfig.from_text(text), 0), ckpt1)
        assert res.diagnostics["budget"]["dissolution_ceiling"] == 0.0
        assert res.series == [] and res.checkpoint.clock == ckpt1.clock

    def test_stage4_iron_capacity(self, fast_run):
        f = fast_run.results[3].checkpoint.fields
        iron = float(f["s_bulk"].sum())                              # kg/m on 1 m^2 cells
        res = fast_run.results[4]
        budget = res.diagnostics["budget"]
        assert budget["iron_capacity"] == pytest.approx(iron / 0.85, rel=1e-12)
        assert budget["degraded"] == res.ledger["tce"].degraded
        assert 0.0 < budget["degraded"] <= budget["iron_capacity"]

    def test_report_prints_budgets_under_pressure(self, fast_run):
        lines = fast_run.report.splitlines()
        for stage in (2, 4):
            budget = fast_run.results[stage].diagnostics["budget"]
            line = "  budget: " + ", ".join(f"{k} {v:.6e}" for k, v in budget.items()) + "  kg/m"
            assert lines[lines.index(f"stage {stage} audit:") + 2] == line
        assert sum(line.startswith("  budget:") for line in lines) == 2


class TestDissolutionFront:
    """Stage 2 on a 1D column against the exact dissolution front (ROADMAP
    item 18).  With NAPL at a uniform residual ``sn0`` on [2, 4) m, clean water
    upstream and fast mass transfer, the upstream edge of the NAPL moves at
    the Rankine-Hugoniot speed of ``theta (c + sn rho_n)_t + (q c)_x = 0``,
    ``q Cs / (theta (Cs + sn0 rho_n))`` (LeVeque 2002, ch. 11), and the
    outlet carries Cs while NAPL is left."""

    SN0 = 0.05

    @pytest.fixture(scope="class")
    def column(self):
        scn = Scenario.build(RunConfig.from_text(dissolution_column_text()), 0)
        xv, _ = scn.grid.cell_centers()
        fields = {"sn": np.where((xv >= 2.0) & (xv < 4.0), self.SN0, 0.0),
                  "theta_m": scn.material.porosity.copy(), "k": scn.material.k.copy()}
        return scn, stages.run_stage2(scn, stages._make_checkpoint(scn, 1, 0.0, fields))

    def test_front_within_one_cell(self, column):
        scn, res = column
        cfg, g = scn.config, scn.grid
        (theta,) = np.unique(scn.material.porosity)
        duration = cfg.stage_durations[1]
        q = res.diagnostics["budget"]["dissolution_ceiling"] / (cfg.solubility * duration * g.dy)
        exact = 2.0 + q * cfg.solubility * duration / (theta * (cfg.solubility
                                                                + self.SN0 * cfg.rho_n))
        assert exact - 2.0 > 20 * g.dx
        # the first cell at half the residual or more, and the front the
        # dissolved mass implies
        cell = g.xc[np.argmax(res.checkpoint.fields["sn"][0] >= self.SN0 / 2)]
        mass = 2.0 + res.ledger["tce"].dissolved / (theta * self.SN0 * cfg.rho_n * g.dy)
        assert abs(cell - exact) <= g.dx and abs(mass - exact) <= g.dx, (exact, cell, mass)

    def test_outlet_at_solubility_and_ledger_closed(self, column):
        scn, res = column
        outlet = res.checkpoint.fields["c_tce"][0, -1]
        assert outlet == pytest.approx(scn.config.solubility, rel=1e-9)
        assert res.audit["tce"] <= 1e-12


class TestGravitySegregation:
    """Stage 1 against the exact gravity segregation of NAPL over water
    (ROADMAP item 14).  NAPL at ``SN0`` fills the top 8 m of a section with
    no capillarity.  In the middle column it moves by ``s_t + G(s)_z = 0``,
    z the depth below the interface, with ``G = k drho g lw ln / ((lw + ln)
    phi)`` from the code's ``rel_perm``.  The entropy solution of this
    Riemann problem at ``z/t`` is the point of the upper concave hull of G on
    [0, SN0] whose slope is ``z/t`` (LeVeque 2002, ch. 16), the maximiser of
    ``G(s) - s z/t``.  The lateral heads drain water sideways near the
    sides, so the middle column is one-dimensional only on a section wide
    enough; 7 or 13 columns are not."""

    SN0, INTERFACE, WINDOW = 0.4, 8.0, 3.0

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for columns, dy in ((27, 0.2), (27, 0.1), (35, 0.2)):
            scn = Scenario.build(RunConfig.from_text(gravity_column_text(columns, dy)), 0)
            _, yv = scn.grid.cell_centers()
            fields = {**initial_checkpoint(scn).fields,
                      "sn": np.where(yv > self.INTERFACE, self.SN0, 0.0)}
            out[columns, dy] = scn, run_stage1(scn, stages._make_checkpoint(scn, 0, 0.0, fields))
        return out

    def exact(self, scn, z):
        """The Riemann solution at the elevations z at the end of stage 1."""
        cfg, m = scn.config, scn.material
        (k,), (phi,), (swr,), (snr,), (lam,) = (np.unique(a) for a in (
            m.k, m.porosity, m.swr, m.snr, m.bc_lambda))
        s = np.linspace(0.0, self.SN0, 40001)
        krw, krn = twophase.rel_perm((1.0 - s - swr) / (1.0 - swr - snr), lam)
        lw, ln = krw / cfg.mu_w, krn / cfg.mu_n
        flux = k * (cfg.rho_n - cfg.rho_w) * cfg.gravity * lw * ln / ((lw + ln) * phi)
        speed = (self.INTERFACE - z) / cfg.stage_durations[0]
        return s[np.argmax(flux - speed[:, None] * s, axis=1)]

    def middle(self, run):
        scn, res = run
        return res.checkpoint.fields["sn"][:, scn.grid.nx // 2]

    def l1(self, scn, values):
        """The L1 norm (m) of ``values`` over the rows within WINDOW of the
        interface."""
        g = scn.grid
        return float(np.abs(values)[np.abs(g.yc - self.INTERFACE) <= self.WINDOW].sum() * g.dy)

    def test_no_capillary_bound(self, runs):
        for scn, res in runs.values():
            assert res.diagnostics["limits"]["capillary"] == 0

    def test_error_falls_with_dy(self, runs):
        coarse, fine = (self.l1(runs[27, dy][0], self.middle(runs[27, dy])
                                - self.exact(runs[27, dy][0], runs[27, dy][0].grid.yc))
                        for dy in (0.2, 0.1))
        # measured 0.1087 and 0.0475 m
        assert coarse <= 0.112 and fine <= 0.050 and fine < 0.5 * coarse, (coarse, fine)

    def test_middle_column_one_dimensional(self, runs):
        scn = runs[27, 0.2][0]
        assert self.l1(scn, self.middle(runs[27, 0.2]) - self.middle(runs[35, 0.2])) <= 1e-3


class TestClosure:
    def test_balanced_ledger_closes(self):
        ledger = Ledger(initial=2.0, injected=1.0, dissolved=0.5,
                        exported=0.75, degraded=0.25, final=2.5, napl=1.5)
        assert ledger.closure() == 0.0

    def test_missing_export_reports_leak(self):
        # 0.75 kg/m left across the boundary but was never booked
        ledger = Ledger(initial=2.0, injected=1.0, dissolved=0.5,
                        degraded=0.25, final=2.5, napl=1.5)
        assert ledger.closure() == pytest.approx(0.75 / 4.5, rel=1e-12)

    def test_empty_ledger_is_closed(self):
        assert Ledger().closure() == 0.0


class TestContinuation:
    def test_matches_zero_rate_without_reaction(self, fast_run, monkeypatch):
        text = fast_config_text()
        assert "k_sa = 2.6e-3 L/h/m^2" in text
        scn = Scenario.build(RunConfig.from_text(text), 0)
        scn0 = Scenario.build(RunConfig.from_text(
            text.replace("k_sa = 2.6e-3 L/h/m^2", "k_sa = 0 L/h/m^2")), 0)
        ckpt3 = fast_run.results[3].checkpoint
        null_run = run_stage4(scn0, ckpt3)

        # the continuation leaves out the reaction operator
        monkeypatch.setattr(stages, "reactive_step", lambda c, rho_m, *args: (c, rho_m))
        continuation = run_stage4(scn, ckpt3)
        assert continuation.ledger["tce"].degraded == 0.0
        for name, field in null_run.checkpoint.fields.items():
            np.testing.assert_array_equal(field, continuation.checkpoint.fields[name])


class TestNaplCells:
    def test_kept_cells_and_dissolution_match_whole_grid(self, fast_run, monkeypatch):
        # 60 days of stage 2 on a NAPL field of 5 decades of saturation, in
        # which cells run out one after another
        text = fast_config_text().replace("stage2_duration = 20 day", "stage2_duration = 60 day")
        scn = Scenario.build(RunConfig.from_text(text), 0)
        ckpt1 = fast_run.results[1].checkpoint
        rng = np.random.default_rng(0)
        shape = ckpt1.fields["sn"].shape
        sn0 = np.where(rng.random(shape) < 0.3, 0.05 * 10.0 ** rng.uniform(-5.0, 0.0, shape), 0.0)
        ckpt = dataclasses.replace(ckpt1, fields={**ckpt1.fields, "sn": sn0})
        held = sn0.copy()
        days = []

        def checked(c, sn, rho_n, solubility, transport, dt, cells):
            assert cells.tobytes() == np.flatnonzero(sn > 0).tobytes()
            check_in_place(c, sn, rho_n, solubility, transport, dt)
            out = dissolution_substep(c, sn, rho_n, solubility, transport, dt, cells)
            days.append((cells.size, sn.copy()))
            return out

        monkeypatch.setattr(stages, "dissolution_substep", checked)
        res = stages.run_stage2(scn, ckpt)
        assert len(days) == 60
        assert days[0][0] > days[-1][0] > 0
        assert len({n for n, _ in days}) > 10
        # the incoming state and the snapshots keep their own sn
        assert ckpt.fields["sn"].tobytes() == held.tobytes()
        for t, fields in res.snapshots:
            assert fields["sn"].tobytes() == days[round(t / stages.DAY) - 1][1].tobytes()


class FullSolveCache(FactorCache):
    """Drops the reference before every solve: each one factors the whole band."""

    def solve(self, *terms):
        self.reference = None
        return super().solve(*terms)


class TestPressureReuse:
    def test_stages_3_4_match_full_solves(self, fast_run, monkeypatch):
        scn = Scenario.build(RunConfig.from_text(fast_config_text()), 0)
        monkeypatch.setattr(stages, "FactorCache", FullSolveCache)
        res3 = run_stage3(scn, fast_run.results[2].checkpoint)
        res4 = run_stage4(scn, res3.checkpoint)
        for stage, forced in ((3, res3), (4, res4)):
            reused = fast_run.results[stage]
            counts = reused.diagnostics["pressure"]
            assert counts["full"] == 1 and counts["mean_columns"] < counts["columns"]
            assert forced.diagnostics["pressure"]["full"] == counts["solves"]
            for name, field in forced.checkpoint.fields.items():
                np.testing.assert_allclose(reused.checkpoint.fields[name], field, rtol=0,
                                           atol=1e-6 * np.abs(field).max())

    def test_flow_solved_again_only_when_k_or_cmc_moves(self, fast_run):
        # stage 2 replaces neither k nor c_cmc; stage 3 clogs k and stage 4
        # transports CMC every step
        cfg = RunConfig.from_text(fast_config_text())
        solves = {2: 1, 3: cfg.stage_durations[2] / STAGE3_DT, 4: cfg.stage_durations[3] / STAGE4_DT}
        assert solves == {2: 1, 3: 12, 4: 20}
        for stage, n in solves.items():
            assert fast_run.results[stage].diagnostics["pressure"]["solves"] == n, stage

    def test_report_counts_pressure_solves(self, fast_run):
        lines = fast_run.report.splitlines()
        for stage, res in fast_run.results.items():
            counts = res.diagnostics["pressure"]
            assert counts["solves"] >= counts["full"] >= 1
            line = (f"  pressure: {counts['solves']} solves, {counts['full']} full, "
                    f"mean {counts['mean_columns']:.1f}/{counts['columns']} columns, "
                    f"{counts['strip_sweeps']} strip sweeps")
            assert lines[lines.index(f"stage {stage} audit:") + 1] == line
