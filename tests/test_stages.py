import numpy as np
import pytest

from remsim import stages
from remsim.config import RunConfig
from remsim.flow import FactorCache
from remsim.pipeline import run
from remsim.scenario import Scenario
from remsim.stages import (
    LEDGER_TERMS,
    Ledger,
    run_stage3,
    run_stage4,
    run_transport_continuation,
)
from tests.test_pipeline import fast_config_text

SPECIES = {1: {"napl"}, 2: {"tce"}, 3: {"nzvi", "cmc", "tce"}, 4: {"tce", "cmc"}}


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

    def test_report_prints_every_term(self, fast_run):
        lines = fast_run.report.splitlines()
        for stage in SPECIES:
            assert f"stage {stage} audit:" in lines
        terms = [line for line in lines if line.startswith("    initial ")]
        assert len(terms) == sum(len(s) for s in SPECIES.values())
        for line in terms:
            assert line.split()[::2] == [*LEDGER_TERMS, "kg/m"]


class TestSubstepLimits:
    def test_counts_add_up_to_stage1_solves(self, fast_run):
        res = fast_run.results[1]
        limits = res.diagnostics["limits"]
        assert list(limits) == ["advection", "inflow", "capillary", "chunk_end"]
        assert sum(limits.values()) == res.diagnostics["pressure"]["solves"]

    def test_report_prints_counts_under_stage1_pressure(self, fast_run):
        lines = fast_run.report.splitlines()
        limits = fast_run.results[1].diagnostics["limits"]
        line = "  sub-step limits: " + ", ".join(f"{k} {n}" for k, n in limits.items())
        assert lines[lines.index("stage 1 audit:") + 2] == line
        assert sum(line.startswith("  sub-step limits:") for line in lines) == 1


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

        def no_reaction(*args):
            raise AssertionError("the continuation ran the reaction operator")

        monkeypatch.setattr(stages, "reactive_step", no_reaction)
        continuation = run_transport_continuation(scn, ckpt3)
        assert continuation.ledger["tce"].degraded == 0.0
        for name, field in null_run.checkpoint.fields.items():
            np.testing.assert_array_equal(field, continuation.checkpoint.fields[name])


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

    def test_report_counts_pressure_solves(self, fast_run):
        lines = fast_run.report.splitlines()
        for stage, res in fast_run.results.items():
            counts = res.diagnostics["pressure"]
            assert counts["solves"] >= counts["full"] >= 1
            line = (f"  pressure: {counts['solves']} solves, {counts['full']} full, "
                    f"mean {counts['mean_columns']:.1f}/{counts['columns']} columns")
            assert lines[lines.index(f"stage {stage} audit:") + 1] == line
