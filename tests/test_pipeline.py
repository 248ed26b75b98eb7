import csv
import shutil

import numpy as np
import pytest

from remsim.checkpoint import CheckpointError, read_checkpoint
from remsim.config import ConfigError, RunConfig
from remsim.pipeline import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_MISSING_CHECKPOINT,
    EXIT_OK,
    EXIT_SOLVER,
    checkpoint_path,
    parse_stage_selection,
    run,
)
from remsim.scenario import Scenario


def fast_config_text() -> str:
    """Coarse grid and short durations: the full pipeline in seconds."""
    text = RunConfig.default().source_text
    replacements = {
        "dx = 0.2 m": "dx = 1 m",
        "dy = 0.2 m": "dy = 1 m",
        "duration = 35 day": "duration = 1 day",
        "stage1_duration = 135 day": "stage1_duration = 3 day",
        "stage2_duration = 11 year": "stage2_duration = 20 day",
        "stage3_duration = 8 hour": "stage3_duration = 1 hour",
        "stage4_duration = 2.5 year": "stage4_duration = 20 day",
        "stage1_snapshots = 5 day, 15 day, 25 day, 35 day, 40 day, 60 day, 85 day, 135 day":
            "stage1_snapshots = 1 day, 3 day",
        "stage2_snapshots = 0.1 year, 0.4 year, 1 year, 3 year, 6 year, 11 year":
            "stage2_snapshots = 10 day, 20 day",
    }
    for old, new in replacements.items():
        assert old in text, old
        text = text.replace(old, new)
    return text


@pytest.fixture(scope="module")
def fast_cfg():
    return RunConfig.from_text(fast_config_text())


@pytest.fixture(scope="module")
def straight_run(fast_cfg, tmp_path_factory):
    """The output directory of one run of stages 1-4."""
    out = tmp_path_factory.mktemp("straight")
    run(fast_cfg, [1, 2, 3, 4], out, export=None)
    return out


class TestStageSelection:
    def test_all(self):
        assert parse_stage_selection("all") == [1, 2, 3, 4]

    def test_single(self):
        assert parse_stage_selection("3") == [3]

    def test_invalid_text(self):
        with pytest.raises(ConfigError):
            parse_stage_selection("first")

    def test_out_of_range(self, fast_cfg, tmp_path):
        # the text parses; the run refuses the stage
        assert parse_stage_selection("5") == [5]
        with pytest.raises(ConfigError):
            run(fast_cfg, [5], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_noncontiguous_rejected(self, fast_cfg, tmp_path):
        with pytest.raises(ConfigError):
            run(fast_cfg, [1, 3], tmp_path)

    @pytest.mark.parametrize("stages", [[], [0], [0, 1], [5], [4, 5]],
                             ids=["empty", "zero", "from_zero", "five", "past_four"])
    def test_outside_1_to_4_rejected(self, fast_cfg, tmp_path, stages):
        with pytest.raises(ConfigError):
            run(fast_cfg, stages, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("export", ["xlsx", "CSV", ""])
    def test_unknown_export_rejected(self, fast_cfg, tmp_path, export):
        with pytest.raises(ConfigError, match=f"export format {export!r} is not one of csv, vtk"):
            run(fast_cfg, [1], tmp_path / "out", export=export)
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_full_pipeline(self, fast_cfg, tmp_path):
        result = run(fast_cfg, [1, 2, 3, 4], tmp_path / "out")
        assert sorted(result.results) == [1, 2, 3, 4]
        for stage in (1, 2, 3, 4):
            assert checkpoint_path(tmp_path / "out", stage).exists()
        assert (tmp_path / "out" / "audit_report.txt").exists()
        assert "stage 1 audit:" in result.report
        assert "FAIL" not in result.report
        assert (tmp_path / "out" / "stage1" / "series.csv").exists()
        snaps = list((tmp_path / "out" / "stage1").glob("snapshot_*.csv"))
        assert len(snaps) == 2

    def test_stage2_restarts_from_checkpoint(self, fast_cfg, tmp_path):
        out = tmp_path / "out"
        run(fast_cfg, [1], out)
        result = run(fast_cfg, [2], out)
        ck = read_checkpoint(checkpoint_path(out, 2))
        assert ck.stage == 2
        assert ck.clock > read_checkpoint(checkpoint_path(out, 1)).clock
        assert 2 in result.results

    @pytest.mark.parametrize("first", [2, 3, 4])
    def test_restart_reproduces_straight_run(self, fast_cfg, straight_run, tmp_path, first):
        # a stage gets nothing from the one before it but the checkpoint file
        shutil.copyfile(checkpoint_path(straight_run, first - 1),
                        checkpoint_path(tmp_path, first - 1))
        run(fast_cfg, list(range(first, 5)), tmp_path, export=None)
        for stage in range(first, 5):
            assert (checkpoint_path(tmp_path, stage).read_bytes()
                    == checkpoint_path(straight_run, stage).read_bytes()), stage

    def test_wrong_stage_checkpoint_rejected(self, fast_cfg, straight_run, tmp_path):
        # a stage-1 file offered as the stage-2 checkpoint
        shutil.copyfile(checkpoint_path(straight_run, 1), checkpoint_path(tmp_path, 2))
        with pytest.raises(CheckpointError, match="after stage 1, not after stage 2"):
            run(fast_cfg, [3], tmp_path, export=None)
        assert not checkpoint_path(tmp_path, 3).exists()

    def test_missing_prerequisite(self, fast_cfg, tmp_path):
        with pytest.raises(CheckpointError, match="stage2.ckpt: cannot be read"):
            run(fast_cfg, [3], tmp_path / "empty")

    def test_grid_mismatch_rejected(self, fast_cfg, tmp_path):
        out = tmp_path / "out"
        run(fast_cfg, [1], out)
        finer = RunConfig.from_text(
            fast_config_text().replace("dx = 1 m", "dx = 0.5 m").replace("dy = 1 m", "dy = 0.5 m")
        )
        with pytest.raises(CheckpointError, match="grid"):
            run(finer, [2], out)

    def test_foreign_checkpoint_rejected(self, fast_cfg, tmp_path):
        out = tmp_path / "out"
        run(fast_cfg, [1], out, seed=0, export=None)
        with pytest.raises(CheckpointError, match="seed 0"):
            run(fast_cfg, [2], out, seed=1, export=None)
        other = RunConfig.from_text(fast_config_text().replace("stage2_duration = 20 day",
                                                               "stage2_duration = 21 day"))
        with pytest.raises(CheckpointError, match=fast_cfg.config_hash):
            run(other, [2], out, seed=0, export=None)
        assert not checkpoint_path(out, 2).exists()

    def test_separate_checkpoint_dir(self, fast_cfg, tmp_path):
        ck_dir = tmp_path / "ckpts"
        run(fast_cfg, [1], tmp_path / "out1", checkpoint_dir=ck_dir)
        assert checkpoint_path(ck_dir, 1).exists()
        run(fast_cfg, [2], tmp_path / "out2", checkpoint_dir=ck_dir)
        assert checkpoint_path(ck_dir, 2).exists()

    def test_deterministic_for_seed(self, fast_cfg, tmp_path):
        run(fast_cfg, [1], tmp_path / "a", seed=3, export=None)
        run(fast_cfg, [1], tmp_path / "b", seed=3, export=None)
        a = checkpoint_path(tmp_path / "a", 1).read_bytes()
        b = checkpoint_path(tmp_path / "b", 1).read_bytes()
        assert a == b

    def test_seeds_differ(self, fast_cfg, tmp_path):
        run(fast_cfg, [1], tmp_path / "a", seed=0, export=None)
        run(fast_cfg, [1], tmp_path / "b", seed=1, export=None)
        a = read_checkpoint(checkpoint_path(tmp_path / "a", 1))
        b = read_checkpoint(checkpoint_path(tmp_path / "b", 1))
        assert not np.array_equal(a.fields["k"], b.fields["k"])

    def test_monitoring_columns_read_the_well_cell(self, tmp_path):
        # a second well inside the plume, at cell (14, 9), where c_tce changes
        # from row to row; the transposed index c[14, 9] lies off the 12 rows
        cfg = RunConfig.from_text(fast_config_text() + "\n[well.near]\nx = 14.5 m\n"
                                  "depth = 2.5 m\nscreen_length = 0.02 m\n")
        cells = Scenario.build(cfg, 0).monitor_cells
        assert cells["near"] == (14, 9)
        run(cfg, [1, 2, 3, 4], tmp_path)
        for stage in (2, 4):
            with open(tmp_path / f"stage{stage}" / "series.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            c = read_checkpoint(checkpoint_path(tmp_path, stage)).fields["c_tce"]
            assert 0 < c[8, 14] < c[9, 14] < c[10, 14]
            for name, (i, j) in cells.items():
                assert last[name] == "%.10g" % c[j, i], (stage, name)


def test_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_CONFIG, EXIT_MISSING_CHECKPOINT, EXIT_SOLVER, EXIT_AUDIT}
    assert codes == {0, 2, 3, 4, 5}
