import os
import subprocess
import sys
from pathlib import Path

import pytest

import remsim
from remsim.cli import build_parser, main
from tests.test_pipeline import fast_config_text


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    path.write_text(fast_config_text())
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.stage == "all"
        assert args.out == "out"
        assert args.seed == 0
        assert args.export == "csv"

    def test_export_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--export", "hdf5"])


def test_import_leaves_out_ndimage_and_sparse():
    # no stage uses them, and importing them costs start-up time and memory
    src = str(Path(remsim.__file__).resolve().parents[1])
    code = ("import sys, remsim.cli; print([m for m in sys.modules "
            "if m.startswith(('scipy.ndimage', 'scipy.sparse'))])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestExitCodes:
    def test_stage1_ok(self, cfg_file, tmp_path, capsys):
        code = main(["--config", str(cfg_file), "--stage", "1", "--out", str(tmp_path)])
        assert code == 0
        assert "stage 1 audit:" in capsys.readouterr().out
        assert (tmp_path / "stage1.ckpt").exists()

    def test_bad_config_returns_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(fast_config_text().replace("width = 35 m", "width = 35"))
        assert main(["--config", str(bad), "--stage", "1", "--out", str(tmp_path)]) == 2

    def test_unreadable_stage_returns_2(self, cfg_file, tmp_path):
        assert main(["--config", str(cfg_file), "--stage", "nine", "--out", str(tmp_path)]) == 2

    def test_missing_checkpoint_returns_3(self, cfg_file, tmp_path):
        code = main(["--config", str(cfg_file), "--stage", "4", "--out", str(tmp_path)])
        assert code == 3

    def test_corrupt_checkpoint_returns_3(self, cfg_file, tmp_path):
        (tmp_path / "stage1.ckpt").write_bytes(b"garbage")
        code = main(["--config", str(cfg_file), "--stage", "2", "--out", str(tmp_path)])
        assert code == 3

    def test_foreign_checkpoint_returns_3(self, cfg_file, tmp_path):
        assert main(["--config", str(cfg_file), "--stage", "1", "--out", str(tmp_path)]) == 0
        code = main(["--config", str(cfg_file), "--stage", "2", "--out", str(tmp_path),
                     "--seed", "5"])
        assert code == 3

    def test_vtk_export(self, cfg_file, tmp_path):
        code = main([
            "--config", str(cfg_file), "--stage", "1", "--out", str(tmp_path),
            "--export", "vtk",
        ])
        assert code == 0
        assert list((tmp_path / "stage1").glob("snapshot_*.vtk"))
