import os
import re
import shutil
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


@pytest.fixture(scope="module")
def stage1_ckpt(cfg_file, tmp_path_factory):
    """A stage-1 checkpoint of the fast config, next to a copy of the config."""
    out = tmp_path_factory.mktemp("stage1")
    shutil.copy(cfg_file, out / "fast.cfg")
    assert main(["--config", str(out / "fast.cfg"), "--stage", "1", "--out", str(out)]) == 0
    return out / "stage1.ckpt"


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
    # no stage uses them, and importing them costs start-up time and memory;
    # scipy.linalg's package import alone costs about 0.3 s and 18 MiB per
    # process, so remsim.flow loads only its compiled LAPACK routines
    src = str(Path(remsim.__file__).resolve().parents[1])
    code = ("import sys, remsim.cli; print([m for m in sys.modules "
            "if m.startswith(('scipy.ndimage', 'scipy.sparse', 'scipy.linalg'))])")
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

    def test_bad_physics_value_returns_2_before_stage_1(self, tmp_path, capsys):
        # a negative rate constant is found when the file is read, not in stage 4
        bad = tmp_path / "bad.cfg"
        bad.write_text(fast_config_text().replace("k_sa = 2.6e-3", "k_sa = -2.6e-3"))
        assert main(["--config", str(bad), "--stage", "all", "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "stage1.ckpt").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("stage2_snapshots = 10 day", "stage2_snapshots = abc year", "[output] stage2_snapshots"),
        ("width = 35 m", "width = 35 Pa", "[domain] width: 35 Pa is kg m^-1 s^-2, expected m"),
    ], ids=["snapshot_not_a_number", "wrong_dimension"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, old, new, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(fast_config_text().replace(old, new))
        assert main(["--config", str(bad), "--stage", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize("section, replacement", [
        (r"\[well\.injection\]\n[^\[]*", ""),
        (r"\[well\.injection\]", "[well.inj]"),
    ], ids=["missing", "renamed"])
    def test_injection_well_required(self, tmp_path, capsys, section, replacement):
        # the injection well is known by its section name; without it no stage runs
        text, n = re.subn(section, replacement, fast_config_text())
        assert n == 1
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["--config", str(bad), "--stage", "all", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "[well.injection]" in err
        assert not (tmp_path / "stage1.ckpt").exists()

    def test_monitor_velocity_refused(self, tmp_path, capsys):
        # only the injection well injects; a velocity elsewhere is an error
        bad = tmp_path / "bad.cfg"
        bad.write_text(fast_config_text().replace("[well.monitoring]\n",
                                                  "[well.monitoring]\nvelocity = 50 m/day\n"))
        assert main(["--config", str(bad), "--stage", "all", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [well.monitoring] velocity")
        assert not (tmp_path / "stage1.ckpt").exists()

    def test_unreadable_stage_returns_2(self, cfg_file, tmp_path):
        assert main(["--config", str(cfg_file), "--stage", "nine", "--out", str(tmp_path)]) == 2

    def test_missing_checkpoint_returns_3(self, cfg_file, tmp_path):
        code = main(["--config", str(cfg_file), "--stage", "4", "--out", str(tmp_path)])
        assert code == 3

    def test_corrupt_checkpoint_returns_3(self, cfg_file, tmp_path):
        (tmp_path / "stage1.ckpt").write_bytes(b"garbage")
        code = main(["--config", str(cfg_file), "--stage", "2", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("old, new", [
        (b'"nx":35', b'"nx":36'),              # grid size disagrees with the field sizes
        (b'"seed":0,', b''),                   # manifest key missing
        (b'"name":"sn"', b'"name":"zz"'),      # field renamed
        (b'"clock":259200.0', b'"clock":"x"'),  # clock not a number
        (b'"clock":259200.0', b'"clock":NaN'),  # clock not finite
    ], ids=["nx", "seed_missing", "field_renamed", "clock_text", "clock_nan"])
    def test_edited_manifest_returns_3(self, stage1_ckpt, tmp_path, capsys, old, new):
        data = stage1_ckpt.read_bytes()
        assert data.count(old) == 1
        (tmp_path / "stage1.ckpt").write_bytes(data.replace(old, new))
        code = main(["--config", str(stage1_ckpt.parent / "fast.cfg"), "--stage", "2",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "checkpoint error" in capsys.readouterr().err
        assert not (tmp_path / "stage2.ckpt").exists()

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
