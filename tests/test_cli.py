import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import remsim
from remsim import pipeline
from remsim.checkpoint import read_checkpoint, write_checkpoint
from remsim.cli import build_parser, main
from remsim.config import RunConfig
from tests.test_config import set_key
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


@pytest.fixture(scope="module")
def stage3_ckpt(cfg_file, tmp_path_factory):
    """A stage-3 checkpoint of the fast config."""
    out = tmp_path_factory.mktemp("stage3")
    pipeline.run(RunConfig.from_file(cfg_file), [1, 2, 3], out, export=None)
    return out / "stage3.ckpt"


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


SRC = str(Path(remsim.__file__).resolve().parents[1])


def loaded_by(module: str) -> list[str]:
    """The modules that importing ``module`` loads in a fresh interpreter."""
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_leaves_out_ndimage_and_sparse():
    # no stage uses them, and importing them costs start-up time and memory;
    # scipy.linalg's package import alone costs about 0.3 s and 18 MiB per
    # process and the scipy package's tens of milliseconds, so remsim.flow
    # loads only its compiled LAPACK routines, and no scipy module at all
    assert [m for m in loaded_by("remsim.cli") if m == "scipy" or m.startswith("scipy.")] == []


def test_module_loads_only_what_it_imports():
    # the package root re-exports nothing, so each name has one import path
    assert [m for m in loaded_by("remsim.config") if m.startswith("remsim")] == [
        "remsim", "remsim.config", "remsim.units"]
    assert [m for m in loaded_by("remsim.checkpoint")
            if m == "remsim.flow" or m.endswith(("_flapack", "_sparsetools"))] == []


def test_files_independent_of_blas_threads_and_restart(cfg_file, tmp_path):
    """The fast config through the CLI writes the same files, byte for byte,
    at one and at two BLAS threads, and so does each of stages 2-4 restarted
    at two threads from a copy of the one-thread run's previous checkpoint."""
    def simulate(threads, out, *args):
        env = {**os.environ, "PYTHONPATH": SRC,
               "OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "remsim.cli",
                        "--config", str(cfg_file), "--out", str(out), *args],
                       env=env, capture_output=True, check=True)

    def files(directory):
        return {str(p.relative_to(directory)): p.read_bytes()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    def differing(ours, theirs):
        return sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))

    for threads in (1, 2):
        simulate(threads, tmp_path / f"threads{threads}")
    straight = files(tmp_path / "threads1")
    # every checkpoint, snapshot, series.csv and audit_report.txt
    assert {"stage4.ckpt", "audit_report.txt", "stage2/series.csv"} <= straight.keys()
    assert differing(files(tmp_path / "threads2"), straight) == []
    for stage in (2, 3, 4):
        # in its own directory: the CLI writes stage N where it reads stage N-1
        out = tmp_path / f"restart{stage}"
        out.mkdir()
        shutil.copy(tmp_path / "threads1" / f"stage{stage - 1}.ckpt", out)
        simulate(2, out, "--stage", str(stage))
        assert (out / f"stage{stage}.ckpt").read_bytes() == straight[f"stage{stage}.ckpt"]
        # and its exports: snapshots and series.csv
        assert differing(files(out / f"stage{stage}"),
                         files(tmp_path / "threads1" / f"stage{stage}")) == []
    # a stage-1 file offered as the stage-2 checkpoint; a checkpoint with a
    # zero k is refused as test_unusable_checkpoint_returns_3[k_zero] shows
    wrong = tmp_path / "wrong_stage"
    wrong.mkdir()
    shutil.copy(tmp_path / "threads1" / "stage1.ckpt", wrong / "stage2.ckpt")
    assert main(["--config", str(cfg_file), "--stage", "3", "--out", str(wrong)]) == 3
    assert not (wrong / "stage3.ckpt").exists()


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

    @pytest.mark.parametrize("old, new, message", [
        ("solubility = 1.27 kg/m^3\n", "solubility = 1.27 kg/m^3\nsolubility = 12.7 kg/m^3\n",
         "[fluids] solubility given twice"),
        ("[flow]\n", "[fluids]\nwater_density = 0.5 kg/m^3\n\n[flow]\n",
         "section [fluids] given twice"),
    ], ids=["key", "section"])
    def test_repeat_returns_2(self, tmp_path, capsys, old, new, message):
        text = fast_config_text()
        assert text.count(old) == 1
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new))
        assert main(["--config", str(bad), "--stage", "all", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: line ") and message in err
        assert not (tmp_path / "stage1.ckpt").exists()

    def test_pore_space_exhausted_returns_4(self, tmp_path, capsys):
        # a suspension this dense fills the pores by deposition in stage 3
        text = set_key(fast_config_text(), "nzvi", "concentration", "100000 kg/m^3")
        (tmp_path / "clog.cfg").write_text(set_key(text, "nzvi", "attachment_efficiency", "1"))
        code = main(["--config", str(tmp_path / "clog.cfg"), "--stage", "all",
                     "--out", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err == ("solver failure: deposition has consumed all "
                                           "pore space\n")
        assert (tmp_path / "stage2.ckpt").exists() and not (tmp_path / "stage3.ckpt").exists()

    @pytest.mark.parametrize("case", ["config_missing", "config_empty", "config_directory",
                                      "config_not_utf8", "out_is_file", "checkpoint_is_file",
                                      "out_empty", "checkpoint_empty"])
    def test_unusable_path_returns_2(self, cfg_file, tmp_path, capsys, monkeypatch, case):
        # run from an empty working directory, which an empty path would name
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        args = {"--config": str(cfg_file), "--stage": "1", "--out": str(tmp_path / "out")}
        if case == "config_missing":
            args["--config"] = str(tmp_path / "absent.cfg")
        elif case == "config_empty":
            args["--config"] = ""   # not the built-in scenario
        elif case == "config_directory":
            args["--config"] = str(tmp_path)
        elif case == "config_not_utf8":
            (tmp_path / "latin1.cfg").write_bytes(fast_config_text().encode() + b"# caf\xe9\n")
            args["--config"] = str(tmp_path / "latin1.cfg")
        elif case.endswith("_is_file"):
            (tmp_path / "taken").write_text("")
            args["--out" if case == "out_is_file" else "--checkpoint"] = str(tmp_path / "taken")
        else:
            args["--out" if case == "out_empty" else "--checkpoint"] = ""
        assert main([word for pair in args.items() for word in pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert not list(tmp_path.glob("**/stage1.ckpt"))
        assert not (tmp_path / "out").exists()
        assert not list(cwd.iterdir())

    @pytest.mark.parametrize("case, code", [("uneven_grid", 2), ("screen_outside", 2),
                                            ("missing_prerequisite", 3)],
                             ids=["uneven_grid", "screen_outside", "missing_prerequisite"])
    def test_refusal_makes_no_directory(self, tmp_path, capsys, case, code):
        # the scenario and the prerequisite checkpoint are checked before
        # --out is made
        text, stage = fast_config_text(), "1"
        if case == "uneven_grid":
            text = set_key(text, "grid", "dx", "0.6 m")
        elif case == "screen_outside":
            text = set_key(text, "well.injection", "screen_length", "20 m")
        else:
            stage = "2"
        (tmp_path / "run.cfg").write_text(text)
        out = tmp_path / "new"
        assert main(["--config", str(tmp_path / "run.cfg"), "--stage", stage,
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if case == "screen_outside":
            assert "[well.injection]" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1, 2**64])
    def test_seed_out_of_range_returns_2(self, cfg_file, tmp_path, capsys, seed):
        code = main(["--config", str(cfg_file), "--stage", "1", "--out", str(tmp_path / "out"),
                     "--seed", str(seed)])
        assert code == 2
        assert capsys.readouterr().err == (f"configuration error: seed {seed} is outside "
                                           "[0, 2**63)\n")
        assert not (tmp_path / "out").exists()

    def test_nan_closure_returns_5(self, cfg_file, tmp_path, capsys, monkeypatch):
        # a NaN closure fails the audit and is marked [FAIL] in the report
        def run_stage1(scn, prev):
            res = stage1(scn, prev)
            res.ledger["napl"].final = float("nan")
            return res

        stage1 = pipeline.run_stage1
        monkeypatch.setattr(pipeline, "run_stage1", run_stage1)
        code = main(["--config", str(cfg_file), "--stage", "1", "--out", str(tmp_path)])
        assert code == 5
        assert capsys.readouterr().err == ("audit failure: mass balance closure exceeded "
                                           "tolerance: stage 1/napl\n")
        assert "  napl     closure error nan  [FAIL]" in (tmp_path / "audit_report.txt").read_text()

    @pytest.mark.parametrize("stage", ["nine", "0", "5"])
    def test_unreadable_stage_returns_2(self, cfg_file, tmp_path, capsys, stage):
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--stage", stage, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("name, value, problem", [
        ("c_tce", np.nan, "non-finite values in c_tce"),
        ("c_tce", np.inf, "non-finite values in c_tce"),
        (None, "directory", "cannot be read: Is a directory"),
        ("k", 0.0, "non-positive values in k"),
        ("k", -1e-12, "non-positive values in k"),
        ("theta_m", 0.0, "values of theta_m outside (0, 1]"),
        ("theta_m", 1.5, "values of theta_m outside (0, 1]"),
    ], ids=["nan", "inf", "directory", "k_zero", "k_negative", "theta_zero", "theta_above_one"])
    def test_unusable_checkpoint_returns_3(self, cfg_file, stage3_ckpt, tmp_path, capsys,
                                           name, value, problem):
        path = tmp_path / "stage3.ckpt"
        if value == "directory":
            path.mkdir()
        else:
            ckpt = read_checkpoint(stage3_ckpt)
            ckpt.fields[name][2, 10] = value
            write_checkpoint(ckpt, path)
        message = f"{path}: {problem}"
        code = main(["--config", str(cfg_file), "--stage", "4", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == f"checkpoint error: {message}\n"
        assert not (tmp_path / "stage4.ckpt").exists()

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
