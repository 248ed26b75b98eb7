import numpy as np
import pytest

import inputs
from remsim.checkpoint import read_checkpoint
from remsim.config import RunConfig
from remsim.grid import CLAY
from remsim.scenario import Scenario


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_gives_same_bytes(name, tmp_path):
    workload = inputs.WORKLOADS[name]
    first = inputs.make_inputs(workload, 7, tmp_path / "a")
    second = inputs.make_inputs(workload, 7, tmp_path / "b")
    other = inputs.make_inputs(workload, 8, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert first.digests == second.digests
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert set(first.digests) == set(files(tmp_path / "a"))


@pytest.mark.parametrize("name", ["plume", "remediation"])
def test_checkpoint_matches_its_config_and_seed(name, tmp_path):
    inp = inputs.make_inputs(inputs.WORKLOADS[name], 3, tmp_path)
    cfg = RunConfig.from_text(inp.config.read_text())
    ckpt = read_checkpoint(inp.checkpoint)
    scn = Scenario.build(cfg, 3)
    assert (ckpt.stage, ckpt.seed, ckpt.config_hash) == (inputs.WORKLOADS[name].stages[0] - 1, 3, cfg.config_hash)
    f = ckpt.fields
    assert all(np.isfinite(a).all() for a in f.values())
    assert np.array_equal(f["k"], scn.material.k)
    assert np.array_equal(f["theta_m"], scn.material.porosity)
    assert f["sn"].max() > 0.3 and f["sn"].min() == 0.0
    assert not f["sn"][scn.material.lithology == CLAY].any()
    assert np.allclose(f["sw"] + f["sn"], 1.0)
    assert 0.0 <= f["c_tce"].min() and f["c_tce"].max() <= cfg.solubility
    assert (f["c_tce"].any()) == (name == "remediation")
