"""Seeded inputs for the benchmark workloads.

A workload seed fixes everything the simulator receives: the config text,
the ``--seed`` value of the run and, for workloads that start after stage 1,
the prerequisite checkpoint.  The checkpoints are synthesised from the
scenario geometry (NAPL pools resting on the clay lenses, residual ganglia
under the infiltration strip and, for stage 2, an aqueous plume downgradient
of the source) instead of by running the earlier stage, which would take
minutes and depend on the code under test.  They are written with the
public ``write_checkpoint`` and carry the config's hash and seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from remsim.checkpoint import StageCheckpoint, write_checkpoint
from remsim.config import RunConfig
from remsim.scenario import Scenario

TEMPLATE = Path(__file__).with_name("scenario.cfg")

# Values of the template's fields for the stages a workload does not run.
_DEFAULTS = {
    "stage1_duration": "135 day",
    "stage2_duration": "11 year",
    "stage3_duration": "8 hour",
    "stage4_duration": "2.5 year",
    "stage1_snapshots": "5 day, 15 day, 25 day, 35 day, 40 day, 60 day, 85 day, 135 day",
    "stage2_snapshots": "0.1 year, 0.4 year, 1 year, 3 year, 6 year, 11 year",
    "stage3_snapshots": "1 hour, 4 hour, 8 hour",
    "stage4_snapshots": "5 day, 60 day, 182.5 day, 1 year, 1.5 year, 2.5 year",
}


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[int, ...]
    export: str
    fields: dict            # template fields that size the run

    @property
    def prerequisite(self) -> int | None:
        """Stage whose checkpoint the run restarts from, if any."""
        return self.stages[0] - 1 or None


# Why each workload exists is recorded in BENCHMARK.json.  Each window keeps
# the amount of work independent of the seed: one release day takes six IMPES
# sub-steps for the permeability fields tried, and transport sub-steps per step are
# set by the well rate (stage 3) or stay at two per day (stages 2 and 4).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="release",
        stages=(1,),
        export="csv",
        # the only snapshot lies past the window, so none is written
        fields={"stage1_duration": "1 day", "stage1_snapshots": "2 day"},
    ),
    Workload(
        name="plume",
        stages=(2,),
        export="csv",
        fields={"stage2_duration": "4 year", "stage2_snapshots": "1 year, 4 year"},
    ),
    Workload(
        name="remediation",
        stages=(3, 4),
        export="vtk",
        fields={
            "stage3_duration": "2 hour",
            "stage3_snapshots": "1 hour, 2 hour",
            "stage4_duration": "30 day",
            "stage4_snapshots": "10 day, 30 day",
        },
    ),
)}


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload receives, with content digests."""

    workload: Workload
    seed: int
    config: Path
    checkpoint: Path | None
    digests: dict


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_text(workload: Workload, seed: int) -> str:
    rng = np.random.default_rng([seed, 0])
    fields = dict(_DEFAULTS, **workload.fields)
    # the monitoring well only probes concentrations; it does no work
    fields["monitor_x"] = f"{rng.uniform(24.0, 30.0):.2f} m"
    return TEMPLATE.read_text().format(**fields)


def napl_saturation(scn: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Pools on the top of each clay lens plus ganglia under the strip."""
    cfg, g = scn.config, scn.grid
    xv, yv = g.cell_centers()
    sn = np.zeros((g.ny, g.nx))
    for x0, _, x1, y1 in cfg.lenses:
        span = (x1 - x0) * rng.uniform(0.4, 0.9)
        left = x0 + rng.uniform(0.0, x1 - x0 - span)
        rows = rng.integers(1, 4)
        pool = (xv >= left) & (xv <= left + span) & (yv > y1) & (yv <= y1 + rows * g.dy)
        # saturation falls off upward from the lens top
        sn = np.where(pool, rng.uniform(0.3, 0.6) * (1.0 - 0.5 * (yv - y1) / (rows * g.dy)), sn)
    # ganglia in a cone widening downward from the strip
    depth = g.height - yv
    cone = np.abs(xv - cfg.infil_center) <= cfg.infil_width / 2 + 0.15 * depth
    ganglia = cone & (rng.random(sn.shape) < 0.3)
    sn = np.where(ganglia & (sn == 0.0), rng.uniform(0.01, 0.08, sn.shape), sn)
    return np.where(scn.material.sand_mask, sn, 0.0)


def aqueous_plume(scn: Scenario, sn: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dissolved TCE: saturated in the source, decaying downgradient (+x)."""
    cfg, g = scn.config, scn.grid
    xv, yv = g.cell_centers()
    w = sn * scn.material.porosity
    xs, ys = (w * xv).sum() / w.sum(), (w * yv).sum() / w.sum()
    length = rng.uniform(3.0, 8.0)
    spread = rng.uniform(0.5, 1.5)
    along = np.where(xv >= xs, (xv - xs) / length, 4.0 * (xs - xv) / length)
    c = cfg.solubility * rng.uniform(0.3, 0.8) * np.exp(-along - ((yv - ys) / spread) ** 2)
    return np.where(sn > 0, cfg.solubility, c)


def prerequisite_checkpoint(scn: Scenario, stage: int, rng: np.random.Generator) -> StageCheckpoint:
    cfg, g = scn.config, scn.grid
    m = scn.material
    sn = napl_saturation(scn, rng)
    xv, yv = g.cell_centers()
    fields = {"sn": sn, "sw": 1.0 - sn, "theta_m": m.porosity.copy(), "k": m.k.copy()}
    rho_g = cfg.rho_w * cfg.gravity
    if stage == 1:
        # stage 1 runs with equal lateral heads at the domain top
        fields["pw"] = rho_g * (g.height - yv)
    else:
        head = cfg.head_left + (cfg.head_right - cfg.head_left) * xv / g.width
        fields["pw"] = rho_g * (head - yv)
        fields["c_tce"] = aqueous_plume(scn, sn, rng)
    return StageCheckpoint(
        stage=stage,
        clock=float(sum(cfg.stage_durations[:stage])),
        nx=g.nx,
        ny=g.ny,
        seed=scn.seed,
        config_hash=cfg.config_hash,
        fields=fields,
    )


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    text = config_text(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "run.cfg"
    config.write_text(text)
    digests = {config.name: sha256(text.encode())}
    ckpt_path = None
    stage = workload.prerequisite
    if stage is not None:
        scn = Scenario.build(RunConfig.from_text(text), seed)
        ckpt = prerequisite_checkpoint(scn, stage, np.random.default_rng([seed, stage]))
        ckpt_path = directory / f"stage{stage}.ckpt"
        write_checkpoint(ckpt, ckpt_path)
        digests[ckpt_path.name] = sha256(ckpt_path.read_bytes())
    return Inputs(workload, seed, config, ckpt_path, digests)
