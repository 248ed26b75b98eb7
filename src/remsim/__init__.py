"""remsim: staged 2D groundwater contamination and remediation simulator.

Four chained stages on a shared finite-volume grid: DNAPL release
(two-phase IMPES), source dissolution and plume transport, stabilized
iron-nanoparticle injection with clogging feedback, and reactive
degradation with passivation.  See the ``simulate`` CLI or the stage
runners in :mod:`remsim.stages`.
"""

from .checkpoint import StageCheckpoint, read_checkpoint, write_checkpoint
from .config import ConfigError, RunConfig
from .pipeline import run
from .scenario import Scenario
from .stages import initial_checkpoint, run_stage1, run_stage2, run_stage3, run_stage4

__all__ = [
    "ConfigError",
    "RunConfig",
    "Scenario",
    "StageCheckpoint",
    "initial_checkpoint",
    "read_checkpoint",
    "run",
    "run_stage1",
    "run_stage2",
    "run_stage3",
    "run_stage4",
    "write_checkpoint",
]

__version__ = "0.1.0"
