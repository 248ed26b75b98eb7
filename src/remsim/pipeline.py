"""Stage orchestration: checkpoint resolution, snapshot export, audits.

Exit-code taxonomy (shared with the CLI), one exception per code:
  0 success; 2 configuration error (:class:`ConfigError`: a bad or
  unreadable config, an unusable output path, a seed out of range); 3
  missing, unreadable, corrupt, non-finite, foreign or wrong-stage
  prerequisite checkpoint (:class:`CheckpointError`); 4 solver failure
  (:class:`SolverError`); 5 mass-balance audit failure (:class:`AuditError`,
  a NaN closure included).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .config import ConfigError, RunConfig
from .export import write_csv, write_series_csv, write_vtk
from .scenario import Scenario
from .stages import (
    DAY,
    LEDGER_TERMS,
    StageResult,
    initial_checkpoint,
    run_stage1,
    run_stage2,
    run_stage3,
    run_stage4,
)

AUDIT_TOLERANCE = 5e-3

# snapshot formats, each also the file extension; ``_export`` looks its
# writer up by module name at call time, so a rebound writer is the one called
EXPORT_FORMATS = ("csv", "vtk")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_CHECKPOINT = 3
EXIT_SOLVER = 4
EXIT_AUDIT = 5


class AuditError(RuntimeError):
    """A stage's mass balance failed to close within tolerance."""


def closes(err: float) -> bool:
    """Whether a ledger's closure error passes the audit; NaN fails."""
    return err <= AUDIT_TOLERANCE


def parse_stage_selection(text: str) -> list[int]:
    if text == "all":
        return [1, 2, 3, 4]
    try:
        return [int(text)]
    except ValueError as err:
        raise ConfigError(f"invalid stage selection {text!r}") from err


def checkpoint_path(directory, stage: int) -> Path:
    return Path(directory) / f"stage{stage}.ckpt"


@dataclass
class RunResult:
    results: dict[int, StageResult]
    report: str


def _audit_lines(stage: int, res: StageResult) -> list[str]:
    counts = res.diagnostics["pressure"]
    lines = [f"stage {stage} audit:",
             f"  pressure: {counts['solves']} solves, {counts['full']} full, "
             f"mean {counts['mean_columns']:.1f}/{counts['columns']} columns, "
             f"{counts['strip_sweeps']} strip sweeps"]
    if "limits" in res.diagnostics:
        lines.append("  sub-step limits: " + ", ".join(
            f"{name} {n}" for name, n in res.diagnostics["limits"].items()))
    if "window" in res.diagnostics:
        window = res.diagnostics["window"]
        lines.append(f"  window: mean {window['mean_columns']:.1f}/{window['columns']} columns, "
                     f"max {window['max_columns']}")
    if "budget" in res.diagnostics:
        lines.append("  budget: " + ", ".join(
            f"{name} {mass:.6e}" for name, mass in res.diagnostics["budget"].items()) + "  kg/m")
    for name, ledger in res.ledger.items():
        err = ledger.closure()
        status = "ok" if closes(err) else "FAIL"
        lines.append(f"  {name:8s} closure error {err:.3e}  [{status}]")
        lines.append("    " + "  ".join(f"{term} {getattr(ledger, term):.6e}"
                                        for term in LEDGER_TERMS) + "  kg/m")
    return lines


def _export(res: StageResult, out_dir: Path, grid, fmt: str) -> None:
    stage_dir = out_dir / f"stage{res.stage}"
    writer = write_vtk if fmt == "vtk" else write_csv
    for t, fields in res.snapshots:
        writer(stage_dir / f"snapshot_t{t / DAY:09.3f}d.{fmt}", grid, fields)
    header = res.diagnostics.get("series_header")
    if header and res.series:
        write_series_csv(stage_dir / "series.csv", header, res.series)


def run(
    config: RunConfig,
    stages: list[int],
    out_dir,
    seed: int = 0,
    checkpoint_dir=None,
    export: str | None = "csv",
) -> RunResult:
    """Run the selected (contiguous) stages, writing checkpoints and reports."""
    if (not stages or stages != list(range(stages[0], stages[-1] + 1))
            or stages[0] < 1 or stages[-1] > 4):
        raise ConfigError("stage selection must be a contiguous ascending range of stages 1-4")
    # a seed in [0, 2**63) reaches the random field's Philox key unchanged;
    # numpy wraps a negative one and may round a larger one through float64
    if not 0 <= seed < 2**63:
        raise ConfigError(f"seed {seed} is outside [0, 2**63)")
    if export is not None and export not in EXPORT_FORMATS:
        raise ConfigError(f"export format {export!r} is not one of {', '.join(EXPORT_FORMATS)}")
    # an empty path would name the current directory
    for name, directory in (("output", out_dir), ("checkpoint", checkpoint_dir)):
        if directory == "":
            raise ConfigError(f"the {name} directory is an empty path")
    out_dir = Path(out_dir)
    ckpt_dir = out_dir if checkpoint_dir is None else Path(checkpoint_dir)
    for directory in (out_dir, ckpt_dir):
        if directory.exists() and not directory.is_dir():
            raise ConfigError(f"cannot make directory {directory}: it is a file")

    scn = Scenario.build(config, seed)
    if stages[0] == 1:
        prev = initial_checkpoint(scn)
    else:
        path = checkpoint_path(ckpt_dir, stages[0] - 1)
        prev = read_checkpoint(path)
        if prev.stage != stages[0] - 1:
            raise CheckpointError(f"{path}: holds the state after stage {prev.stage}, "
                                  f"not after stage {stages[0] - 1}")
        if (prev.nx, prev.ny) != (scn.grid.nx, scn.grid.ny):
            raise CheckpointError(
                f"{path}: grid {prev.nx}x{prev.ny} does not match config "
                f"{scn.grid.nx}x{scn.grid.ny}"
            )
        if (prev.config_hash, prev.seed) != (config.config_hash, seed):
            raise CheckpointError(
                f"{path}: written by config {prev.config_hash} with seed {prev.seed}, "
                f"not by this run's config {config.config_hash} with seed {seed}"
            )

    # every refusal above comes before the first directory is made
    for directory in (out_dir, ckpt_dir):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot make directory {directory}: {err.strerror}") from err

    runners = {1: run_stage1, 2: run_stage2, 3: run_stage3, 4: run_stage4}
    results: dict[int, StageResult] = {}
    report_lines: list[str] = []
    failed = []
    for stage in stages:
        res = runners[stage](scn, prev)
        results[stage] = res
        write_checkpoint(res.checkpoint, checkpoint_path(ckpt_dir, stage))
        if export:
            _export(res, out_dir, scn.grid, export)
        report_lines += _audit_lines(stage, res)
        failed += [f"stage {stage}/{n}" for n, e in res.audit.items() if not closes(e)]
        prev = res.checkpoint

    report = "\n".join(report_lines) + "\n"
    (out_dir / "audit_report.txt").write_text(report)
    if failed:
        raise AuditError("mass balance closure exceeded tolerance: " + ", ".join(failed))
    return RunResult(results=results, report=report)
