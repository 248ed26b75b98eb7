"""``simulate`` command-line entry point."""

from __future__ import annotations

import argparse
import sys

from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig
from .flow import SolverError
from .pipeline import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_MISSING_CHECKPOINT,
    EXIT_OK,
    EXIT_SOLVER,
    AuditError,
    MissingCheckpointError,
    parse_stage_selection,
    run,
)
from .solute import TransportError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Four-stage groundwater contamination and remediation simulator.",
    )
    p.add_argument("--config", help="configuration file (defaults to the built-in scenario)")
    p.add_argument("--stage", default="all", help="1|2|3|4|all (default: all)")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--seed", type=int, default=0, help="random-field seed (default: 0)")
    p.add_argument("--checkpoint", help="checkpoint directory (default: the output directory)")
    p.add_argument("--export", choices=["csv", "vtk"], default="csv",
                   help="snapshot format (default: csv)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        stages = parse_stage_selection(args.stage)
        config = RunConfig.from_file(args.config) if args.config else RunConfig.default()
        result = run(
            config,
            stages,
            args.out,
            seed=args.seed,
            checkpoint_dir=args.checkpoint,
            export=args.export,
        )
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingCheckpointError as err:
        print(f"missing prerequisite checkpoint: {err}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except (SolverError, TransportError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except AuditError as err:
        print(f"audit failure: {err}", file=sys.stderr)
        return EXIT_AUDIT
    print(result.report, end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
