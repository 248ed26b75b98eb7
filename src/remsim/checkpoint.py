"""Inter-stage checkpoints: plain-text JSON manifest + flat binary payload.

One file per checkpoint: a canonical JSON manifest line, a separator byte,
then the concatenated field arrays as little-endian float64 in manifest
order.  Reload followed by re-save is byte-identical, which is what the
determinism contract of the pipeline is tested against.  Writes go through a
temporary file and ``os.replace``, so no reader ever sees a partial file.
:func:`read_checkpoint` makes every check of a file's contents; it range-checks
only ``k`` and ``theta_m``, as the stages leave rounding-level negatives in ``sn``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2
_SEPARATOR = b"\n\x00"

# canonical field order in every checkpoint; ``sw`` is ``1 - sn``, read by no stage
FIELD_NAMES = (
    "sw",
    "sn",
    "pw",
    "c_tce",
    "c_cmc",
    "c_nzvi",
    "s_bulk",
    "theta_m",
    "k",
)

# every key of a manifest (see StageCheckpoint.manifest)
_MANIFEST_KEYS = ("version", "stage", "clock", "nx", "ny", "seed", "config_hash", "fields")


class CheckpointError(IOError):
    """Corrupt, truncated or incompatible checkpoint files."""


@dataclass
class StageCheckpoint:
    stage: int
    clock: float              # simulation time at save (s, from stage-1 start)
    nx: int
    ny: int
    seed: int
    config_hash: str
    fields: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # every other field defaults to zeros; a zero k or theta_m is refused
        missing = [name for name in ("k", "theta_m") if name not in self.fields]
        if missing:
            raise ValueError(f"checkpoint fields {', '.join(missing)} are required")
        for name in FIELD_NAMES:
            self.fields.setdefault(name, np.zeros((self.ny, self.nx)))

    def manifest(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "stage": self.stage,
            "clock": self.clock,
            "nx": self.nx,
            "ny": self.ny,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "fields": [{"name": n, "size": self.nx * self.ny} for n in FIELD_NAMES],
        }


def write_checkpoint(ckpt: StageCheckpoint, path) -> None:
    """Write atomically: a temporary file in the target directory replaces
    ``path`` only once complete, so a failed write leaves the old file."""
    path = Path(path)
    manifest = json.dumps(ckpt.manifest(), sort_keys=True, separators=(",", ":"))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(manifest.encode())
            fh.write(_SEPARATOR)
            for name in FIELD_NAMES:
                arr = np.ascontiguousarray(ckpt.fields[name], dtype="<f8")
                if arr.shape != (ckpt.ny, ckpt.nx):
                    raise CheckpointError(f"field {name} has shape {arr.shape}")
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_manifest(data: bytes, path) -> tuple[dict, int]:
    """The checked manifest at the head of ``data`` and the offset of the
    payload after its separator."""
    sep = data.find(_SEPARATOR)
    if sep < 0:
        raise CheckpointError(f"{path}: no manifest separator found")
    try:
        manifest = json.loads(data[:sep].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: malformed manifest: {err}") from err
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: malformed manifest: not a JSON object")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest lacks {', '.join(missing)}")
    version = manifest["version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} is not the supported version "
            f"{FORMAT_VERSION}"
        )
    return manifest, sep + len(_SEPARATOR)


def read_checkpoint(path) -> StageCheckpoint:
    """Read the file once and check it: the manifest keys, a finite clock, the
    fields of :data:`FIELD_NAMES` in order, each of ``nx * ny`` values, the
    payload length, finite values, a positive ``k`` and a ``theta_m`` in (0, 1]."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"{path}: cannot be read: {err.strerror}") from err
    manifest, start = _parse_manifest(data, path)
    nx, ny = manifest["nx"], manifest["ny"]
    if not all(type(n) is int and n > 0 for n in (nx, ny)):
        raise CheckpointError(f"{path}: grid {nx!r}x{ny!r} is not two positive integers")
    clock = manifest["clock"]
    if type(clock) not in (int, float) or not math.isfinite(clock):
        raise CheckpointError(f"{path}: clock {clock!r} is not a finite number")
    if manifest["fields"] != [{"name": name, "size": nx * ny} for name in FIELD_NAMES]:
        raise CheckpointError(
            f"{path}: manifest fields are not {', '.join(FIELD_NAMES)} of nx*ny = {nx * ny} "
            f"values each"
        )
    expected = len(FIELD_NAMES) * nx * ny * 8
    if len(data) - start != expected:
        raise CheckpointError(
            f"{path}: payload length {len(data) - start} != manifest total {expected}"
        )
    block = np.frombuffer(data, dtype="<f8", offset=start).reshape(len(FIELD_NAMES), ny, nx)
    finite = np.isfinite(block).all(axis=(1, 2))
    if not finite.all():
        bad = [name for name, ok in zip(FIELD_NAMES, finite) if not ok]
        raise CheckpointError(f"{path}: non-finite values in {', '.join(bad)}")
    fields = dict(zip(FIELD_NAMES, block))
    if not (fields["k"] > 0).all():
        raise CheckpointError(f"{path}: non-positive values in k")
    if not ((fields["theta_m"] > 0) & (fields["theta_m"] <= 1)).all():
        raise CheckpointError(f"{path}: values of theta_m outside (0, 1]")
    return StageCheckpoint(
        stage=manifest["stage"],
        clock=clock,
        nx=nx,
        ny=ny,
        seed=manifest["seed"],
        config_hash=manifest["config_hash"],
        # one array per field, so a field the stage replaces frees its memory
        fields={name: values.copy() for name, values in fields.items()},
    )
