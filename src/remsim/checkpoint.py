"""Inter-stage checkpoints: plain-text JSON manifest + flat binary payload.

One file per checkpoint: a canonical JSON manifest line, a separator byte,
then the concatenated field arrays as little-endian float64 in manifest
order.  Reload followed by re-save is byte-identical, which is what the
determinism contract of the pipeline is tested against.  Writes go through a
temporary file and ``os.replace``, so no reader ever sees a partial file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
_SEPARATOR = b"\n\x00"

# canonical field order in every checkpoint
FIELD_NAMES = (
    "sw",
    "sn",
    "pw",
    "c_tce",
    "c_cmc",
    "c_nzvi",
    "s_bulk",
    "rho_m",
    "theta_m",
    "k",
)


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


def read_manifest(path) -> dict:
    """Manifest-only inspection without loading the arrays."""
    with open(path, "rb") as fh:
        head = fh.read(65536)
    sep = head.find(_SEPARATOR)
    if sep < 0:
        raise CheckpointError(f"{path}: no manifest separator found")
    try:
        manifest = json.loads(head[:sep].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: malformed manifest: {err}") from err
    if manifest.get("version", 0) > FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {manifest['version']} is newer than "
            f"supported version {FORMAT_VERSION}"
        )
    return manifest


def read_checkpoint(path) -> StageCheckpoint:
    manifest = read_manifest(path)
    with open(path, "rb") as fh:
        data = fh.read()
    payload = data[data.find(_SEPARATOR) + len(_SEPARATOR):]
    nx, ny = manifest["nx"], manifest["ny"]
    expected = sum(f["size"] for f in manifest["fields"]) * 8
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload length {len(payload)} != manifest total {expected}"
        )
    fields = {}
    offset = 0
    for f in manifest["fields"]:
        n = f["size"] * 8
        fields[f["name"]] = (
            np.frombuffer(payload[offset: offset + n], dtype="<f8").reshape(ny, nx).copy()
        )
        offset += n
    return StageCheckpoint(
        stage=manifest["stage"],
        clock=manifest["clock"],
        nx=nx,
        ny=ny,
        seed=manifest["seed"],
        config_hash=manifest["config_hash"],
        fields=fields,
    )
