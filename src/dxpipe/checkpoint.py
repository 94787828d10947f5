"""Portable binary checkpoints for FusionNet models.

Byte layout (all integers little-endian):

    bytes 0-7    magic b"DXPCKPT1"
    bytes 8-11   format version (uint32)
    bytes 12-19  metadata length M (uint64)
    bytes 20-..  UTF-8 metadata block of M bytes:
                     [config]
                     key=value          (one line per ModelConfig field)
                     [tensors]
                     name=shape@offset  (shape comma-separated, offset into
                                         the payload section)
    then         raw float32 payloads, little-endian, in directory order,
                 back to back from offset 0 to the end of the file (the
                 loader accepts no other layout)

Every number in the metadata is spelled as str() writes it, and the loader
takes no other spelling: no sign, underscore, space or non-ASCII digit that
str() would not write.

Loading a checkpoint reproduces bit-identical eval-mode forward outputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from dxpipe.fileio import write_atomic
from dxpipe.nnet import FusionNet, ModelConfig, param_shapes

MAGIC = b"DXPCKPT1"
VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable, mismatched, or truncated checkpoint files."""


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: dict[str, np.ndarray]


def checkpoint_from_model(model: FusionNet) -> Checkpoint:
    """The record of model for save_checkpoint: its config and its own
    parameter arrays, not copies, since saving only reads them."""
    return Checkpoint(config=model.config, tensors=dict(model.params))


def model_from_checkpoint(ckpt: Checkpoint) -> FusionNet:
    """The model whose parameters are ckpt's tensors, which must be exactly
    the ones its config calls for, with their shapes."""
    shapes = param_shapes(ckpt.config)
    missing = set(shapes) - set(ckpt.tensors)
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")
    extra = set(ckpt.tensors) - set(shapes)
    if extra:
        raise CheckpointError(f"checkpoint has unexpected tensors: {sorted(extra)}")
    for name, shape in shapes.items():
        if ckpt.tensors[name].shape != shape:
            raise CheckpointError(
                f"checkpoint tensor {name} has shape {ckpt.tensors[name].shape}, expected {shape}"
            )
    params = {k: np.array(v, dtype=np.float32) for k, v in ckpt.tensors.items()}
    return FusionNet(ckpt.config, params=params)


def _config_lines(config: ModelConfig) -> list[str]:
    lines = []
    for f in fields(ModelConfig):
        v = getattr(config, f.name)
        lines.append(f"{f.name}={float(v) if f.name == 'dropout_rate' else v}")
    return lines


def _canonical(raw: str, parse: type):
    """parse(raw) (int or float), if raw is the text str() writes for it."""
    value = parse(raw)
    if str(value) != raw:
        raise ValueError(f"{raw!r} is not canonical")
    return value


def _parse_config(lines: list[str]) -> ModelConfig:
    """Every ModelConfig field, once: each has been written since format
    version 1, so a missing key means a damaged file, not an older one."""
    kwargs = {}
    names = {f.name for f in fields(ModelConfig)}
    for line in lines:
        key, _, raw = line.partition("=")
        if key == "full_scale":
            continue  # older files; their dims were resolved at save time
        if key not in names:
            raise CheckpointError(f"corrupt checkpoint: unknown config key {key!r}")
        if key in kwargs:
            raise CheckpointError(f"corrupt checkpoint: config key {key!r} given twice")
        try:
            kwargs[key] = _canonical(raw, float if key == "dropout_rate" else int)
        except ValueError:
            raise CheckpointError(f"corrupt checkpoint: bad config value {line!r}") from None
    missing = names - kwargs.keys()
    if missing:
        raise CheckpointError(f"corrupt checkpoint: missing config keys {sorted(missing)}")
    try:
        return ModelConfig(**kwargs)
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None


def save_checkpoint(ckpt: Checkpoint, path: Path | str) -> None:
    """Write ckpt to path atomically (see fileio.write_atomic)."""
    meta_lines = ["[config]"]
    meta_lines += _config_lines(ckpt.config)
    meta_lines.append("[tensors]")
    offset = 0
    payloads = []  # the arrays themselves: join copies each buffer once, into the file's bytes
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        shape = ",".join(str(d) for d in arr.shape)
        meta_lines.append(f"{name}={shape}@{offset}")
        payloads.append(arr)
        offset += arr.nbytes
    meta = ("\n".join(meta_lines) + "\n").encode("utf-8")
    header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(meta))
    write_atomic(path, b"".join([header, meta, *payloads]))


def save_model(model: FusionNet, path: Path | str) -> None:
    save_checkpoint(checkpoint_from_model(model), path)


def load_checkpoint(path: Path | str) -> Checkpoint:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 12:
        raise CheckpointError("corrupt checkpoint: file too short")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"corrupt checkpoint: bad magic {data[:8]!r}")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + meta_len > len(data):
        raise CheckpointError("corrupt checkpoint: truncated metadata")
    try:
        meta = data[pos : pos + meta_len].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError("corrupt checkpoint: metadata is not UTF-8") from None
    start = pos + meta_len
    payload_len = len(data) - start

    lines = [ln for ln in meta.splitlines() if ln]
    if lines[:1] != ["[config]"] or "[tensors]" not in lines:
        raise CheckpointError("corrupt checkpoint: missing metadata sections")
    tens_start = lines.index("[tensors]")
    config = _parse_config(lines[1:tens_start])

    # the layout save_checkpoint writes: payloads back to back in directory
    # order, together exactly the payload section
    layout: dict[str, tuple[tuple[int, ...], int]] = {}
    end = 0
    for line in lines[tens_start + 1 :]:
        name, _, rest = line.partition("=")
        shape_str, _, offset_str = rest.partition("@")
        try:
            shape = tuple(_canonical(d, int) for d in shape_str.split(","))
            offset = _canonical(offset_str, int)
        except ValueError:
            raise CheckpointError(f"corrupt checkpoint: bad tensor line {line!r}") from None
        if min(shape) < 0 or name in layout:
            raise CheckpointError(f"corrupt checkpoint: bad tensor line {line!r}")
        if offset != end:
            raise CheckpointError(
                f"corrupt checkpoint: tensor {name} at payload offset {offset}, expected {end}"
            )
        layout[name] = (shape, offset)
        end += 4 * math.prod(shape)
    if end != payload_len:
        what = "truncated payload" if end > payload_len else "bytes past the last tensor"
        raise CheckpointError(
            f"corrupt checkpoint: {what}: tensors take {end} bytes, payload has {payload_len}"
        )
    # read-only views into the file's bytes; model_from_checkpoint makes the
    # one float32 copy a model holds
    tensors = {
        name: np.frombuffer(data, dtype="<f4", count=math.prod(shape), offset=start + offset)
        .reshape(shape)
        for name, (shape, offset) in layout.items()
    }
    return Checkpoint(config=config, tensors=tensors)


def load_model(path: Path | str) -> FusionNet:
    """The model a checkpoint file holds; a CheckpointError names the file."""
    try:
        return model_from_checkpoint(load_checkpoint(path))
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
