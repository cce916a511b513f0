"""Versioned binary checkpoints.

Layout (all integers little-endian):
    8 bytes   magic "DPHDUNCK"
    u32       format version (1)
    u32 + n   UTF-8 JSON header: config snapshot, epoch, per-parameter Adam
              step counters
    u32       tensor count
    per tensor:
        u32 + n  UTF-8 name ("<param>", "<param>#adam_m", "<param>#adam_v")
        u8       rank
        u8       dtype code (0 = float32, 1 = float64)
        u32*rank extents
        raw      values, little-endian, C order

Loading parses the whole file before touching any model state, so a malformed
file can never leave a half-restored model. A tensor name that appears twice, or
any byte after the last tensor, is a format error.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointMagicError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractError,
)
from .training import TrainConfig

MAGIC = b"DPHDUNCK"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if n < 0:
            raise CheckpointFormatError(f"negative byte count {n} at offset {self.pos}")
        if self.pos + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.blob)}"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u8(self):
        return self.take(1)[0]

    def text(self, what):
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"{what} is not UTF-8: {err}") from None


def _tensor_entry(name, arr):
    dtype = np.dtype(arr.dtype)
    if dtype not in _DTYPE_CODES:
        raise ContractError(f"unsupported dtype {dtype} for {name}")
    payload = [
        struct.pack("<I", len(name.encode()))
        + name.encode()
        + struct.pack("<BB", arr.ndim, _DTYPE_CODES[dtype])
    ]
    payload.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
    payload.append(np.ascontiguousarray(arr).astype(dtype.newbyteorder("<"), copy=False).tobytes())
    return b"".join(payload)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header):
    if not isinstance(header, dict) or not {"config", "epoch", "steps"} <= set(header):
        raise CheckpointFormatError("header must be an object with config, epoch and steps")
    if not isinstance(header["config"], dict):
        raise CheckpointFormatError("header config must be an object")
    if not _is_count(header["epoch"]):
        raise CheckpointFormatError(f"header epoch must be an integer >= 0, got {header['epoch']!r}")
    steps = header["steps"]
    if not (isinstance(steps, dict) and all(_is_count(v) for v in steps.values())):
        raise CheckpointFormatError("header steps must map parameter names to integers >= 0")


def save_checkpoint(path, model, epoch=0, config=None):
    """Write the model's parameters and Adam state. `config` is None, a TrainConfig
    or a JSON-serializable dict; anything else, or an epoch that is not an
    integer >= 0, raises ContractError before the file is opened; a path that cannot be
    written raises CheckpointError."""
    if isinstance(config, TrainConfig):
        config = config.to_dict()
    if not (config is None or isinstance(config, dict)):
        raise ContractError(f"config must be a TrainConfig or a dict, got {type(config).__name__}")
    if not _is_count(epoch):
        raise ContractError(f"epoch must be an integer >= 0, got {epoch!r}")
    tensors = []
    steps = {}
    for name, param in model.named_parameters():
        tensors += [(name, param.data), (f"{name}#adam_m", param.adam_m), (f"{name}#adam_v", param.adam_v)]
        steps[name] = param.step_count
    header = {"config": config or {}, "epoch": epoch, "steps": steps}
    try:
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    except (TypeError, ValueError) as err:
        raise ContractError(f"checkpoint header is not JSON-serializable: {err}") from None
    entries = [_tensor_entry(name, arr) for name, arr in tensors]
    try:
        with open(os.fspath(path), "wb") as fh:  # fspath refuses an int, which open() takes as a descriptor it closes
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(struct.pack("<I", len(entries)))
            for entry in entries:
                fh.write(entry)
    except (OSError, TypeError, ValueError) as err:  # TypeError and ValueError: not a path
        raise CheckpointError(f"cannot write checkpoint {path}: {err}") from err


def load_checkpoint(path):
    """Parse a checkpoint into (header dict, {name: array}); no model mutation."""
    try:
        with open(os.fspath(path), "rb") as fh:  # fspath refuses an int, which open() takes as a descriptor it closes
            blob = fh.read()
    except (OSError, TypeError, ValueError) as err:  # TypeError and ValueError: not a path
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    reader = _Reader(blob)
    magic = reader.take(8)
    if magic != MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointVersionError(f"checkpoint version {version} not supported (expected {VERSION})")
    try:
        header = json.loads(reader.text("header"))
    except (json.JSONDecodeError, RecursionError) as err:
        raise CheckpointFormatError(f"header is not JSON: {err!r}") from None
    _check_header(header)
    count = reader.u32()
    tensors = {}
    for _ in range(count):
        name = reader.text("tensor name")
        if name in tensors:
            raise CheckpointFormatError(f"tensor {name!r} appears twice")
        rank = reader.u8()
        code = reader.u8()
        if code not in _CODE_DTYPES:
            raise CheckpointFormatError(f"unknown dtype code {code} for {name}")
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank)) if rank else ()
        dtype = _CODE_DTYPES[code]
        raw = reader.take(math.prod(shape) * dtype.itemsize)  # Python ints: no overflow
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if reader.pos != len(blob):
        raise CheckpointFormatError(f"{len(blob) - reader.pos} bytes after the last tensor")
    return header, tensors


def restore_model(model, header, tensors):
    """Write saved parameter values and Adam state into a freshly built model.

    Every entry is checked against the model before the first write: a header
    that `load_checkpoint` would refuse raises CheckpointFormatError, and a
    missing or unexpected name, shape or dtype, or a `steps` table that does not
    name exactly the model's parameters, raises CheckpointMismatchError, as does
    an entry that is not an ndarray; `tensors` not a dict raises ContractError.
    Each leaves the model untouched.
    """
    if not isinstance(tensors, dict):
        raise ContractError(f"tensors must be a dict of name to ndarray, got {type(tensors).__name__}")
    _check_header(header)
    steps = header["steps"]
    params = list(model.named_parameters())
    names = {name for name, _ in params}
    if set(steps) != names:
        raise CheckpointMismatchError(f"header steps table: missing {sorted(names - set(steps))[:3]}, "
                                      f"not in the model {sorted(set(steps) - names)[:3]}")
    expected = {}
    for name, param in params:
        for key in (name, f"{name}#adam_m", f"{name}#adam_v"):
            expected[key] = param.data
    unexpected = sorted(set(tensors) - set(expected))
    if unexpected:
        raise CheckpointMismatchError(f"checkpoint entries not in the model: {unexpected[:3]}")
    for key, like in expected.items():
        arr = tensors.get(key)
        if arr is None:
            raise CheckpointMismatchError(f"checkpoint missing {key}")
        if not isinstance(arr, np.ndarray):
            raise CheckpointMismatchError(f"{key}: checkpoint entry is a {type(arr).__name__}, not an ndarray")
        if arr.shape != like.shape or arr.dtype != like.dtype:
            raise CheckpointMismatchError(
                f"{key}: checkpoint has {arr.dtype} {arr.shape}, model expects {like.dtype} {like.shape}"
            )
    for name, param in params:
        param.data = tensors[name].copy()
        param.adam_m = tensors[f"{name}#adam_m"].copy()
        param.adam_v = tensors[f"{name}#adam_v"].copy()
        param.step_count = steps[name]
    return model
