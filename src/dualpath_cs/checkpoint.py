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
file can never leave a half-restored model.
"""

import json
import struct

import numpy as np

from .errors import (
    CheckpointMagicError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractError,
)

MAGIC = b"DPHDUNCK"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
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


def checkpoint_state(model, epoch=0, config=None):
    """Collect the serializable state of a model into (header, tensor list)."""
    tensors = []
    steps = {}
    for name, param in model.named_parameters():
        tensors.append((name, param.data))
        tensors.append((f"{name}#adam_m", param.adam_m))
        tensors.append((f"{name}#adam_v", param.adam_v))
        steps[name] = param.step_count
    header = {"config": config or {}, "epoch": epoch, "steps": steps}
    return header, tensors


def save_checkpoint(path, model, epoch=0, config=None):
    header, tensors = checkpoint_state(model, epoch=epoch, config=config)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    entries = [_tensor_entry(name, arr) for name, arr in tensors]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(entries)))
        for entry in entries:
            fh.write(entry)


def load_checkpoint(path):
    """Parse a checkpoint into (header dict, {name: array}); no model mutation."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = _Reader(blob)
    magic = reader.take(8)
    if magic != MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointVersionError(version, VERSION)
    header = json.loads(reader.take(reader.u32()).decode())
    count = reader.u32()
    tensors = {}
    for _ in range(count):
        name = reader.take(reader.u32()).decode()
        rank = reader.u8()
        code = reader.u8()
        if code not in _CODE_DTYPES:
            raise CheckpointTruncatedError(f"unknown dtype code {code} for {name}")
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank)) if rank else ()
        dtype = _CODE_DTYPES[code]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        raw = reader.take(nbytes)
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return header, tensors


def restore_model(model, header, tensors):
    """Write saved parameter values and Adam state into a freshly built model.

    Every entry is checked against the model before the first write: a missing
    or unexpected name, shape or dtype raises CheckpointMismatchError and
    leaves the model untouched.
    """
    steps = header.get("steps", {})
    params = list(model.named_parameters())
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
        if arr.shape != like.shape or arr.dtype != like.dtype:
            raise CheckpointMismatchError(
                f"{key}: checkpoint has {arr.dtype} {arr.shape}, model expects {like.dtype} {like.shape}"
            )
    for name, param in params:
        param.data = tensors[name].copy()
        param.adam_m = tensors[f"{name}#adam_m"].copy()
        param.adam_v = tensors[f"{name}#adam_v"].copy()
        param.step_count = int(steps.get(name, 0))
    return model
