"""Versioned checkpoints: an uncompressed zip that any numpy reads with `np.load`.

Layout (version 2), two members in this order, both stored (ZIP_STORED), with a
fixed timestamp so that saving a restored model writes the same bytes:
    header.json  UTF-8 JSON: version 2, config snapshot, epoch, per-parameter
                 Adam step counters (`steps`), and `shapes`, each parameter's
                 [name, extents] in `named_parameters` order
    state.npy    one [3, total] .npy array (NEP 1, little-endian float32 or
                 float64, C order): every parameter's values, then every
                 `adam_m`, then every `adam_v`, each row in `shapes` order

The zip end record must be the file's last 22 bytes, so no byte may follow it.
Each member's CRC-32 is checked as it is read, and `state.npy`'s byte count is
checked against the zip directory before its data is read, so a forged extent
allocates nothing. `load_checkpoint` returns the header and the state as a
read-only view of the file's bytes, and touches no model. `restore_model` checks
the header's `shapes`, its `steps` and the state's shape and dtype against the
model's layout before its first write, then copies each parameter's three rows.
"""

import json
import math
import os
import tokenize
import zipfile
import zlib
from io import BytesIO

import numpy as np

from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointVersionError,
    ContractError,
)
from .training import TrainConfig

VERSION = 2
_MEMBERS = ["header.json", "state.npy"]
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))
_V1_MAGIC = b"DPHDUNCK"
_END_RECORD = b"PK\x05\x06"  # a zip end record with no comment is 22 bytes, ending in its 0 comment length
# What the zip, .npy and JSON parsers raise on a malformed file (UnicodeDecodeError is a ValueError).
_PARSE_ERRORS = (zipfile.BadZipFile, NotImplementedError, RuntimeError, ValueError, SyntaxError,
                 tokenize.TokenError, EOFError, KeyError, RecursionError)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header):
    if not isinstance(header, dict):
        raise CheckpointFormatError("header must be an object")
    version = header.get("version")
    if not (_is_count(version) and version == VERSION):  # an array version would compare elementwise
        raise CheckpointVersionError(f"checkpoint version {version!r} not supported (expected {VERSION})")
    if not {"config", "epoch", "steps", "shapes"} <= set(header):
        raise CheckpointFormatError("header must be an object with config, epoch, steps and shapes")
    if not isinstance(header["config"], dict):
        raise CheckpointFormatError("header config must be an object")
    if not _is_count(header["epoch"]):
        raise CheckpointFormatError(f"header epoch must be an integer >= 0, got {header['epoch']!r}")
    steps = header["steps"]
    if not (isinstance(steps, dict) and all(isinstance(k, str) and _is_count(v) for k, v in steps.items())):
        raise CheckpointFormatError("header steps must map parameter names to integers >= 0")
    shapes = header["shapes"]
    if not (isinstance(shapes, list) and all(
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(_is_count(n) for n in entry[1]) for entry in shapes)):
        raise CheckpointFormatError("header shapes must list [name, [extent, ...]] pairs")
    if len({name for name, _ in shapes}) != len(shapes):
        raise CheckpointFormatError("a parameter name appears twice in the header's shapes")


def _shapes(params):
    """The header's `shapes`: each parameter's [name, extents], in `named_parameters` order."""
    return [[name, list(p.shape)] for name, p in params]


def save_checkpoint(path, model, epoch=0, config=None):
    """Write the model's parameters and Adam state. `config` is None, a TrainConfig
    or a JSON-serializable dict; anything else, an epoch that is not an integer >= 0,
    or parameters and moments that do not all share one float32 or float64 dtype,
    raises ContractError before the file is opened; a path that cannot be written
    raises CheckpointError."""
    if isinstance(config, TrainConfig):
        config = config.to_dict()
    if not (config is None or isinstance(config, dict)):
        raise ContractError(f"config must be a TrainConfig or a dict, got {type(config).__name__}")
    if not _is_count(epoch):
        raise ContractError(f"epoch must be an integer >= 0, got {epoch!r}")
    params = list(model.named_parameters())
    dtypes = {a.dtype for _, p in params for a in (p.data, p.adam_m, p.adam_v)}
    if len(dtypes) != 1 or not dtypes <= set(_DTYPES):
        raise ContractError(f"parameters and moments must share one dtype, float32 or float64; "
                            f"got {', '.join(sorted(map(str, dtypes)))}")
    dtype = dtypes.pop().newbyteorder("<")
    header = {"version": VERSION, "config": config or {}, "epoch": epoch,
              "steps": {name: p.step_count for name, p in params},
              "shapes": _shapes(params)}
    try:
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    except (TypeError, ValueError) as err:
        raise ContractError(f"checkpoint header is not JSON-serializable: {err}") from None
    shape = (3, sum(p.data.size for _, p in params))
    try:
        # fspath refuses an int, which open() takes as a descriptor it closes. A ZipInfo is stored and
        # stamped 1980-01-01, so equal states give equal bytes.
        with open(os.fspath(path), "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            zf.writestr(zipfile.ZipInfo(_MEMBERS[0]), header_bytes)
            with zf.open(zipfile.ZipInfo(_MEMBERS[1]), "w") as out:
                np.lib.format.write_array_header_1_0(out, {"descr": dtype.str, "fortran_order": False, "shape": shape})
                for key in ("data", "adam_m", "adam_v"):
                    for _, p in params:
                        out.write(np.ascontiguousarray(getattr(p, key), dtype=dtype))
    except (OSError, TypeError, ValueError) as err:  # TypeError and ValueError: not a path
        raise CheckpointError(f"cannot write checkpoint {path}: {err}") from err


def _read_state(zf, blob, total):
    """state.npy's [3, total] values, a read-only view of `blob`, once its .npy header agrees with `total`
    and with the zip directory and its CRC-32 holds."""
    info = zf.getinfo(_MEMBERS[1])
    with zf.open(info) as member:  # checks the local header that `start` below steps over
        version = np.lib.format.read_magic(member)
        if version != (1, 0):  # the version save_checkpoint writes
            raise CheckpointFormatError(f"state.npy is .npy version {version}, expected (1, 0)")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        values_at = member.tell()
    if fortran_order or dtype not in _DTYPES or shape != (3, total):
        raise CheckpointFormatError(f"state.npy holds {dtype.str} {shape} with fortran_order {fortran_order}; the "
                                    f"header's shapes need a C-order <f4 or <f8 array of shape (3, {total})")
    if info.file_size - values_at != 3 * total * dtype.itemsize:
        raise CheckpointFormatError(f"state.npy declares {3 * total * dtype.itemsize} bytes of values, "
                                    f"the zip directory {info.file_size - values_at}")
    # The member's data follows its local header: 30 bytes, then the name and the extra field,
    # whose lengths are the header's last two 16-bit fields.
    at = info.header_offset
    start = at + 30 + int.from_bytes(blob[at + 26:at + 28], "little") + int.from_bytes(blob[at + 28:at + 30], "little")
    if zlib.crc32(memoryview(blob)[start:start + info.file_size]) != info.CRC:
        raise CheckpointFormatError("state.npy fails its CRC-32 check")
    return np.frombuffer(blob, dtype, 3 * total, start + values_at).reshape(shape)


def load_checkpoint(path):
    """Parse a checkpoint into (header dict, state), where state is the read-only [3, total] array of
    values, `adam_m` and `adam_v`; no model mutation.

    A path that cannot be read raises CheckpointError, a version other than 2
    (version 1 files included) CheckpointVersionError, and any other malformed
    file CheckpointFormatError."""
    try:
        with open(os.fspath(path), "rb") as fh:  # fspath refuses an int, which open() takes as a descriptor it closes
            blob = fh.read()
    except (OSError, TypeError, ValueError) as err:  # TypeError and ValueError: not a path
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if blob.startswith(_V1_MAGIC):
        raise CheckpointVersionError(f"checkpoint version 1 not supported (expected {VERSION})")
    if len(blob) < 22 or blob[-22:-18] != _END_RECORD or blob[-2:] != b"\0\0":
        raise CheckpointFormatError("not a checkpoint: the file does not end with a zip end record")
    try:
        # A BytesIO bounds every read by the file's size, where a file's read(n) allocates n bytes first.
        with zipfile.ZipFile(BytesIO(blob)) as zf:
            infos = zf.infolist()
            if [info.filename for info in infos] != _MEMBERS:
                raise CheckpointFormatError(f"members {[info.filename for info in infos]}, expected {_MEMBERS}")
            if any(info.compress_type != zipfile.ZIP_STORED for info in infos):
                raise CheckpointFormatError("a member is compressed; checkpoints are stored")
            header = json.loads(zf.read(_MEMBERS[0]).decode("utf-8"))
            _check_header(header)
            state = _read_state(zf, blob, sum(math.prod(extents) for _, extents in header["shapes"]))
    except _PARSE_ERRORS as err:
        raise CheckpointFormatError(f"malformed checkpoint {path}: {err!r}") from None
    return header, state


def restore_model(model, header, state):
    """Write saved parameter values and Adam state into a freshly built model.

    `state` is the [3, total] array `load_checkpoint` returns. Four checks run before the
    first write: a header that `load_checkpoint` would refuse raises CheckpointFormatError
    (or CheckpointVersionError); `shapes` that do not list the model's parameters, names
    and extents, in `named_parameters` order, a `steps` table that does not name exactly
    those parameters, or a state not of shape (3, total) in their dtype raise
    CheckpointMismatchError; and a state that is not an ndarray raises ContractError.
    Each leaves the model untouched.
    """
    _check_header(header)
    params = list(model.named_parameters())
    saved, layout = header["shapes"], _shapes(params)
    if saved != layout:
        at = next((i for i, (a, b) in enumerate(zip(saved, layout)) if a != b), min(len(saved), len(layout)))
        raise CheckpointMismatchError(f"checkpoint shapes differ from the model's at entry {at}: "
                                      f"{saved[at:at + 1]} against {layout[at:at + 1]}")
    steps, names = header["steps"], {name for name, _ in params}
    if set(steps) != names:
        raise CheckpointMismatchError(f"header steps table: missing {sorted(names - set(steps))[:3]}, "
                                      f"not in the model {sorted(set(steps) - names)[:3]}")
    if not isinstance(state, np.ndarray):
        raise ContractError(f"state must be the [3, total] ndarray load_checkpoint returns, got {type(state).__name__}")
    expect = (3, sum(p.data.size for _, p in params))
    dtypes = {p.data.dtype for _, p in params}
    if state.shape != expect or dtypes != {state.dtype}:
        raise CheckpointMismatchError(f"state is {state.dtype} {state.shape}; the model expects "
                                      f"{', '.join(sorted(map(str, dtypes)))} {expect}")
    offset = 0
    for name, p in params:
        size = p.data.size
        p.data, p.adam_m, p.adam_v = (row[offset:offset + size].reshape(p.shape).copy() for row in state)
        p.step_count = steps[name]
        offset += size
    return model
