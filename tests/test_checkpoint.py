"""Checkpoint version 2: its zip layout, what numpy reads of it, and the files load_checkpoint refuses."""

import json
import math
import tracemalloc
import zipfile
from io import BytesIO

import numpy as np
import pytest

from dualpath_cs.checkpoint import load_checkpoint, restore_model, save_checkpoint
from dualpath_cs.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointVersionError,
    ContractError,
)
from dualpath_cs.training import TrainConfig, build_model

# One stage of two channels: an 80 KB checkpoint, small enough to fuzz at many offsets.
SMALL = dict(gamma=0.5, split=(1, 2), block_size=4, stages=1, channels=2, patch_size=16, batch_size=1, seed=7)


def read_members(path):
    """A saved checkpoint's header dict and state.npy bytes."""
    with zipfile.ZipFile(path) as zf:
        return json.loads(zf.read("header.json")), zf.read("state.npy")


def write_members(path, members, compress_type=zipfile.ZIP_STORED):
    """A zip of (name, bytes) members, written as save_checkpoint writes its own."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members:
            zf.writestr(zipfile.ZipInfo(name), data, compress_type=compress_type)


def rewrite(path, header=None, state=None):
    """Rewrite a saved checkpoint with another header (a dict, or raw bytes) or state.npy, CRCs intact."""
    old_header, old_state = read_members(path)
    if not isinstance(header, bytes):
        header = json.dumps(old_header if header is None else header).encode()
    write_members(path, [("header.json", header), ("state.npy", old_state if state is None else state)])


def npy_payload(state):
    """The value bytes of a version 1.0 .npy file, after its header."""
    fh = BytesIO(state)
    np.lib.format.read_magic(fh)
    np.lib.format.read_array_header_1_0(fh)
    return state[fh.tell():]


def total(header):
    """The value count of one state row, by the header's shapes."""
    return sum(math.prod(extents) for _, extents in header["shapes"])


def npy_bytes(shape, payload, descr="<f4", fortran_order=False, version=(1, 0)):
    """A .npy file of `payload` bytes under a header of the given fields, checked by nothing."""
    out = BytesIO()
    write = np.lib.format.write_array_header_1_0 if version == (1, 0) else np.lib.format.write_array_header_2_0
    write(out, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return out.getvalue() + payload


def saved(path, config=SMALL):
    """Save a freshly built model to `path`; its (header, state) as load_checkpoint reads them."""
    save_checkpoint(path, build_model(TrainConfig(**config)), config=TrainConfig(**config))
    return load_checkpoint(path)


def assert_same(got, expect):
    (header, state), (expect_header, expect_state) = got, expect
    assert header == expect_header
    assert state.dtype == expect_state.dtype and np.array_equal(state, expect_state)


def model_state(model):
    """Copies of every parameter's values, moments and step count."""
    return [(p.data.copy(), p.adam_m.copy(), p.adam_v.copy(), p.step_count) for p in model.parameters()]


def assert_model_state(model, before):
    for p, (data, m, v, steps) in zip(model.parameters(), before, strict=True):
        assert np.array_equal(p.data, data) and np.array_equal(p.adam_m, m)
        assert np.array_equal(p.adam_v, v) and p.step_count == steps


def _assert_rejected_untouched(model, header, state, error=CheckpointMismatchError):
    before = model_state(model)
    with pytest.raises(error):
        restore_model(model, header, state)
    assert_model_state(model, before)


class TestLayout:
    def test_numpy_reads_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        header, loaded = saved(path)
        model = build_model(TrainConfig(**SMALL))
        with np.load(path) as npz:
            assert npz.files == ["header.json", "state"]
            assert json.loads(npz["header.json"]) == header
            state = npz["state"]
        assert np.array_equal(state, loaded)
        assert state.shape == (3, sum(p.data.size for p in model.parameters())) and state.dtype == model.parameters()[0].dtype
        assert np.array_equal(state[0], np.concatenate([p.data.ravel() for p in model.parameters()]))
        assert header["shapes"] == [[name, list(p.shape)] for name, p in model.named_parameters()]
        with zipfile.ZipFile(path) as zf:
            assert [(i.filename, i.compress_type, i.date_time) for i in zf.infolist()] == [
                ("header.json", zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0)),
                ("state.npy", zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0))]

    def test_state_is_a_read_only_view_of_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _, state = saved(path)
        base = state
        while isinstance(base, np.ndarray):
            base = base.base
        assert base == path.read_bytes() and not state.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_precisions_round_trip(self, tmp_path, dtype):
        model = build_model(TrainConfig(**SMALL))
        for p in model.parameters():
            p.data, p.adam_m, p.adam_v = (a.astype(dtype) for a in (p.data, p.adam_m, p.adam_v))
        save_checkpoint(tmp_path / "m.ckpt", model)
        _, state = load_checkpoint(tmp_path / "m.ckpt")
        assert state.dtype == dtype
        for row, key in zip(state, ("data", "adam_m", "adam_v"), strict=True):
            assert np.array_equal(row, np.concatenate([getattr(p, key).ravel() for p in model.parameters()]))

    @pytest.mark.parametrize("part", ["data", "adam_m"])
    def test_mixed_dtypes_rejected_at_save(self, tmp_path, part):
        model = build_model(TrainConfig(**SMALL))
        p = model.parameters()[0]
        setattr(p, part, getattr(p, part).astype(np.float64))
        path = tmp_path / "mixed.ckpt"
        with pytest.raises(ContractError, match="float32, float64"):
            save_checkpoint(path, model)
        assert not path.exists()


class TestRefusedFiles:
    def test_version_1_file(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"DPHDUNCK" + (1).to_bytes(4, "little") + b"\x00" * 64)
        with pytest.raises(CheckpointVersionError, match="version 1 not supported"):
            load_checkpoint(path)

    def test_zip_comment_is_refused(self, tmp_path):
        # The end record is then not the last 22 bytes; zipfile reads the members all the same.
        path = tmp_path / "m.ckpt"
        saved(path)
        with zipfile.ZipFile(path, "a") as zf:
            zf.comment = b"note"
        assert zipfile.ZipFile(path).namelist() == ["header.json", "state.npy"]
        with pytest.raises(CheckpointFormatError, match="zip end record"):
            load_checkpoint(path)

    @pytest.mark.parametrize("names", [
        ["header.json"], ["state.npy", "header.json"], ["header.json", "state.npy", "extra"], ["header.json", "other.npy"],
    ], ids=["no-state", "swapped", "extra-member", "renamed"])
    def test_members_must_be_header_then_state(self, tmp_path, names):
        path = tmp_path / "m.ckpt"
        saved(path)
        header, state = read_members(path)
        data = {"header.json": json.dumps(header).encode()}
        write_members(path, [(name, data.get(name, state)) for name in names])
        with pytest.raises(CheckpointFormatError, match="members"):
            load_checkpoint(path)

    def test_duplicate_member(self, tmp_path):
        path = tmp_path / "m.ckpt"
        saved(path)
        header, state = read_members(path)
        with pytest.warns(UserWarning, match="Duplicate name"):
            write_members(path, [("header.json", json.dumps(header).encode()), ("state.npy", state),
                                 ("state.npy", state)])
        with pytest.raises(CheckpointFormatError, match="members"):
            load_checkpoint(path)

    def test_deflated_member_refused(self, tmp_path):
        # zipfile would inflate it, and a small deflated member can inflate to any size.
        path = tmp_path / "m.ckpt"
        saved(path)
        header, state = read_members(path)
        write_members(path, [("header.json", json.dumps(header).encode()), ("state.npy", state)],
                      compress_type=zipfile.ZIP_DEFLATED)
        with pytest.raises(CheckpointFormatError, match="compressed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fields", [
        dict(descr="<f2"), dict(descr="|O"), dict(descr=">f4"), dict(fortran_order=True),
    ], ids=["float16", "object", "big-endian", "fortran-order"])
    def test_npy_dtype_and_order_checked(self, tmp_path, fields):
        path = tmp_path / "m.ckpt"
        header, _ = saved(path)
        rewrite(path, state=npy_bytes((3, total(header)), npy_payload(read_members(path)[1]), **fields))
        with pytest.raises(CheckpointFormatError, match="need a C-order <f4 or <f8 array"):
            load_checkpoint(path)

    def test_npy_version_checked(self, tmp_path):
        path = tmp_path / "m.ckpt"
        saved(path)
        state = bytearray(read_members(path)[1])
        assert state[:8] == b"\x93NUMPY\x01\x00"
        state[6] = 3
        rewrite(path, state=bytes(state))
        with pytest.raises(CheckpointFormatError, match=r"version \(3, 0\)"):
            load_checkpoint(path)

    def test_npy_version_2_refused(self, tmp_path):
        # The same values under a .npy 2.0 header, which save_checkpoint never writes.
        path = tmp_path / "m.ckpt"
        header, _ = saved(path)
        rewrite(path, state=npy_bytes((3, total(header)), npy_payload(read_members(path)[1]), version=(2, 0)))
        with pytest.raises(CheckpointFormatError, match=r"version \(2, 0\), expected \(1, 0\)"):
            load_checkpoint(path)

    def test_npy_byte_count_must_match_the_zip_directory(self, tmp_path):
        path = tmp_path / "m.ckpt"
        header, _ = saved(path)
        header["shapes"][0][1][0] += 1
        rewrite(path, header=header, state=npy_bytes((3, total(header)), npy_payload(read_members(path)[1])))
        with pytest.raises(CheckpointFormatError, match="zip directory"):
            load_checkpoint(path)

    @pytest.mark.parametrize("npy_too", [False, True], ids=["shapes", "shapes-and-npy-header"])
    def test_forged_huge_shapes_refused_before_allocating(self, tmp_path, npy_too):
        # 2**40 float32 values in each of three rows, declared by a header whose CRC holds.
        path = tmp_path / "m.ckpt"
        header, _ = saved(path)
        header["shapes"][0][1] = [2 ** 20, 2 ** 20]
        state = npy_bytes((3, total(header)), npy_payload(read_members(path)[1])) if npy_too else None
        rewrite(path, header=header, state=state)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size, f"peak {peak} bytes for a {size}-byte file"

    @pytest.mark.parametrize("shapes", [
        {"w": [1]}, [["w"]], [[1, [1]]], [["w", 1]], [["w", [-1]]], [["w", [True]]], [["w", [1.0]]],
        "missing", "one-more",
    ], ids=["object", "no-extents", "name-not-text", "extents-not-list", "negative", "bool", "float",
            "missing", "total-disagrees"])
    def test_malformed_shapes_table(self, tmp_path, shapes):
        path = tmp_path / "m.ckpt"
        header, _ = saved(path)
        if shapes == "missing":
            del header["shapes"]
        elif shapes == "one-more":
            header["shapes"][-1][1][0] += 1
        else:
            header["shapes"] = shapes
        rewrite(path, header=header)
        with pytest.raises(CheckpointFormatError, match="shapes"):
            load_checkpoint(path)

    def test_rank_above_numpy_limit(self, tmp_path):
        # 65 extents of 1 hold one value each, but numpy reshapes to at most 64 axes. Loading
        # reshapes nothing; the model's layout refuses it.
        path = tmp_path / "m.ckpt"
        header, _ = saved(path)
        assert header["shapes"][-1][1] == [1]
        header["shapes"][-1][1] = [1] * 65
        rewrite(path, header=header)
        _assert_rejected_untouched(build_model(TrainConfig(**SMALL)), *load_checkpoint(path))


class TestFuzz:
    def test_cuts_and_bit_flips_refused_or_exact(self, tmp_path):
        """A cut at a stride and at every offset in the first and last 512 bytes, and 200 single-bit
        flips: each file raises a CheckpointError subclass or loads exactly what was saved."""
        path = tmp_path / "m.ckpt"
        expect = saved(path)
        blob = path.read_bytes()
        n = len(blob)
        cuts = sorted(set(range(0, n, n // 100)) | set(range(512)) | set(range(n - 512, n)))
        bits = np.random.default_rng(0).choice(8 * n, size=200, replace=False)
        cases = [blob[:cut] for cut in cuts]
        for bit in bits:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            cases.append(bytes(flipped))
        for case in cases:
            path.write_bytes(case)
            try:
                got = load_checkpoint(path)
            except CheckpointError:
                continue
            assert_same(got, expect)
