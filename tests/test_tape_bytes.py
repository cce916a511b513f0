"""The tape-size probe in tools/ still runs, and a training forward's tape stays within its bound."""

import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

from dualpath_cs import ops

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tape_bytes.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("tape_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_prints_a_total_and_ops_per_shape(capsys):
    _load_tool().main()
    lines = capsys.readouterr().out.splitlines()
    totals = [line for line in lines if not line.startswith(" ")]
    assert [line.split()[0] for line in totals] == ["64x64x1", "32x32x4"]
    assert all(re.fullmatch(r"\S+ nodes=\d+ arrays_mb=\d+\.\d\d parameters_mb=\d+\.\d\d", line) for line in totals)
    assert all(re.fullmatch(r"  \w+ \d+\.\d\d", line) for line in lines if line not in totals)


def test_training_forward_tape_within_47_7_mb():
    """Each activation is kept once: gelu its slope, relu its output, which the next conv keeps
    too; and a concatenation is kept as its parts. With gelu's input and cdf and relu's mask the
    tape held 58.1 MB, and with the concatenation copies 50.35 MB."""
    by_op, _ = _load_tool().measure(64, 1)
    by_op.pop("parameters", None)
    total = sum(by_op.values())
    assert total <= 47.7e6, f"{total / 1e6:.2f} MB kept: {by_op}"


@pytest.mark.parametrize("patch,batch", [(64, 1), (32, 4)])
def test_tape_keeps_no_concatenation_copy(monkeypatch, patch, batch):
    """The model concatenates the back-projections, each stage's step-map input, the decoder skips
    and each spatial gate's two maps; every op that reads one keeps its parts instead."""
    tool = _load_tool()
    copies, concat = [], ops.concat

    def recording_concat(tensors, axis):
        out = concat(tensors, axis)
        copies.append(out.data)  # kept alive, so no later array takes its id
        return out

    monkeypatch.setattr(ops, "concat", recording_concat)
    loss, _ = tool.taped_loss(patch, batch)
    copy_ids = {id(array) for array in copies}
    kept = {tool._op_name(node._backward_fn) for node in tool._tape_nodes(loss)
            for array in tool._closure_arrays(node._backward_fn) if id(tool._owner(array)) in copy_ids}
    assert copies and not kept, f"{len(copies)} concatenations, copies kept by {sorted(kept)}"


@pytest.mark.parametrize("patch,batch", [(64, 1), (32, 4)])
def test_tape_keeps_no_array_twice(patch, batch):
    """Every stage reads one key plan and one soft-map pyramid, and both sensing matrices one block
    array: no two arrays the tape reaches, counted by their owners and besides the parameters, have
    equal shapes, dtypes and bytes. Each stage's rebuilt plan and resized maps, the second
    blockified image and the index arrays of transpose and concat were 16 such groups at 64x64x1
    and 22 at 32x32x4."""
    tool = _load_tool()
    loss, params = tool.taped_loss(patch, batch)
    param_ids = {id(tool._owner(p.data)) for p in params}
    owners = {}
    for node in tool._tape_nodes(loss):
        for array in tool._closure_arrays(node._backward_fn):
            owner = tool._owner(array)
            if id(owner) not in param_ids:
                owners[id(owner)] = (owner.shape, owner.dtype.str, owner.tobytes())
    repeated = [(shape, dtype, n) for (shape, dtype, _), n in Counter(owners.values()).items() if n > 1]
    assert owners
    assert not repeated, f"{len(repeated)} groups of equal arrays (shape, dtype, count): {repeated}"
