"""The conv2d shape probe in tools/ still runs and accounts for every call."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "conv_shapes.py"
TOTAL = re.compile(r"(train|eval) \d+x\d+x\d+ calls=(\d+) fwd_ms=\d+\.\d\d bwd_ms=\d+\.\d\d kernel_ms=\d+\.\d\d")
SHAPE = re.compile(r"  \d+x\d+x\d+x\d+ cout=\d+ k=\d+ s=\d+ calls=(\d+) fwd_ms=\d+\.\d{3} bwd_ms=(\d+\.\d{3}|-)")


def _load_tool():
    spec = importlib.util.spec_from_file_location("conv_shapes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_prints_each_run_and_its_shapes(capsys):
    _load_tool().main(["--repeats", "1"])
    runs = []
    for line in capsys.readouterr().out.splitlines():
        total = TOTAL.fullmatch(line)
        if total:
            runs.append((total.group(1), int(total.group(2)), []))
        else:
            shape = SHAPE.fullmatch(line)
            assert shape, line
            runs[-1][2].append((int(shape.group(1)), shape.group(2)))
    assert [kind for kind, _, _ in runs] == ["train", "train", "eval"]
    for kind, calls, shapes in runs:
        assert shapes and calls == sum(c for c, _ in shapes)
        assert all((bwd == "-") == (kind == "eval") for _, bwd in shapes)
    # One model, three runs: each calls conv2d as often.
    assert len({calls for _, calls, _ in runs}) == 1
