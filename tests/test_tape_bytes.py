"""The tape-size probe in tools/ still runs, and a training forward's tape stays within its bound."""

import importlib.util
import re
from pathlib import Path

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


def test_training_forward_tape_within_52_mb():
    """Each activation is kept once: gelu its slope, relu its output, which the next conv keeps
    too. With gelu's input and cdf and relu's mask the tape held 58.1 MB."""
    by_op, _ = _load_tool().measure(64, 1)
    by_op.pop("parameters", None)
    total = sum(by_op.values())
    assert total <= 52e6, f"{total / 1e6:.2f} MB kept: {by_op}"
