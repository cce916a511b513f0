"""The bit-identity probe in tools/ still runs against the package."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "state_digest.py"


def test_prints_one_digest_per_shape(capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the tool sets them on import
    spec = importlib.util.spec_from_file_location("state_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--steps", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["64x64x1", "32x32x4"]
    assert all(re.fullmatch(r"\S+ steps=1 [0-9a-f]{64} peak_mb=\d+\.\d", line) for line in lines)
