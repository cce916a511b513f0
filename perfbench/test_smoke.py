"""Smoke test of the benchmark at a tiny model size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dualpath_cs import hyperprior, ops, tensor, training  # noqa: E402
from scenes import scene  # noqa: E402

TINY = dict(channels=4, stages=1, episode=2, setup_reps=2, fixture_steps=1)
TINY_TRAIN = workloads.Spec("train", scene=64, patch=32, **TINY)
TINY_EVAL = workloads.Spec("eval", scene=64, patch=32, **TINY)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return sorted(m["name"] for m in DECLARED[kind])


def run_tiny(spec, tmp_path, tracer=None):
    return workloads.Bench(spec, seed=3, seconds=0.05, workdir=tmp_path, tracer=tracer).run()


@pytest.mark.parametrize("spec", [TINY_TRAIN, TINY_EVAL], ids=["train", "eval"])
def test_end_to_end_metrics_are_declared_and_positive(spec, tmp_path):
    result = run_tiny(spec, tmp_path)
    assert result.failures == []
    assert sorted(result.metrics) == declared("end_to_end")
    for name, (value, unit) in result.metrics.items():
        assert math.isfinite(value) and value > 0, name


@pytest.mark.parametrize("spec", [TINY_TRAIN, TINY_EVAL], ids=["train", "eval"])
def test_traced_run_reports_every_per_layer_metric(spec, tmp_path):
    original = ops.add
    result = run_tiny(spec, tmp_path, tracing.Tracer())
    assert result.failures == []
    assert sorted(result.metrics) == declared("per_layer")
    assert ops.add is original  # instrument restored the package
    assert 0.5 < result.metrics["trace.coverage"][0] <= 1.0
    assert result.metrics["ops.attention.calls"][0] > 0
    assert result.metrics["hyperprior.mask_coverage"][0] == 0.5


def test_time_metrics_are_scaled_by_the_calibration_kernel(tmp_path):
    bench = workloads.Bench(TINY_TRAIN, seed=3, seconds=0.05, workdir=tmp_path)
    ref = calibration.REFERENCE_S
    bench.kernel_times = [0.5 * ref, 1.5 * ref, ref]  # around step 0: mean ref; step 1: 1.25 ref
    steps = [workloads.Step(2.0, [], 0.1, [20.0], [0.5]), workloads.Step(3.0, [], 0.1, [20.0], [0.5])]
    table, _ = bench.end_to_end(steps, steps, [1e6], [0.4, 0.2, 0.3])
    assert table["step_s"][0] == pytest.approx((2.0 + 3.0 / 1.25) / 2)
    assert table["pixels_per_s"][0] == pytest.approx(2 * 64 ** 2 / (2.0 + 3.0 / 1.25))
    assert table["setup_s"][0] == pytest.approx(0.3)  # the median kernel time is the reference


def test_failed_check_counts_and_exits_nonzero(monkeypatch, capsys):
    original = ops.mse
    monkeypatch.setattr(ops, "mse", lambda pred, target: ops.mul(original(pred, target), 1.5))
    monkeypatch.setitem(workloads.SPECS, "train64", TINY_TRAIN)
    code = run.main(["--workload", "train64", "--seed", "1", "--seconds", "0.05", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["step", 0, 100, -1], ["op", 10, 40, 0], ["op", 50, 60, 0], ["inner", 12, 20, 1]]
    summary = tracer.summary()
    assert summary["step"] == (1, 100e-9, 60e-9)
    assert summary["op"] == (2, 40e-9, 32e-9)
    assert summary["inner"] == (1, 8e-9, 8e-9)


def test_scenes_are_seeded_and_normalised():
    a = scene(np.random.default_rng(5), 64)
    assert np.array_equal(a, scene(np.random.default_rng(5), 64))
    assert not np.array_equal(a, scene(np.random.default_rng(6), 64))
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert abs(a.mean() - 0.5) < 0.05


def test_hard_mask_selection_has_no_tie_at_the_cut():
    config = training.TrainConfig(patch_size=32, channels=4, stages=1)
    model = training.build_model(config)
    for seed in range(3):
        image = scene(np.random.default_rng(seed), 32).reshape(1, 1, 32, 32)
        trace = model(tensor(image))
        scores = np.sort(hyperprior.block_mean_abs_grad(trace.signal.grad_map, config.block_size))[::-1]
        k = math.ceil(config.rho * scores.size)
        assert scores[k - 1] > scores[k]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(DECLARED["command"] + ["--workload", "eval64", "--seed", "1", "--seconds", "1",
                                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
