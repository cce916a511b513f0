"""Call counts and forward and backward times of `conv2d`, by shape, in the model's runs.

This script builds the default f32 `TrainConfig` model and times every
`conv2d` call in three runs on seeded random patches: a training step
(forward, MSE, backward) on a single 64x64 patch, one on a batch of four
32x32 patches, and a `no_grad` forward of a 64x64 patch. It wraps the op at
the name the layers look up, and the backward closure of each taped result.
For each run it prints the conv2d calls per run and their summed forward and
backward ms, then one line per shape: input [N,Cin,H,W], output channels,
kernel and stride, the calls per run, and the median forward and backward ms
per call over the timed repeats, which follow one untimed warm-up run. Run it
as

    PYTHONPATH=src python tools/conv_shapes.py [--repeats R]

BLAS runs on one thread, as in the benchmark. A shared host's speed drifts by
tens of percent between runs, so, as the benchmark scales each step, each run
times the benchmark's calibration kernel (`perfbench/calibration.py`) before
each timed repeat and after the last one, and scales every time taken in a
repeat by REFERENCE_S over the mean of the kernel times just before and after
it: the figures read as ms on a host where the kernel takes REFERENCE_S. The
run's header line prints the kernel's median as `kernel_ms=`.
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from dualpath_cs import nn, ops, training  # noqa: E402
from dualpath_cs.autograd import no_grad, tensor  # noqa: E402

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)
from calibration import REFERENCE_S, kernel_seconds  # noqa: E402

RUNS = (("train 64x64x1", 64, 1, True), ("train 32x32x4", 32, 4, True), ("eval 64x64x1", 64, 1, False))
DATA_SEED = 0


def _timed(conv, times):
    """`conv` that appends (shape key, 'fwd' or 'bwd', seconds) to `times` for itself and its backward."""

    def call(x, w, b=None, stride=1):
        key = (x.shape, w.shape[0], w.shape[2], stride)
        start = perf_counter()
        out = conv(x, w, b, stride=stride)
        times.append((key, "fwd", perf_counter() - start))
        if out.requires_grad:
            bwd = out._backward_fn

            def timed_bwd(g):
                start = perf_counter()
                grads = bwd(g)
                times.append((key, "bwd", perf_counter() - start))
                return grads

            out._backward_fn = timed_bwd
        return out

    return call


def measure(patch, batch, train, repeats):
    """({shape key: (calls per run, median fwd ms, median bwd ms or None)} over `repeats` timed
    runs, each scaled by the calibration kernel times around its run, and the median kernel ms)."""
    config = training.TrainConfig(patch_size=patch, batch_size=batch)
    model = training.build_model(config)
    rng = np.random.default_rng(DATA_SEED)
    target = tensor(rng.uniform(0.0, 1.0, (batch, 1, patch, patch)))
    times = []
    kernel = []  # seconds, before each timed run and after the last
    starts = []  # where each timed run's entries in `times` begin
    conv = nn.conv2d
    nn.conv2d = _timed(conv, times)
    try:
        for run in range(repeats + 1):
            if run == 1:
                times.clear()  # the warm-up run
            if run >= 1:
                kernel.append(kernel_seconds())
                starts.append(len(times))
            if train:
                ops.mse(model(target).output, target).backward()
                for p in model.parameters():
                    p.grad = None
            else:
                with no_grad():
                    model(target)
        kernel.append(kernel_seconds())
    finally:
        nn.conv2d = conv
    starts.append(len(times))
    for run, (before, after) in enumerate(zip(kernel, kernel[1:])):
        run_times = slice(starts[run], starts[run + 1])
        scale = 2 * REFERENCE_S / (before + after)
        times[run_times] = [(key, kind, t * scale) for key, kind, t in times[run_times]]
    table = {}
    for key in dict.fromkeys(key for key, _, _ in times):
        fwd = [t for k, kind, t in times if k == key and kind == "fwd"]
        bwd = [t for k, kind, t in times if k == key and kind == "bwd"]
        table[key] = (len(fwd) // repeats, 1e3 * statistics.median(fwd), 1e3 * statistics.median(bwd) if bwd else None)
    return table, 1e3 * statistics.median(kernel)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed runs after the warm-up run")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for label, patch, batch, train in RUNS:
        table, kernel_ms = measure(patch, batch, train, args.repeats)
        calls = sum(c for c, _, _ in table.values())
        fwd = sum(c * f for c, f, _ in table.values())
        bwd = sum(c * b for c, _, b in table.values() if b is not None)
        print(f"{label} calls={calls} fwd_ms={fwd:.2f} bwd_ms={bwd:.2f} kernel_ms={kernel_ms:.2f}")
        for (shape, cout, k, stride), (calls, fwd, bwd) in sorted(table.items(), key=lambda item: -item[1][1] * item[1][0]):
            n, cin, h, w = shape
            bwd_text = "-" if bwd is None else f"{bwd:.3f}"
            print(f"  {n}x{cin}x{h}x{w} cout={cout} k={k} s={stride} calls={calls} fwd_ms={fwd:.3f} bwd_ms={bwd_text}")


if __name__ == "__main__":
    main()
