"""Digest of the training state after a few `train_step`s, for bit-identity checks.

A refactor that keeps the arithmetic must leave training bit for bit as it
was. This script runs N `train_step`s from the default f32 `TrainConfig` on
seeded random patches, once on single 64x64 patches and once on batches of
four 32x32 patches, and prints for each one sha256 over every parameter, both
Adam moments, the step counts and the losses, then the tracemalloc peak of
the last step in MB. Run it against two checkouts and compare the lines:

    PYTHONPATH=src python tools/state_digest.py [--steps N]
    PYTHONPATH=<other checkout>/src python tools/state_digest.py [--steps N]

BLAS runs on one thread, since a threaded gemm may sum in another order.
"""

import argparse
import hashlib
import os
import struct
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import numpy as np  # noqa: E402

from dualpath_cs import training  # noqa: E402

SHAPES = (("64x64x1", 64, 1), ("32x32x4", 32, 4))
DATA_SEED = 0


def digest(patch, batch, steps):
    """(sha256 of the state after `steps` train steps on batches of `batch` [1,1,patch,patch]
    patches, tracemalloc peak of the last step in bytes)."""
    config = training.TrainConfig(patch_size=patch, batch_size=batch)
    model = training.build_model(config)
    optimizer = training.build_optimizer(model, config)
    rng = np.random.default_rng(DATA_SEED)
    h = hashlib.sha256()
    for i in range(steps):
        patches = [rng.uniform(0.0, 1.0, (1, 1, patch, patch)).astype(np.float32) for _ in range(batch)]
        if i == steps - 1:
            tracemalloc.start()
        loss, _ = training.train_step(patches, model, optimizer)
        h.update(struct.pack("<d", loss))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for name, p in model.named_parameters():
        h.update(name.encode())
        for array in (p.data, p.adam_m, p.adam_v):
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(struct.pack("<q", p.step_count))
    return h.hexdigest(), peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=4, help="train steps per shape (default 4)")
    args = parser.parse_args(argv)
    for label, patch, batch in SHAPES:
        state, peak = digest(patch, batch, args.steps)
        print(f"{label} steps={args.steps} {state} peak_mb={peak / 1e6:.1f}")


if __name__ == "__main__":
    main()
