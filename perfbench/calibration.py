"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes as other tenants' load comes and goes; a pure
Python loop, a cache-resident gemm and a memory-bound exp all slow down
together. A run therefore times a fixed calibration kernel before its
first timed step and after each, and scales each step's wall time by
REFERENCE_S over the mean of the two kernel times around it (set-ups by the
run's median kernel time): the time metrics read as seconds on a host where
the kernel takes REFERENCE_S. The kernel calls nothing in the package under
test, so a change to the package moves the scaled figures as it moves the
raw ones; the raw figures are printed beside them.

The kernel mixes the step's kinds of work in small, in about the shares a
step has them: attention-shaped gemms with an exp over a 32 MB score matrix,
im2col copies and their gemms, and an interpreter loop of small-array numpy
calls like the tape's per-op bookkeeping.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.06  # kernel time on a 2-vCPU x86-64 VM, OpenBLAS on one thread

_rng = np.random.default_rng(0)
_Q = _rng.random((1024, 32), dtype=np.float32)
_K = _rng.random((32, 8192), dtype=np.float32)
_V = _rng.random((8192, 32), dtype=np.float32)
_S = np.empty((1024, 8192), dtype=np.float32)
_X = _rng.random((16, 66, 66), dtype=np.float32)
_W = _rng.random((16, 16 * 9), dtype=np.float32)


def _im2col(x):
    c, h, w = x.shape
    cols = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
    return np.ascontiguousarray(cols.transpose(0, 3, 4, 1, 2)).reshape(c * 9, (h - 2) * (w - 2))


def kernel_seconds():
    """Wall time of one pass of the calibration kernel."""
    start = perf_counter()
    np.matmul(_Q, _K, out=_S)
    np.exp(_S, out=_S)
    _S.sum(axis=1)
    _S @ _V
    for _ in range(16):
        _W @ _im2col(_X)
    small = _X[0, 0, :16].copy()
    nodes = []
    for i in range(4000):
        small = small * 0.5 + 1.0
        nodes.append((i, small))
    return perf_counter() - start
