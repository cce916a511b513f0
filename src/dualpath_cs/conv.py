"""Convolutions as sums of shifted-tap gemms, with no column matrix.

`conv2d` pads its input once into a [Cin, N*Hp*Wp + kw-1] buffer: each channel
is one flat row holding the N padded planes end to end, then kw-1 zeros. Kernel
tap (i, j) reads the contiguous window of every row that starts at i*Wp + j, so
the stride-1 output, laid out Wp wide with the N planes end to end, is the sum
of kh*kw gemms `w[:, :, i, j] @ window`. The columns and rows of that layout
whose window wraps into the next row or plane are dropped, and a strided conv
also keeps only every stride-th row and column of what remains. Backward
scatters the output gradient into the same wide layout, with zeros in every
dropped place, and runs the same windows: `g_wide @ window.T` is the weight
gradient of a tap, and `w[:, :, i, j].T @ g_wide`, added into a padded buffer,
the input gradient. Only the padded input stays on the tape. Backward returns
None for a constant parent (one with `requires_grad=False`) and skips its gemms.
"""

import numpy as np

from .autograd import make
from .errors import DimensionError, GeometryError


def conv2d(x, w, b=None, stride=1, padding=0):
    """Cross-correlate [N,Cin,H,W] with [Cout,Cin,kH,kW]; odd kernels only."""
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input/weight, got {x.shape} / {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape[1]}, weight {w.shape[1]}")
    kh, kw = w.shape[2], w.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"conv2d kernels must be odd, got {kh}x{kw}")
    if padding < 0 or stride < 1:
        raise GeometryError("conv2d needs padding >= 0 and stride >= 1")
    if padding > kh - 1 or padding > kw - 1:
        raise GeometryError("conv2d supports padding <= kernel-1")
    n, cin, h, wdt = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wdt + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise GeometryError(f"conv2d output extent would be {ho}x{wo}")
    if b is not None and b.data.shape != (w.shape[0],):
        raise DimensionError("conv2d bias must be [Cout]")

    cout = w.shape[0]
    hp, wp = h + 2 * padding, wdt + 2 * padding
    plane = hp * wp
    span = (n - 1) * plane + (hp - kh + 1) * wp  # window length: to the end of the last plane's output rows
    offsets = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    keep = (slice(None), slice(None), slice(None, hp - kh + 1, stride), slice(None, wp - kw + 1, stride))
    inner = (slice(None), slice(None), slice(padding, padding + h), slice(padding, padding + wdt))

    def planes(flat):
        return flat[:, :n * plane].reshape(flat.shape[0], n, hp, wp)

    xp = np.zeros((cin, n * plane + kw - 1), dtype=x.dtype)
    planes(xp)[inner] = x.data.transpose(1, 0, 2, 3)
    taps = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # [kh, kw, Cout, Cin]
    out_wide = np.zeros((cout, n * plane), dtype=x.dtype)
    for i, j, off in offsets:
        out_wide[:, :span] += taps[i, j] @ xp[:, off:off + span]
    out = np.ascontiguousarray(planes(out_wide)[keep].transpose(1, 0, 2, 3))
    if b is not None:
        out += b.data[:, None, None]
    need_x, need_w = x.requires_grad, w.requires_grad

    def bwd(g):
        g_wide = np.zeros((cout, n * plane), dtype=g.dtype)
        planes(g_wide)[keep] = g.transpose(1, 0, 2, 3)
        g_wide = g_wide[:, :span]
        dw = dx = None
        if need_w:
            dw = np.empty_like(w.data)
            for i, j, off in offsets:
                dw[:, :, i, j] = g_wide @ xp[:, off:off + span].T
        if need_x:
            dxp = np.zeros_like(xp)
            for i, j, off in offsets:
                dxp[:, off:off + span] += taps[i, j].T @ g_wide
            dx = np.ascontiguousarray(planes(dxp)[inner].transpose(1, 0, 2, 3))
        if b is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, bwd)


def conv_transpose2x(x, w, b=None):
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling.

    Weight layout is [Cin, Cout, 2, 2]; every input pixel paints one disjoint
    2x2 output tile, so the op is a single gemm plus an index shuffle.
    """
    if x.ndim != 4 or w.ndim != 4 or w.shape[2] != 2 or w.shape[3] != 2:
        raise DimensionError(f"conv_transpose2x expects [N,Cin,H,W] and [Cin,Cout,2,2], got {x.shape} / {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"conv_transpose2x channel mismatch: input {x.shape[1]}, weight {w.shape[0]}")
    n, cin, h, wdt = x.shape
    cout = w.shape[1]
    if b is not None and b.data.shape != (cout,):
        raise DimensionError("conv_transpose2x bias must be [Cout]")

    x_mat = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(-1, cin)
    w_mat = w.data.reshape(cin, cout * 4)
    out = (x_mat @ w_mat).reshape(n, h, wdt, cout, 2, 2)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 4, 2, 5)).reshape(n, cout, 2 * h, 2 * wdt)
    if b is not None:
        out = out + b.data[None, :, None, None]

    need_x, need_w = x.requires_grad, w.requires_grad

    def bwd(g):
        g_tiles = g.reshape(n, cout, h, 2, wdt, 2)
        g_mat = np.ascontiguousarray(g_tiles.transpose(0, 2, 4, 1, 3, 5)).reshape(-1, cout * 4)
        dx = dw = None
        if need_x:
            dx = np.ascontiguousarray((g_mat @ w_mat.T).reshape(n, h, wdt, cin).transpose(0, 3, 1, 2))
        if need_w:
            dw = (x_mat.T @ g_mat).reshape(cin, cout, 2, 2)
        if b is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, bwd)
