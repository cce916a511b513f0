"""Convolution kernels routed through im2col + BLAS gemm.

The input gradient of a strided cross-correlation is computed as a stride-1
cross-correlation of the (zero-dilated, re-padded) output gradient with the
spatially flipped, channel-swapped kernel, so forward and backward share one
gemm core. The im2col matrix is kept on the tape node and reused for the
weight gradient. Backward returns None for a constant parent (one with
`requires_grad=False`) and skips that parent's gemm and im2col.
"""

import numpy as np

from .autograd import make
from .errors import DimensionError, GeometryError


def _im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if pad > 0:
        xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    else:
        xp = x
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
    )
    cols = np.ascontiguousarray(windows.transpose(0, 4, 5, 1, 2, 3))
    return cols.reshape(n * ho * wo, c * kh * kw), ho, wo


def _conv_forward(x, w, b, stride, pad):
    cout = w.shape[0]
    cols, ho, wo = _im2col(x, w.shape[2], w.shape[3], stride, pad)
    out = cols @ w.reshape(cout, -1).T
    if b is not None:
        out += b
    n = x.shape[0]
    return out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2), cols, ho, wo


def _dilate(y, stride, extra_h, extra_w):
    if stride == 1 and extra_h == 0 and extra_w == 0:
        return y
    n, c, h, w = y.shape
    out = np.zeros((n, c, (h - 1) * stride + 1 + extra_h, (w - 1) * stride + 1 + extra_w), dtype=y.dtype)
    out[:, :, ::stride, ::stride][:, :, :h, :w] = y
    return out


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

    out, cols, ho, wo = _conv_forward(x.data, w.data, None if b is None else b.data, stride, padding)
    cout = w.shape[0]
    wd = w.data
    need_x, need_w = x.requires_grad, w.requires_grad

    def bwd(g):
        g_mat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
        dw = (cols.T @ g_mat).T.reshape(cout, cin, kh, kw) if need_w else None
        dx = None
        if need_x:
            extra_h = (h + 2 * padding - kh) - (ho - 1) * stride
            extra_w = (wdt + 2 * padding - kw) - (wo - 1) * stride
            gd = _dilate(g, stride, extra_h, extra_w)
            w_swap = np.ascontiguousarray(wd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            dx, _, _, _ = _conv_forward(gd, w_swap, None, 1, kh - 1 - padding)
        if b is None:
            return dx, dw
        return dx, dw, g_mat.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return make(np.ascontiguousarray(out), parents, bwd)


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
