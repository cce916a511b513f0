"""Convolutions as sums of shifted-tap gemms, with no column matrix.

`conv2d` pads its input once into a wide buffer of phase planes. A stride s
splits the padded planes into s*s phases: phase (a, c) holds padded rows a,
a+s, ... and columns c, c+s, ..., zero-filled to one ceil(Hp/s) x ceil(Wp/s)
extent Hq x Wq. Each channel is one flat row of the buffer: the phases one after
another, each the N phase planes end to end, then zeros. Kernel tap (i, j)
reads phase (i mod s, j mod s) in the contiguous window of every row that
starts (i//s)*Wq + j//s into that phase, so the strided output, laid out Wq
wide with the N planes end to end, is the sum of kh*kw gemms
`w[:, :, i, j] @ window`, and a strided conv computes none of the stride-1
outputs it would drop. Stride 1 is the one-phase case. The columns and rows of
that layout whose window wraps into the next row, plane or phase are dropped.
Backward scatters the output gradient into the same wide layout, with zeros in
every dropped place, and runs the same windows: `g_wide @ window.T` is the
weight gradient of a tap, and `w[:, :, i, j].T @ g_wide`, added into a buffer
laid out like the input's, the input gradient, whose phases are written
straight into the [N, Cin, H, W] result. The tape keeps the output and the
arrays of the input and the weights, nothing derived from them: the backward
rebuilds the phase buffer, only for the weight gradient, and the tap-ordered
weights, only for the input gradient. Backward returns None for a constant
parent (one with `requires_grad=False`) and skips its gemms. A channel extent
of 1 is padded with a zero channel, so that no tap gemm contracts over a single
channel. The windows are whole blocks of 16 columns: BLAS computes a last,
narrower block with another kernel, whose rounding would make a sample's output
depend on the batch size.
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
    # Phase (a, c) holds the padded rows a, a+s, ... and columns c, c+s, ..., zero-filled to one
    # hq x wq extent, so every phase plane has the same layout; a phase's n planes are phase_cols long.
    s = stride
    hq, wq = -(-hp // s), -(-wp // s)
    plane = hq * wq
    phase_cols = n * plane
    # Window length: to the end of the last plane's output rows, rounded up to whole 16-column blocks.
    span = -(-((n - 1) * plane + ho * wq) // 16) * 16
    # The input buffer's row: to the end of the last phase's last window, and at least all phases.
    cols = max(s * s * phase_cols, (s * s - 1) * phase_cols + (kh - 1) // s * wq + (kw - 1) // s + span)
    width = max(phase_cols, span)  # the output's wide row: a window, and at least the n planes
    taps_at = [(i, j, ((i % s) * s + j % s) * phase_cols + i // s * wq + j // s)
               for i in range(kh) for j in range(kw)]
    keep = (slice(cout), slice(None), slice(ho), slice(wo))
    # Zero channels pad Cin in xp and taps (forward gemms) and Cout in g_wide and taps (dx gemms).
    cin2, cout2 = max(cin, 2), max(cout, 2)

    def planes(flat, ph=0):
        return flat[:, ph * phase_cols:(ph + 1) * phase_cols].reshape(flat.shape[0], n, hq, wq)

    # The arrays this call saw: Adam.step rebinds a parameter's .data, so backward must not read it.
    xd, wd = x.data, w.data

    # The forward builds these two from xd and wd, and the backward builds them again, so that
    # neither stays on the tape.
    def phase_buffer():
        xp = np.zeros((cin2, cols), dtype=xd.dtype)
        x_cn = xd.transpose(1, 0, 2, 3)
        for ph, (ys, ry), (xs, rx) in _phases(h, wdt, padding, s):
            planes(xp, ph)[:cin, :, ry, rx] = x_cn[:, :, ys, xs]
        return xp

    def tap_weights():
        taps = np.zeros((kh, kw, cout2, cin2), dtype=wd.dtype)
        taps[:, :, :cout, :cin] = wd.transpose(2, 3, 0, 1)
        return taps

    xp, taps = phase_buffer(), tap_weights()
    out_wide = np.zeros((cout, width), dtype=xd.dtype)
    for i, j, off in taps_at:
        out_wide[:, :span] += taps[i, j, :cout] @ xp[:, off:off + span]
    del xp, taps
    out = np.ascontiguousarray(planes(out_wide)[keep].transpose(1, 0, 2, 3))
    if b is not None:
        out += b.data[:, None, None]
    need_x, need_w, no_bias = x.requires_grad, w.requires_grad, b is None

    def bwd(g):
        g_wide = np.zeros((cout2, width), dtype=g.dtype)
        planes(g_wide)[keep] = g.transpose(1, 0, 2, 3)
        g_wide = g_wide[:, :span]
        dw = dx = None
        if need_w:
            xp = phase_buffer()
            dw = np.empty_like(wd)
            for i, j, off in taps_at:
                dw[:, :, i, j] = g_wide[:cout] @ xp[:cin, off:off + span].T
            del xp  # before dxp is allocated
        if need_x:
            taps = tap_weights()
            dxp = np.zeros((cin2, cols), dtype=xd.dtype)
            for i, j, off in taps_at:
                dxp[:, off:off + span] += taps[i, j].T @ g_wide
            dx = np.empty((n, cin, h, wdt), dtype=xd.dtype)
            for ph, (ys, ry), (xs, rx) in _phases(h, wdt, padding, s):
                dx[:, :, ys, xs] = planes(dxp, ph)[:cin, :, ry, rx].transpose(1, 0, 2, 3)
        if no_bias:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, bwd)


def _phases(h, wdt, padding, s):
    """(phase index, (input rows, phase rows), (input columns, phase columns)) of each phase.

    Input row y is padded row padding + y, which phase (padding + y) mod s holds as its row
    (padding + y) // s, so phase a's first input row is (a - padding) mod s; likewise for the
    columns. Rebuilt where needed rather than kept on the tape.
    """
    axes = []
    for extent in (h, wdt):
        axis = []
        for a in range(s):
            y0 = (a - padding) % s
            start = (padding + y0) // s
            axis.append((slice(y0, extent, s), slice(start, start + len(range(y0, extent, s)))))
        axes.append(axis)
    return [(a * s + c, axes[0][a], axes[1][c]) for a in range(s) for c in range(s)]


def conv_transpose2x(x, w, b=None):
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling.

    Weight layout is [Cin, Cout, 2, 2]; every input pixel paints one disjoint
    2x2 output tile, so the op is a single gemm plus an index shuffle. The
    backward rebuilds the input's pixel rows, and only for the weight gradient.
    """
    if x.ndim != 4 or w.ndim != 4 or w.shape[2] != 2 or w.shape[3] != 2:
        raise DimensionError(f"conv_transpose2x expects [N,Cin,H,W] and [Cin,Cout,2,2], got {x.shape} / {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"conv_transpose2x channel mismatch: input {x.shape[1]}, weight {w.shape[0]}")
    n, cin, h, wdt = x.shape
    cout = w.shape[1]
    if b is not None and b.data.shape != (cout,):
        raise DimensionError("conv_transpose2x bias must be [Cout]")

    xd = x.data  # the array this call saw, as in conv2d

    def x_rows():
        return np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).reshape(-1, cin)

    w_mat = w.data.reshape(cin, cout * 4)
    out = (x_rows() @ w_mat).reshape(n, h, wdt, cout, 2, 2)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 4, 2, 5)).reshape(n, cout, 2 * h, 2 * wdt)
    if b is not None:
        out = out + b.data[None, :, None, None]

    need_x, need_w, no_bias = x.requires_grad, w.requires_grad, b is None

    def bwd(g):
        g_tiles = g.reshape(n, cout, h, 2, wdt, 2)
        g_mat = np.ascontiguousarray(g_tiles.transpose(0, 2, 4, 1, 3, 5)).reshape(-1, cout * 4)
        dx = dw = None
        if need_x:
            dx = np.ascontiguousarray((g_mat @ w_mat.T).reshape(n, h, wdt, cin).transpose(0, 3, 1, 2))
        if need_w:
            dw = (x_rows().T @ g_mat).reshape(cin, cout, 2, 2)
        if no_bias:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, bwd)
