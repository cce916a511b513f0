"""Convolutions as channel gemms on the NCHW array: a 1x1 kernel as one gemm over the channel
axis, a larger one as one gemm per kernel row over a lowered input, with no column matrix.

A 1x1 kernel is not lowered. Its conv is `w[:, :, 0, 0] @ x` over the channel axis of the input's
[N, Cin, H*W] view, one `np.matmul` broadcast over the samples that writes the [N, Cout, H, W]
output directly; at stride s it first takes x[:, :, ::s, ::s]. Its backward is dx = wᵀ @ g per
sample, into the strided places of a zero dx, and dw = Σₙ gₙ xₙᵀ. `conv_transpose2x` is the
depth-to-space of the same channel gemm, with its [Cin, Cout, 2, 2] weights read as a
[Cin, 4*Cout] view, and its backward the same two gemms on the output gradient's space-to-depth.

A k x k kernel, k > 1, is zero-padded by k // 2, a "same" convolution of output extent
ceil(H/s) x ceil(W/s) at stride s, once, into a wide buffer of phase planes. The stride splits
the padded planes into s*s phases: phase (a, c) holds padded rows a, a+s, ... and columns c,
c+s, ..., zero-filled to one ceil(Hp/s) x ceil(Wp/s) extent Hq x Wq. Each channel is one
flat row of the buffer: the phases one after another, each the N phase planes
end to end, then zeros. Kernel tap (i, j) reads phase (i mod s, j mod s) in the
window of every row that starts (i//s)*Wq + j//s into that phase, so the strided
output, laid out Wq wide with the N planes end to end, is the sum over taps of
`w[:, :, i, j] @ window`, and a strided conv computes none of the stride-1
outputs it would drop. Stride 1 is the one-phase case. The columns and rows of
that layout whose window wraps into the next row, plane or phase are dropped.

The taps of one kernel row differ only in their column shift, so that sum runs
as one gemm per kernel row, as in MEC (Cho & Brand, "MEC: Memory-efficient
Convolution for Deep Neural Network", ICML 2017, arXiv:1706.06873). The
lowered buffer stacks the k column-shifted copies of the phase buffer along
the contraction, K = k*Cin, and kernel row i is `w_row[i] @ window`, with a
window that starts (i//s)*Wq into the lowered buffer of its row phase i mod s.
The weight gradient runs the same windows, `window @ g_wide.T`. The input
gradient of each phase is a stride-1 correlation of the output gradient, laid
out wide with zeros in every dropped place, with that phase's taps flipped and
transposed; its lowered buffer stacks the gradient's ceil(k/s) column shifts,
K = ceil(k/s)*Cout, and each phase's result fills its rows and columns of the
[N, Cin, H, W] input gradient. A lowered buffer of one shift, as the input
gradient's at a stride s >= k, is its source itself.

A lowered buffer is k times its source, so it is built a block of output
columns at a time, into one buffer that every block reuses. A block's row gemms
are summed in a contiguous array and then copied into place. A block is as wide
as `LOWERED_BYTES` holds of its lowered rows, the columns its windows overhang
included, and of those sums, in whole blocks of 16 columns: BLAS computes a
last, narrower block with another kernel, whose rounding would make a sample's
output depend on the batch size.

The tape keeps the input's array, only for the weight gradient, and the weights', only for the
input gradient, and nothing derived from them: the backward rebuilds the phase buffer, each
phase's flipped weights and a strided 1x1 conv's strided input. A taped channel concatenation
(`ops.concat` on axis 1) is kept as its parts: the backward's rebuild of the phase buffer fills it
part by part, and a 1x1 conv joins the parts only for its weight gradient's gemm, so the
concatenated copy does not stay on the tape. Backward returns None for a constant input or weight
(one with `requires_grad=False`) and skips its gemms.
"""

from itertools import groupby

import numpy as np

from .autograd import joined, make, parts
from .errors import DimensionError, GeometryError, is_integer

# Bytes of one block of a lowered buffer and of the two sums its gemms add up in; a block's width
# in columns follows from the rows they hold.
LOWERED_BYTES = 256 * 1024


def conv2d(x, w, b=None, stride=1):
    """Cross-correlate [N,Cin,H,W] with [Cout,Cin,k,k], zero-padded by k // 2; odd square kernels only."""
    if not (is_integer(stride) and stride >= 1):
        raise GeometryError(f"conv2d strides must be integers >= 1, got {stride!r}")
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input/weight, got {x.shape} / {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape[1]}, weight {w.shape[1]}")
    cout, _, k, kw = w.shape
    if k % 2 == 0 or kw != k:
        raise DimensionError(f"conv2d kernels must be odd and square, got {k}x{kw}")
    h, wdt = x.shape[2:]
    ho, wo = -(-h // stride), -(-wdt // stride)
    if ho < 1 or wo < 1:
        raise GeometryError(f"conv2d output extent would be {ho}x{wo}")
    if b is not None and b.data.shape != (cout,):
        raise DimensionError("conv2d bias must be [Cout]")

    # The arrays this call saw: Adam.step rebinds a parameter's .data, so backward must not read it.
    # A taped channel concatenation is kept as its parts. Each operand's arrays serve only the
    # other's gradient.
    x_parts, axis = parts(x)
    if axis != 1:
        x_parts = (x.data,)
    x_kept = x_parts if w.requires_grad else None
    w_kept = w.data if x.requires_grad else None
    out, grads = (_pointwise if k == 1 else _lowered)(x.data, x_kept, w.data, w_kept, stride)
    if b is not None:
        out += b.data[:, None, None]
    no_bias = b is None

    def bwd(g):
        dx, dw = grads(g)
        return (dx, dw) if no_bias else (dx, dw, g.sum(axis=(0, 2, 3)))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, bwd)


def _channel_gemm(w_mat, x3, out3, x_rows, w_kept):
    """out3[n] = w_mat @ x3[n] for each sample of the [N, Cin, P] x3, into the [N, Cout, P] out3.

    Returns the backward from the [N, Cout, P] output gradient g to (dx, dw): dx[n] = w_keptᵀ @ g[n],
    None without `w_kept`, and dw = Σₙ g[n] x3[n]ᵀ, None without `x_rows`, which gives x3 again
    from the arrays the tape keeps.
    """
    np.matmul(w_mat, x3, out=out3)

    def grads(g):
        dx = None if w_kept is None else np.matmul(w_kept.T, g)
        dw = None if x_rows is None else np.matmul(g, x_rows().transpose(0, 2, 1)).sum(axis=0)
        return dx, dw

    return grads


def _pointwise(x, x_kept, w, w_kept, s):
    """(output, backward) of a 1x1 conv at stride s: the channel gemm of x[:, :, ::s, ::s]."""
    n, cin, h, wdt = x.shape
    cout = w.shape[0]
    xs = x[:, :, ::s, ::s]
    ho, wo = xs.shape[2:]
    x_dtype, w_dtype = x.dtype, w.dtype
    out = np.empty((n, cout, ho, wo), dtype=x_dtype)

    def x_rows():
        return joined(x_kept, 1)[:, :, ::s, ::s].reshape(n, cin, ho * wo)

    grads = _channel_gemm(w[:, :, 0, 0], xs.reshape(n, cin, ho * wo), out.reshape(n, cout, ho * wo),
                          None if x_kept is None else x_rows, None if w_kept is None else w_kept[:, :, 0, 0])

    def bwd(g):
        dx, dw = grads(g.reshape(n, cout, ho * wo))
        if dx is not None:
            dx = dx.astype(x_dtype, copy=False).reshape(n, cin, ho, wo)
            if s > 1:  # only the input pixels the stride reads get a gradient
                dx_read, dx = dx, np.zeros((n, cin, h, wdt), dtype=x_dtype)
                dx[:, :, ::s, ::s] = dx_read
        if dw is not None:
            dw = dw.astype(w_dtype, copy=False)[:, :, None, None]
        return dx, dw

    return out, bwd


def _lowered(x, x_kept, wd, w_kept, s):
    """(output, backward) of a k x k conv at stride s, k > 1, by one gemm per kernel row."""
    n, cin, h, wdt = x.shape
    cout, _, k, _ = wd.shape
    ho, wo = -(-h // s), -(-wdt // s)
    hp, wp = h + k - 1, wdt + k - 1  # padded by k // 2 on each side
    # Phase (a, c) holds the padded rows a, a+s, ... and columns c, c+s, ..., zero-filled to one
    # hq x wq extent, so every phase plane has the same layout; a phase's n planes are phase_cols long.
    hq, wq = -(-hp // s), -(-wp // s)
    plane = hq * wq
    phase_cols = n * plane
    # Output columns: to the end of the last plane's output rows, in whole 16-column blocks.
    span = _whole_blocks((n - 1) * plane + ho * wq)
    taps = -(-k // s)  # kernel rows, and columns, of phase (0, 0), the largest
    # The input buffer's row: to the end of the last phase's last window, and at least all phases.
    cols = max(s * s * phase_cols, (s * s - 1) * phase_cols + (taps - 1) * wq + taps - 1 + span)
    width = max(phase_cols, span)  # the output's wide row: the output columns, and at least the n planes
    keep = np.s_[:, :, :ho, :wo]
    # Row phase a lowers its phases (a, j mod s) at shift j // s for each kernel column j, and its
    # kernel rows i read windows (i // s) * wq into that block.
    row_phases = [([(a * s + j % s) * phase_cols + j // s for j in range(k)],
                   [((0, i), i // s * wq, k * cin) for i in range(a, k, s)]) for a in range(min(s, k))]
    x_dtype, w_dtype = x.dtype, wd.dtype

    def planes(flat):
        return flat[:, :phase_cols].reshape(flat.shape[0], n, hq, wq)

    # The forward builds this from the input, and the backward builds it again from the input's
    # channel blocks, so that it does not stay on the tape.
    def phase_buffer(x_parts):
        xp = np.zeros((cin, cols), dtype=x_dtype)
        phases = _phases(h, wdt, k // 2, s)
        c0 = 0
        for part in x_parts:
            c1 = c0 + part.shape[1]
            x_cn = part.transpose(1, 0, 2, 3)
            for ph, (ys, ry), (xs, rx) in phases:
                planes(xp[c0:c1, ph * phase_cols:])[:, :, ry, rx] = x_cn[:, :, ys, xs]
            c0 = c1
        return xp

    xp = phase_buffer((x,))
    w_rows = np.ascontiguousarray(wd.transpose(2, 0, 3, 1)).reshape(1, k, cout, k * cin)
    out_wide = np.empty((cout, width), dtype=x_dtype)  # the columns past span are never read
    _correlate(xp, row_phases, span, w_rows, out_wide[None])
    del xp, w_rows
    out = np.ascontiguousarray(planes(out_wide)[keep].transpose(1, 0, 2, 3))

    def bwd(g):
        # The output gradient, laid out wide `lead` zero columns into its row: the input gradient's
        # windows start up to `lead` columns before the output column they compute.
        lead = (taps - 1) * wq + taps - 1
        dspan = _whole_blocks(phase_cols)  # each phase's input-gradient columns
        g_pad = np.zeros((cout, lead + dspan + taps - 1), dtype=g.dtype)
        planes(g_pad[:, lead:])[keep] = g.transpose(1, 0, 2, 3)
        dw = dx = None
        if x_kept is not None:
            xp = phase_buffer(x_kept)
            dw_rows = np.zeros((k, k * cin, cout), dtype=w_dtype)  # transposed: the faster gemm
            for cols_at, (_, i), window in _lowered_windows(xp, row_phases, span, 0):
                dw_rows[i] += window @ g_pad[:, lead + cols_at.start:lead + cols_at.stop].T
            del xp, window  # the phase buffer and the last lowered block, before the dx buffers
            dw = np.ascontiguousarray(dw_rows.reshape(k, k, cin, cout).transpose(3, 2, 0, 1))
        if w_kept is not None:
            # Phase (a, c) of dx correlates the gradient with w's kernel rows a, a+s, ... and columns
            # c, c+s, ..., flipped and transposed: th rows of tw columns. Flipped row r is the first
            # tw shifts of the gradient's lowered block, from lead - (th-1-r)*wq - (tw-1) columns in.
            d_rows, windows = {}, []
            for ph in range(s * s):
                a, c = divmod(ph, s)
                th, tw = len(range(a, k, s)), len(range(c, k, s))
                if th and tw:
                    rows = w_kept[:, :, a::s, c::s][:, :, ::-1, ::-1].transpose(2, 1, 3, 0)
                    d_rows[ph] = np.ascontiguousarray(rows).reshape(th, cin, tw * cout)
                    windows += [((ph, r), lead - (th - 1 - r) * wq - (tw - 1), tw * cout) for r in range(th)]
            dxp = np.empty((s * s, cin, dspan), dtype=x_dtype)  # only the phases with taps are written
            _correlate(g_pad, [(range(taps), windows)], dspan, d_rows, dxp)
            del g_pad  # read for the last time, before the input gradient is allocated
            dx = np.empty((n, cin, h, wdt), dtype=x_dtype)
            for ph, (ys, ry), (xs, rx) in _phases(h, wdt, k // 2, s):
                # A phase that no kernel tap reads gets no gradient.
                dx[:, :, ys, xs] = planes(dxp[ph])[:, :, ry, rx].transpose(1, 0, 2, 3) if ph in d_rows else 0
        return dx, dw

    return out, bwd


def _whole_blocks(columns):
    """`columns` rounded up to whole blocks of 16."""
    return -(-columns // 16) * 16


def _lowered_windows(src, groups, span, out_rows):
    """(output columns, key, window) of each row gemm over output columns [0, span), block by block.

    Each group is (shifts, windows). Its lowered block stacks the rows of `src` shifted by each
    column shift; a window (key, offset, depth) is that block's first `depth` rows, from `offset`
    columns into the block, as wide as the block's output columns. One buffer serves every group
    and block. A block is as wide as LOWERED_BYTES holds of the lowered block, overhang included,
    and of two sums of `out_rows` rows.
    """
    rows = src.shape[0]
    depth = rows * max(len(shifts) for shifts, _ in groups)
    overhang = max(off for _, windows in groups for _, off, _ in windows)
    step = (LOWERED_BYTES // src.itemsize - depth * overhang) // (depth + 2 * out_rows) // 16 * 16
    step = min(max(step, 16), span)
    lowered = np.empty((depth, step + overhang), dtype=src.dtype) if depth > rows else None
    for start in range(0, span, step):
        stop = min(start + step, span)
        for shifts, windows in groups:
            if len(shifts) == 1:  # one shift lowers to the source itself
                block = src[:, start + shifts[0]:]
            else:
                block = lowered
                extent = stop - start + max(off for _, off, _ in windows)
                for j, shift in enumerate(shifts):
                    lowered[j * rows:(j + 1) * rows, :extent] = src[:, start + shift:start + shift + extent]
            for key, off, used in windows:
                yield slice(start, stop), key, block[:used, off:off + stop - start]


def _correlate(src, groups, span, weights, targets):
    """targets[t][:, block] = the sum of weights[t][r] @ window over the windows keyed (t, r), for
    each block of output columns [0, span).

    A target's windows come one after another in a block. Their sum is taken in a contiguous
    array and then copied into place: an in-place add into a block of a wider row goes through
    numpy's iterator buffers, which cost time and memory.
    """
    windows = _lowered_windows(src, groups, span, targets.shape[1])
    for (cols_at, t), run in groupby(windows, key=lambda item: (item[0], item[1][0])):
        _, (_, r), window = next(run)
        total = weights[t][r] @ window
        for _, (_, r), window in run:
            total += weights[t][r] @ window
        targets[t][:, cols_at] = total


def _phases(h, wdt, pad, s):
    """(phase index, (input rows, phase rows), (input columns, phase columns)) of each phase.

    Input row y is padded row pad + y, which phase (pad + y) mod s holds as its row
    (pad + y) // s, so phase a's first input row is (a - pad) mod s; likewise for the
    columns. Rebuilt where needed rather than kept on the tape.
    """
    axes = []
    for extent in (h, wdt):
        axis = []
        for a in range(s):
            y0 = (a - pad) % s
            start = (pad + y0) // s
            axis.append((slice(y0, extent, s), slice(start, start + len(range(y0, extent, s)))))
        axes.append(axis)
    return [(a * s + c, axes[0][a], axes[1][c]) for a in range(s) for c in range(s)]


def conv_transpose2x(x, w, b):
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling.

    Weight layout is [Cin, Cout, 2, 2]; every input pixel paints one disjoint 2x2 output tile, so
    the op is the depth-to-space of the channel gemm with the weights' [Cin, 4*Cout] view: row
    (o, a, b) of the gemm at input pixel (i, j) is output pixel (2i + a, 2j + b) of channel o. The
    backward gathers the output gradient's tiles back into those rows.
    """
    if x.ndim != 4 or w.ndim != 4 or w.shape[2] != 2 or w.shape[3] != 2:
        raise DimensionError(f"conv_transpose2x expects [N,Cin,H,W] and [Cin,Cout,2,2], got {x.shape} / {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"conv_transpose2x channel mismatch: input {x.shape[1]}, weight {w.shape[0]}")
    n, cin, h, wdt = x.shape
    cout = w.shape[1]
    if b.data.shape != (cout,):
        raise DimensionError("conv_transpose2x bias must be [Cout]")

    xd, w_mat = x.data, w.data.reshape(cin, 4 * cout).T  # the arrays this call saw, as in conv2d
    x_kept, w_kept = xd if w.requires_grad else None, w_mat if x.requires_grad else None  # as in conv2d
    rows = np.empty((n, 4 * cout, h * wdt), dtype=x.dtype)
    grads = _channel_gemm(w_mat, xd.reshape(n, cin, h * wdt), rows,
                          None if x_kept is None else lambda: x_kept.reshape(n, cin, h * wdt), w_kept)
    # One strided copy per tile position: a single 6-d copy walks the tiles' two columns innermost,
    # and a strided ufunc output goes through the iterator's buffers.
    out = np.empty((n, cout, 2 * h, 2 * wdt), dtype=x.dtype)
    tiles, rows = out.reshape(n, cout, h, 2, wdt, 2), rows.reshape(n, cout, 2, 2, h, wdt)
    for a in range(2):
        for c in range(2):
            tiles[:, :, :, a, :, c] = rows[:, :, a, c]
    out += b.data[:, None, None]
    x_dtype, w_dtype = x.dtype, w.dtype

    def bwd(g):
        # Space to depth: the gradient's tiles gathered back into the gemm's rows, in one copy.
        g_rows = np.ascontiguousarray(g.reshape(n, cout, h, 2, wdt, 2).transpose(0, 1, 3, 5, 2, 4))
        dx, dw = grads(g_rows.reshape(n, 4 * cout, h * wdt))
        if dx is not None:
            dx = dx.astype(x_dtype, copy=False).reshape(n, cin, h, wdt)
        if dw is not None:
            dw = np.ascontiguousarray(dw.T, dtype=w_dtype).reshape(cin, cout, 2, 2)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return make(out, (x, w, b), bwd)
