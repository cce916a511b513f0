"""Differentiable primitive operations.

Every op computes its forward value with numpy/BLAS and registers a closure
producing per-parent gradients. Numerical-stability conventions: softmax
subtracts the row max; attention runs its softmax in base 2 (log2 e folded into
the query scale, so scores are in bits and exp2 replaces exp) and shifts each
score row by a Cauchy-Schwarz bound on it, folded into the score gemm, and by
the exact row max only where that bound is past 31.5 bits in float32 (255.5 in
float64) and so too loose to keep the largest exp2 term in range; sigmoid never
exponentiates a positive argument; and the half-size bilinear resize is the
2x2 block mean it equals. Attention keeps only a per-query base-2 log-sum-exp
for its backward pass and recomputes the probabilities a chunk of queries at a
time in one reused T×chunk buffer, so its memory is linear in the token count;
it takes a key mask and skips the dropped keys' values in its value gemms, and
its backward splits the dq and dk gemms at the kept keys, scaling the small
side of the dropped-key ones by -rowdot. A parent with requires_grad=False gets
None from the backward closure.
"""

import math

import numpy as np
from scipy.special import erf

from .autograd import Tensor, make
from .errors import DimensionError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_LOG2E = 1.4426950408889634
_LN2 = 0.6931471805599453
LAYER_NORM_EPS = 1e-5


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return make(out, (a, b), bwd)


def sub(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data - b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                -_unbroadcast(g, b.shape) if need_b else None)

    return make(out, (a, b), bwd)


def mul(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data * b.data
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g * bd, a.shape) if need_a else None,
                _unbroadcast(g * ad, b.shape) if need_b else None)

    return make(out, (a, b), bwd)


def neg(a):
    return make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul expects operands with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), a.shape) if need_a else None
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), b.shape) if need_b else None
        return ga, gb

    return make(out, (a, b), bwd)


def concat(tensors, axis):
    base = tensors[0]
    for t in tensors[1:]:
        if t.ndim != base.ndim:
            raise DimensionError("concat operands must share rank")
        for ax, (u, v) in enumerate(zip(base.shape, t.shape)):
            if ax != (axis % base.ndim) and u != v:
                raise DimensionError(f"concat extents differ off-axis: {base.shape} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        sl = [slice(None)] * g.ndim
        for i in range(len(sizes)):
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return make(out, tuple(tensors), bwd)


def reshape(a, shape):
    orig = a.shape
    return make(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def transpose(a, axes):
    inv = np.argsort(axes)
    return make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def relu(a):
    out = np.maximum(a.data, 0)
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return make(out, (a,), bwd)


def gelu(a):
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return make(out.astype(x.dtype, copy=False), (a,), bwd)


def sigmoid(a):
    x = a.data
    t = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t)).astype(x.dtype, copy=False)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return make(s, (a,), bwd)


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only inside the interval."""
    x = a.data
    out = np.clip(x, lo, hi)
    inside = (x > lo) & (x < hi)

    def bwd(g):
        return (g * inside,)

    return make(out, (a,), bwd)


def softmax(a, axis):
    if a.ndim == 0 or a.shape[axis] == 0:
        raise DimensionError("softmax needs a non-empty axis")
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return make(y.astype(x.dtype, copy=False), (a,), bwd)


def reduce_sum(a, axis=None):
    """Sum over `axis` (all axes when None), dropping the reduced axes."""
    out = a.data.sum(axis=axis)
    shape = a.shape

    def bwd(g):
        gk = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, shape).copy(),)

    return make(np.asarray(out), (a,), bwd)


def reduce_mean(a, axis):
    """Mean over `axis` (an int or a tuple), keeping the reduced axes."""
    out = a.data.mean(axis=axis, keepdims=True)
    shape = a.shape
    axes = axis if isinstance(axis, tuple) else (axis,)
    count = math.prod(shape[i] for i in axes)

    def bwd(g):
        return (np.broadcast_to(g / count, shape).copy(),)

    return make(out, (a,), bwd)


def reduce_max(a, axis):
    """Max along one kept axis; gradient routes to the first maximal element."""
    x = a.data
    out = x.max(axis=axis, keepdims=True)
    idx = x.argmax(axis=axis, keepdims=True)

    def bwd(g):
        gx = np.zeros_like(x)
        np.put_along_axis(gx, idx, g, axis)
        return (gx,)

    return make(out, (a,), bwd)


def global_avg_pool(a):
    """Per-channel spatial mean of an [N,C,H,W] map, kept as [N,C,1,1]."""
    if a.ndim != 4:
        raise DimensionError(f"global_avg_pool expects [N,C,H,W], got {a.shape}")
    if a.shape[2] < 1 or a.shape[3] < 1:
        raise DimensionError("global_avg_pool needs nonempty spatial extents")
    return reduce_mean(a, axis=(2, 3))


def layer_norm(a, gain, bias):
    """Normalize an [N,C,H,W] map over its channel axis with learnable per-channel scale/shift.

    The tape keeps the input, the per-pixel means and inverse deviations; backward rebuilds
    xhat = (x - mu) * inv from them with the forward's own ops, so its bits are the forward's.
    """
    if a.ndim != 4:
        raise DimensionError(f"layer_norm expects [N,C,H,W], got {a.shape}")
    x, gd = a.data, gain.data
    c = x.shape[1]
    if gd.shape != (c,) or bias.data.shape != (c,):
        raise DimensionError("layer_norm gain/bias must match the channel axis")
    gd = gd[:, None, None]
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    out = xc * inv * gd + bias.data[:, None, None]

    def bwd(g):
        xhat = (x - mu) * inv
        dxhat = g * gd
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        dgain = (g * xhat).sum(axis=(0, 2, 3))
        dbias = g.sum(axis=(0, 2, 3))
        return dx.astype(x.dtype, copy=False), dgain, dbias

    return make(out.astype(x.dtype, copy=False), (a, gain, bias), bwd)


def bilinear_resize(a):
    """Half-size bilinear resize of an [N,C,H,W] map with half-pixel centres.

    Each output centre lies midway between two pixel pairs, so the resize is
    the mean of each 2x2 block.
    """
    if a.ndim != 4:
        raise DimensionError(f"bilinear_resize expects [N,C,H,W], got {a.shape}")
    n, c, h, w = a.shape
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise DimensionError(f"bilinear_resize needs even nonempty extents, got {h}x{w}")
    pairs = a.data.reshape(n, c, h // 2, 2, w // 2, 2)
    rows = pairs[:, :, :, 0] + pairs[:, :, :, 1]
    out = (rows[..., 0] + rows[..., 1]) * 0.25

    def bwd(g):
        return (np.repeat(np.repeat(g * 0.25, 2, axis=2), 2, axis=3),)

    return make(out, (a,), bwd)


def mse(pred, target):
    """Mean squared error over all elements, as a scalar tensor."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise DimensionError("mse of empty tensors")
    diff = pred.data - target.data
    out = np.asarray((diff * diff).mean(), dtype=pred.dtype)
    n = pred.size

    def bwd(g):
        base = (2.0 / n) * g * diff
        return base.astype(pred.dtype, copy=False), (-base).astype(pred.dtype, copy=False)

    return make(out, (pred, target), bwd)


def scaled_dot_attention(q, k, v, keep, chunk=64):
    """softmax(q kᵀ / sqrt(d)) (keep ⊙ v) for [N*T,d] token matrices, single head.

    The N samples' T tokens are stacked, and each sample attends only to its own keys, with the
    gemms it would run alone. `keep` is a constant key mask [N, ...] with T elements per sample
    (any array or Tensor; no gradient reaches it). The softmax denominator spans every key, but a
    dropped key's value is zero, so the kept keys are permuted to the front
    and only their rows of the score buffer enter the value gemms: E·V forward
    (a ones column beside the values also gives the kept part of each query's
    sum), dv and dp backward, where a dropped key's dp is exactly -rowdot.

    Softmax gives the same result for any per-row shift m_i and in any base, and the row max is
    only one shift that keeps exp in range (Milakov & Gimelshein 2018). This op scales the queries
    by log2(e)/sqrt(d), so the scores are in bits and numpy's exp2, faster and more accurate than
    its exp, gives the same probabilities, as in FlashAttention-2's kernels (Dao 2023). It shifts
    row i by the Cauchy-Schwarz bound m_i = |q_i log2(e)/sqrt(d)| max_j |k_j|, which no score
    exceeds. It writes -m_i into an extra last column of the scaled queries, so one gemm of the
    keys, with a ones column beside them, gives the shifted scores, with no max-and-subtract pass.
    A row whose bound is above log2(1/tiny)/4 (31.5 bits in float32, 255.5 in float64; the same
    limit as 21.8 and 177 nats) could underflow its largest term and shifts by its exact max
    instead, found in a pre-pass over only those rows.

    Memory-linear: queries are processed `chunk` at a time through one reused
    key-major T×chunk score buffer (a row per key, kept keys first, so the kept
    and the dropped keys are two contiguous row blocks), and only the per-query
    base-2 log-sum-exp is kept for the backward pass, which rebuilds each chunk
    of probabilities from it (recomputation as in Rabe & Staats 2021 and
    FlashAttention, Dao et al. 2022). Peak extra memory is O(chunk·T + N·T·d)
    in both passes. Key-major chunks keep the per-chunk elementwise passes on
    contiguous memory, a point FlashAttention-2 (Dao 2023) makes about work
    partitioning and non-matmul work once the gemms are tight. For the same
    reason the backward never scales the dropped rows of a chunk by -rowdot:
    it splits the dq and dk gemms at the kept keys and scales the small side
    of the dropped-key ones instead, the chunk's rows of dq after its gemm and
    its queries before theirs.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError("attention operands must be [N*T,d]")
    if q.shape != k.shape or k.shape[0] != v.shape[0]:
        raise DimensionError(f"attention shapes inconsistent: {q.shape}, {k.shape}, {v.shape}")
    mask = np.asarray(keep.data if isinstance(keep, Tensor) else keep, dtype=q.dtype)
    if mask.ndim < 2 or mask.size != q.shape[0]:
        raise DimensionError(f"attention key mask of shape {mask.shape} is not [N, ...] for {q.shape[0]} tokens")
    n = mask.shape[0]
    out = np.empty(v.shape, dtype=q.dtype)
    samples = zip(*(np.split(a, n) for a in (q.data, k.data, v.data, out)), mask.reshape(n, -1))
    backs = [_attend(*sample, chunk) for sample in samples]

    def bwd(g):
        grads = zip(*(back(g_s) for back, g_s in zip(backs, np.split(g, n))))
        return tuple(np.concatenate(parts) for parts in grads)

    return make(out, (q, k, v), bwd)


def _attend(q, k, v, out, mask, chunk):
    """One sample of `scaled_dot_attention` into `out`; returns its backward pass."""
    t, d = q.shape
    dt = q.dtype
    kept = np.flatnonzero(mask)
    nk = kept.size
    order = np.concatenate([kept, np.flatnonzero(mask == 0)])
    weight = mask[kept, None]
    scale = np.asarray(1.0 / np.sqrt(d), dtype=dt)
    # The queries scaled by log2(e)/sqrt(d), so the scores are in bits, with a last column of minus
    # each row's softmax shift: against the ones column beside the keys, one gemm gives the
    # shifted scores.
    q_one = np.empty((t, d + 1), dtype=dt)
    qs = q_one[:, :d]
    np.multiply(q, np.asarray(_LOG2E / np.sqrt(d), dtype=dt), out=qs)
    k_one = np.hstack([k[order], np.ones((t, 1), dtype=dt)])
    kp = k_one[:, :d]
    v_one = np.hstack([v[kept] * weight, np.ones((nk, 1), dtype=dt)])
    ones = np.ones(t - nk, dtype=dt)
    buf = np.empty((t, min(chunk, t)), dtype=dt)
    # Cauchy-Schwarz: |q_i·k_j| <= |q_i| max_j |k_j| = bound_i, so no shifted score is above 0
    # and the largest is at least -2 bound_i. Up to `safe`, the query's largest exp2 term is then at
    # least sqrt(tiny), far from underflow; a query with a larger bound shifts by its exact max instead.
    bound = np.sqrt(np.einsum("ij,ij->i", qs, qs) * np.einsum("ij,ij->i", kp, kp).max())
    q_one[:, d] = -bound
    safe = -np.log2(np.finfo(dt).tiny) / 4
    wide = np.flatnonzero(~(bound <= safe))  # NaN too: 0·inf from an overflowed key norm
    for r0 in range(0, wide.size, chunk):
        rows = wide[r0:r0 + chunk]
        s = buf[:, :rows.size]
        np.matmul(kp, qs[rows].T, out=s)
        q_one[rows, d] = -s.max(axis=0)
    for i0 in range(0, t, chunk):
        i1 = min(i0 + chunk, t)
        e = buf[:, :i1 - i0]
        np.matmul(k_one, q_one[i0:i1].T, out=e)
        np.exp2(e, out=e)
        num = e[:nk].T @ v_one
        # A matrix-vector product sums the dropped keys faster than ndarray.sum.
        row_sum = num[:, -1] + ones @ e[nk:]
        np.divide(num[:, :-1], row_sum[:, None], out=out[i0:i1])
        # The shift column becomes -lse2: the backward rebuilds probabilities as exp2(s - lse2).
        q_one[i0:i1, d] -= np.log2(row_sum)

    def bwd(g):
        # rowsum(P ⊙ (g vᵀ)) = rowsum(g ⊙ out): O(T·d) instead of a T×T product.
        g = np.ascontiguousarray(g)
        neg_rowdot = -(g * out).sum(axis=1)
        # The ones columns of k_one and v_one fold the -lse2 and -rowdot shifts into the gemms.
        g_dot = np.hstack([g, neg_rowdot[:, None]])
        p_buf = np.empty((t, min(chunk, t)), dtype=dt)
        dp_buf = np.empty((nk, min(chunk, t)), dtype=dt)
        dq = np.empty((t, d), dtype=dt)
        dkp = np.zeros((t, d), dtype=dt)
        dvk = np.zeros((nk, out.shape[1]), dtype=dt)
        for i0 in range(0, t, chunk):
            i1 = min(i0 + chunk, t)
            p = p_buf[:, :i1 - i0]
            np.matmul(k_one, q_one[i0:i1].T, out=p)
            np.exp2(p, out=p)
            pk, pd = p[:nk], p[nk:]
            dvk += pk @ g[i0:i1]
            dp = dp_buf[:, :i1 - i0]
            np.matmul(v_one, g_dot[i0:i1].T, out=dp)
            pk *= dp
            # A dropped key's value is zero, so its dp is exactly -rowdot: scale the small side of
            # each dropped-key gemm by it rather than the dropped rows of p.
            nr = neg_rowdot[i0:i1, None]
            np.matmul(pk.T, kp[:nk], out=dq[i0:i1])
            dq[i0:i1] += nr * (pd.T @ kp[nk:])
            dkp[:nk] += pk @ qs[i0:i1]
            dkp[nk:] += pd @ (qs[i0:i1] * nr)
        dq *= scale
        dkp *= np.asarray(_LN2, dtype=dt)  # the log2(e) that qs carries
        dk = np.empty_like(dkp)
        dk[order] = dkp
        dv = np.zeros_like(out)
        dv[kept] = dvk * weight
        return dq, dk, dv

    return bwd
