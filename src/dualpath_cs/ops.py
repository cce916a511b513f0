"""Differentiable primitive operations.

Every op computes its forward value with numpy/BLAS and registers a closure
producing per-parent gradients. Numerical-stability conventions: softmax
subtracts the row max, sigmoid never exponentiates a positive argument,
bilinear resizing uses half-pixel centers realized as explicit (cached)
interpolation matrices so the adjoint is the exact transpose. Attention
keeps only a per-row log-sum-exp for its backward pass and recomputes the
probabilities chunk by chunk, so its memory is linear in the token count.
"""

import numpy as np
from scipy.special import erf

from .autograd import Tensor, make
from .errors import DimensionError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


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

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return make(out, (a, b), bwd)


def sub(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return make(out, (a, b), bwd)


def mul(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

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


def reduce_sum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, shape).copy(),)

    return make(np.asarray(out), (a,), bwd)


def reduce_mean(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    if axis is None:
        count = a.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for i in ax:
            count *= shape[i]

    def bwd(g):
        gs = g / count
        if axis is None:
            return (np.broadcast_to(gs, shape).copy(),)
        gk = gs if keepdims else np.expand_dims(gs, axis)
        return (np.broadcast_to(gk, shape).copy(),)

    return make(np.asarray(out), (a,), bwd)


def reduce_max(a, axis, keepdims=True):
    """Max along one axis; gradient routes to the first maximal element."""
    x = a.data
    out = x.max(axis=axis, keepdims=keepdims)
    idx = np.expand_dims(x.argmax(axis=axis), axis)

    def bwd(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        gx = np.zeros_like(x)
        np.put_along_axis(gx, idx, gk, axis)
        return (gx,)

    return make(out, (a,), bwd)


def global_avg_pool(a):
    """Per-channel spatial mean of an [N,C,H,W] map, kept as [N,C,1,1]."""
    if a.ndim != 4:
        raise DimensionError(f"global_avg_pool expects [N,C,H,W], got {a.shape}")
    if a.shape[2] < 1 or a.shape[3] < 1:
        raise DimensionError("global_avg_pool needs nonempty spatial extents")
    return reduce_mean(a, axis=(2, 3), keepdims=True)


def layer_norm(a, gain, bias, eps=1e-5):
    """Normalize over the last axis with learnable scale/shift."""
    x = a.data
    d = x.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError("layer_norm gain/bias must match the last axis")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        return dx.astype(x.dtype, copy=False), dgain, dbias

    return make(out.astype(x.dtype, copy=False), (a, gain, bias), bwd)


_resize_matrices = {}


def _resize_matrix(n_in, n_out, dtype):
    """Half-pixel-center bilinear interpolation as an explicit [n_out, n_in] matrix."""
    key = (n_in, n_out, np.dtype(dtype).name)
    cached = _resize_matrices.get(key)
    if cached is not None:
        return cached
    scale = n_out / n_in
    src = (np.arange(n_out, dtype=np.float64) + 0.5) / scale - 0.5
    i0f = np.floor(src)
    frac = src - i0f
    i0 = np.clip(i0f, 0, n_in - 1).astype(np.int64)
    i1 = np.clip(i0f + 1, 0, n_in - 1).astype(np.int64)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, i0), 1.0 - frac)
    np.add.at(mat, (rows, i1), frac)
    mat = mat.astype(dtype)
    _resize_matrices[key] = mat
    return mat


def _apply_axis_matrix(x, mat, axis):
    moved = np.moveaxis(x, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = mat @ flat
    return np.moveaxis(out.reshape((mat.shape[0],) + moved.shape[1:]), 0, axis)


def bilinear_resize(a, scale):
    """Bilinear resize of an [N,C,H,W] map by 1/2 or 2, half-pixel alignment."""
    if a.ndim != 4:
        raise DimensionError(f"bilinear_resize expects [N,C,H,W], got {a.shape}")
    if scale not in (0.5, 2, 2.0):
        raise DimensionError("bilinear_resize supports scale 0.5 or 2")
    n, c, h, w = a.shape
    ho, wo = int(round(h * scale)), int(round(w * scale))
    if ho < 1 or wo < 1:
        raise DimensionError("bilinear_resize output would be empty")
    mh = _resize_matrix(h, ho, a.dtype)
    mw = _resize_matrix(w, wo, a.dtype)
    out = _apply_axis_matrix(_apply_axis_matrix(a.data, mh, 2), mw, 3)

    def bwd(g):
        gx = _apply_axis_matrix(_apply_axis_matrix(g, mw.T, 3), mh.T, 2)
        return (np.ascontiguousarray(gx),)

    return make(np.ascontiguousarray(out), (a,), bwd)


def mse(pred, target):
    """Mean squared error over all elements, as a scalar tensor."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = np.asarray((diff * diff).mean(), dtype=pred.dtype)
    n = pred.size

    def bwd(g):
        base = (2.0 / n) * g * diff
        return base.astype(pred.dtype, copy=False), (-base).astype(pred.dtype, copy=False)

    return make(out, (pred, target), bwd)


def scaled_dot_attention(q, k, v, chunk=64):
    """softmax(q kᵀ / sqrt(d)) v for [T,d] token matrices, single head.

    Memory-linear: rows are processed `chunk` at a time through one reused
    chunk×T score buffer, and only the per-row log-sum-exp is kept for the
    backward pass, which rebuilds each chunk of probabilities from it
    (recomputation as in Rabe & Staats 2021 and FlashAttention, Dao et al.
    2022). Peak extra memory is O(chunk·T + T·d) in both passes.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError("attention operands must be [T,d]")
    if q.shape != k.shape or k.shape[0] != v.shape[0]:
        raise DimensionError(f"attention shapes inconsistent: {q.shape}, {k.shape}, {v.shape}")
    t, d = q.shape
    dt = q.dtype
    scale = np.asarray(1.0 / np.sqrt(d), dtype=dt)
    # Row-major copies: the per-chunk dk and dv sums then add contiguous rows.
    qs = np.ascontiguousarray(q.data * scale)
    kd, vd = np.ascontiguousarray(k.data), np.ascontiguousarray(v.data)
    kt = np.ascontiguousarray(kd.T)
    out = np.empty((t, v.shape[1]), dtype=dt)
    lse = np.empty((t, 1), dtype=dt)
    buf = np.empty((min(chunk, t), t), dtype=dt)
    for i0 in range(0, t, chunk):
        i1 = min(i0 + chunk, t)
        e = buf[:i1 - i0]
        np.matmul(qs[i0:i1], kt, out=e)
        row_max = e.max(axis=1, keepdims=True)
        e -= row_max
        np.exp(e, out=e)
        row_sum = e.sum(axis=1, keepdims=True)
        np.matmul(e, vd, out=out[i0:i1])
        out[i0:i1] /= row_sum
        lse[i0:i1] = row_max + np.log(row_sum)

    def bwd(g):
        # rowsum(P ⊙ (g vᵀ)) = rowsum(g ⊙ out): O(T·d) instead of a T×T product.
        g = np.ascontiguousarray(g)
        rowdot = (g * out).sum(axis=1, keepdims=True)
        # A ones row under kᵀ and vᵀ folds the -lse and -rowdot shifts into the gemms.
        ones = np.ones((1, t), dtype=dt)
        q_lse = np.hstack([qs, -lse])
        k_one = np.vstack([kt, ones])
        g_dot = np.hstack([g, -rowdot])
        v_one = np.vstack([vd.T, ones])
        p_buf = np.empty((min(chunk, t), t), dtype=dt)
        dp_buf = np.empty_like(p_buf)
        dq = np.empty_like(qs)
        dk = np.zeros_like(kd)
        dv = np.zeros_like(vd)
        for i0 in range(0, t, chunk):
            i1 = min(i0 + chunk, t)
            p = p_buf[:i1 - i0]
            np.matmul(q_lse[i0:i1], k_one, out=p)
            np.exp(p, out=p)
            dv += p.T @ g[i0:i1]
            dp = dp_buf[:i1 - i0]
            np.matmul(g_dot[i0:i1], v_one, out=dp)
            p *= dp
            dq[i0:i1] = p @ kd
            dk += p.T @ qs[i0:i1]
        dq *= scale
        return dq, dk, dv

    return make(out, (q, k, v), bwd)


Tensor.__add__ = lambda self, other: add(self, _as_tensor(other, self))
Tensor.__radd__ = lambda self, other: add(_as_tensor(other, self), self)
Tensor.__sub__ = lambda self, other: sub(self, _as_tensor(other, self))
Tensor.__rsub__ = lambda self, other: sub(_as_tensor(other, self), self)
Tensor.__mul__ = lambda self, other: mul(self, _as_tensor(other, self))
Tensor.__rmul__ = lambda self, other: mul(_as_tensor(other, self), self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
