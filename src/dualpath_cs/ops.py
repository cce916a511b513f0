"""Differentiable primitive operations.

Every op computes its forward value with numpy/BLAS and registers a closure
producing per-parent gradients. Numerical-stability conventions: softmax
subtracts the row max; attention runs its softmax in base 2 (log2 e folded into
the query scale, so scores are in bits and exp2 replaces exp) and shifts each
score row by a Cauchy-Schwarz bound on it, folded into the score gemm, and by
the exact row max only where that bound is past 31.5 bits in float32 (255.5 in
float64) and so too loose to keep the largest exp2 term in range; sigmoid never
exponentiates a positive argument; and the half-size bilinear resize is the
2x2 block mean it equals. Attention runs each gemm once over the sample axis of
its [N, T, d] operands, keeps only a per-query base-2 log-sum-exp for its
backward pass and recomputes the probabilities a chunk of queries at a time in
one reused T×chunk buffer per sample, so its memory is linear in the tokens; it
reads a binary key mask only through its `KeyPlan` (each sample's key order with
the kept keys first, and the one count every sample keeps), built once per mask
and shared by every call under it, skips the dropped keys' values in its value
gemms, and its backward splits the dq and dk gemms at the kept keys, scaling the
small side of the dropped-key ones by -rowdot. An elementwise activation keeps one
array for its backward: gelu its slope Φ(x) + x·φ(x), computed after the
forward only when the output is taped; relu and sigmoid read their derivative
off their own output. A parent with requires_grad=False gets None from the
backward closure, except in three ops that compute every gradient: `concat`,
whose gradients are views of g, and `layer_norm` and `scaled_dot_attention`,
which the model never sends a constant parent.
"""

import math
from itertools import accumulate

import numpy as np
from scipy.special import erf

from .autograd import Tensor, joined, make, parts
from .errors import ContractError, DimensionError, as_real_array, is_integer

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_LOG2E = 1.4426950408889634
_LN2 = 0.6931471805599453
LAYER_NORM_EPS = 1e-5
ATTENTION_CHUNK = 64  # queries per score block in scaled_dot_attention


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
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return make(out, (a, b), bwd)


def sub(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data - b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                -_unbroadcast(g, b_shape) if need_b else None)

    return make(out, (a, b), bwd)


def mul(a, b):
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape
    # Each operand's array serves only the other's gradient; a taped concatenation is kept as its
    # parts and rebuilt here.
    ad, bd = parts(a) if need_b else None, parts(b) if need_a else None

    def bwd(g):
        return (_unbroadcast(g * joined(*bd), a_shape) if need_a else None,
                _unbroadcast(g * joined(*ad), b_shape) if need_b else None)

    return make(out, (a, b), bwd)


def neg(a):
    return make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul expects operands with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape
    ad, bd = a.data if need_b else None, b.data if need_a else None  # as in mul

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), a_shape) if need_a else None
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), b_shape) if need_b else None
        return ga, gb

    return make(out, (a, b), bwd)


def concat(tensors, axis):
    """The tensors joined along `axis`. A taped output records its parts' arrays (see
    `autograd.parts`): a concatenation is kept as its parts and rebuilt where a backward reads
    it, so the copy leaves the tape with the output tensor."""
    if not tensors:
        raise DimensionError("concat needs at least one operand")
    base = tensors[0]
    if not (is_integer(axis) and -base.ndim <= axis < base.ndim):
        raise DimensionError(f"concat axis {axis!r} is not an axis of rank-{base.ndim} operands")
    for t in tensors[1:]:
        if t.ndim != base.ndim:
            raise DimensionError("concat operands must share rank")
        for ax, (u, v) in enumerate(zip(base.shape, t.shape)):
            if ax != (axis % base.ndim) and u != v:
                raise DimensionError(f"concat extents differ off-axis: {base.shape} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = list(accumulate((t.shape[axis] for t in tensors), initial=0))

    def bwd(g):
        pieces = []
        sl = [slice(None)] * g.ndim
        for lo, hi in zip(offsets, offsets[1:]):
            sl[axis] = slice(lo, hi)
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    out = make(out, tuple(tensors), bwd)
    if out.requires_grad:  # an untaped concatenation has no backward to keep its parts for
        out._parts = (tuple(t.data for t in tensors), axis % base.ndim)
    return out


def reshape(a, shape):
    """`a` in `shape`, which holds extents >= 0 and at most one -1, inferred from the others."""
    if not (isinstance(shape, (tuple, list)) and all(is_integer(d) and d >= -1 for d in shape)
            and list(shape).count(-1) <= 1):
        raise DimensionError(f"reshape needs extents >= 0 and at most one -1, got {shape!r}")
    known = math.prod(d for d in shape if d != -1)
    fits = known > 0 and a.size % known == 0 if -1 in shape else a.size == known
    if not fits:
        raise DimensionError(f"cannot reshape {a.shape} to {tuple(shape)}")
    orig = a.shape
    return make(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def transpose(a, axes):
    """`a` with its axes permuted; `axes` lists each axis 0..ndim-1 once."""
    if not (isinstance(axes, (tuple, list)) and all(is_integer(ax) for ax in axes)
            and sorted(axes) == list(range(a.ndim))):
        raise DimensionError(f"transpose axes {axes!r} are not a permutation of a rank-{a.ndim} tensor's axes")
    inv = tuple(sorted(range(a.ndim), key=lambda ax: axes[ax]))
    return make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def relu(a):
    """max(x, 0); the backward reads its mask off the output."""
    out = np.maximum(a.data, 0)

    def bwd(g):
        return (g * (out > 0),)  # out > 0 exactly where x > 0, NaN and -0 included

    return make(out, (a,), bwd)


def gelu(a):
    """x·Φ(x); the tape keeps only its slope Φ(x) + x·φ(x), computed once a gradient needs it."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    slope = None

    def bwd(g):
        return (g * slope,)

    out = make((x * cdf).astype(x.dtype, copy=False), (a,), bwd)
    # After make, so a no_grad forward skips it and the finite check fires before an inf input warns.
    if out.requires_grad:
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        slope = cdf + x * pdf
    return out


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
    """Max along one kept axis; gradient routes to the first maximal element.

    The backward finds that element again from the input, so the tape keeps no index array.
    """
    x = a.data
    out = x.max(axis=axis, keepdims=True)

    def bwd(g):
        gx = np.zeros_like(x)
        np.put_along_axis(gx, x.argmax(axis=axis, keepdims=True), g, axis)
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
    out = x - mu
    inv = 1.0 / np.sqrt((out * out).mean(axis=1, keepdims=True) + LAYER_NORM_EPS)
    out *= inv
    out *= gd
    out += bias.data[:, None, None]

    def bwd(g):
        # In place, in the order of inv * (g * gain - m1 - xhat * m2): the same bits in fewer arrays.
        xhat = x - mu
        xhat *= inv
        dx = g * gd
        m1 = dx.mean(axis=1, keepdims=True)
        m2 = (dx * xhat).mean(axis=1, keepdims=True)
        dgain = (g * xhat).sum(axis=(0, 2, 3))
        dx -= m1
        xhat *= m2
        dx -= xhat
        dx *= inv
        return dx.astype(x.dtype, copy=False), dgain, g.sum(axis=(0, 2, 3))

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
    dtype = pred.dtype
    out = np.asarray((diff * diff).mean(), dtype=dtype)
    n = pred.size
    need_pred, need_target = pred.requires_grad, target.requires_grad

    def bwd(g):
        base = (2.0 / n) * g * diff
        return (base.astype(dtype, copy=False) if need_pred else None,
                (-base).astype(dtype, copy=False) if need_target else None)

    return make(out, (pred, target), bwd)


class KeyPlan:
    """A constant binary key mask and what attention reads of it, built once for every call under it.

    `mask` is the mask Tensor, [N, ...] with T elements per sample, each 0 or 1 (no gradient
    reaches it), and `data` its array. `order` [N, T] holds each sample's key indices as int32, its
    kept keys (the ones) first and its dropped keys after them, each part ascending, and `kept` the
    count every sample keeps. A mask that is not a real-valued array, a value other than 0 or 1, or
    samples that keep different counts raise ContractError, and an empty mask or one without a
    sample axis DimensionError.
    """

    __slots__ = ("mask", "order", "kept")

    def __init__(self, mask):
        self.mask = mask if isinstance(mask, Tensor) else Tensor(as_real_array(mask, ContractError))
        data = self.mask.data
        if data.ndim < 2 or data.size == 0:
            raise DimensionError(f"key mask of shape {data.shape} is empty or has no sample axis [N, ...]")
        rows = data.reshape(data.shape[0], -1)
        dropped = rows == 0
        if not np.all(dropped | (rows == 1)):
            raise ContractError("a key mask holds only 0 (dropped) and 1 (kept)")
        counts = rows.shape[1] - np.count_nonzero(dropped, axis=1)
        if np.any(counts != counts[0]):
            raise ContractError(f"every sample of a key mask keeps the same count, got {counts.min()} to {counts.max()}")
        self.order = np.argsort(dropped, axis=1, kind="stable").astype(np.int32)
        self.kept = int(counts[0])

    @property
    def data(self):
        return self.mask.data


def scaled_dot_attention(q, k, v, plan):
    """softmax(q kᵀ / sqrt(d)) (mask ⊙ v) for [N*T,d] token matrices, single head.

    The N samples' T tokens are stacked, and each sample attends only to its own keys: the op views
    the operands as [N, T, d] and runs each gemm once over the sample axis, the gemm each sample
    would run alone. `plan` is the `KeyPlan` of a binary key mask [N, ...] with T elements per
    sample, all keeping one count (no gradient reaches it); anything else raises ContractError. A
    caller that attends under one mask more than once passes the same plan, so no call derives the
    key order again, and their backward passes keep one copy. The softmax denominator spans every
    key, but a dropped key's value is zero, so the kept keys are permuted to the front and only
    their rows of the score buffer enter the value gemms: E·V forward (a ones column beside the
    values also gives the kept part of each query's sum), dv and dp backward, where a dropped key's
    dp is exactly -rowdot.

    Softmax gives the same result for any per-row shift m_i and in any base, and the row max is
    only one shift that keeps exp in range (Milakov & Gimelshein 2018). This op scales the queries
    by log2(e)/sqrt(d), so the scores are in bits and numpy's exp2, faster and more accurate than
    its exp, gives the same probabilities, as in FlashAttention-2's kernels (Dao 2023). It shifts
    row i by the Cauchy-Schwarz bound m_i = |q_i log2(e)/sqrt(d)| max_j |k_j|, which no score
    exceeds. It writes -m_i into an extra last column of the scaled queries, so one gemm of the
    keys, with a ones column beside them, gives the shifted scores, with no max-and-subtract pass.
    A row whose bound is above log2(1/tiny)/4 (31.5 bits in float32, 255.5 in float64; the same
    limit as 21.8 and 177 nats) could underflow its largest term and shifts by its exact max
    instead, found in a pass over the query chunks that runs only when some row is that wide.

    Memory-linear: queries are processed `ATTENTION_CHUNK` at a time through one reused key-major
    T×chunk score buffer per sample (a row per key, kept keys first, so the kept and the dropped
    keys are two contiguous row blocks), and only the per-query base-2 log-sum-exp is kept for the
    backward pass, which rebuilds each chunk of probabilities from it (recomputation as in Rabe &
    Staats 2021 and FlashAttention, Dao et al. 2022). Peak extra memory is O(N·T·(chunk + d)) in
    both passes. Key-major chunks keep the per-chunk elementwise passes on contiguous memory, a
    point FlashAttention-2 (Dao 2023) makes about work partitioning and non-matmul work once the
    gemms are tight. For the same reason the backward never scales the dropped rows of a chunk by
    -rowdot: it splits the dq and dk gemms at the kept keys and scales the small side of the
    dropped-key ones instead, the chunk's rows of dq after its gemm and its queries before theirs.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError("attention operands must be [N*T,d]")
    if q.shape != k.shape or k.shape[0] != v.shape[0]:
        raise DimensionError(f"attention shapes inconsistent: {q.shape}, {k.shape}, {v.shape}")
    if not isinstance(plan, KeyPlan):
        raise ContractError(f"attention takes its key mask as an ops.KeyPlan, got {type(plan).__name__}")
    if plan.order.size != q.shape[0]:
        raise DimensionError(f"attention key mask of shape {plan.data.shape} is not [N, ...] for {q.shape[0]} tokens")
    n = plan.order.shape[0]
    out = np.empty(v.shape, dtype=q.dtype)
    back = _attend(*(a.reshape(n, -1, a.shape[1]) for a in (q.data, k.data, v.data, out)), plan)
    return make(out, (q, k, v), lambda g: tuple(a.reshape(-1, a.shape[2]) for a in back(g.reshape(n, -1, g.shape[1]))))


def _attend(q, k, v, out, plan):
    """`scaled_dot_attention` of the [N, T, ·] samples into `out`, every gemm once over the sample axis,
    under `plan`; returns its backward pass, from and to [N, T, ·] arrays."""
    n, t, d = q.shape
    dt = q.dtype
    chunk = ATTENTION_CHUNK
    nk = plan.kept
    order = plan.order[..., None]  # [N, T, 1]: the gathers and scatters broadcast over the features
    kept = order[:, :nk]
    # The queries scaled by log2(e)/sqrt(d), so the scores are in bits, with a last column of minus
    # each row's softmax shift: against the ones column beside the keys, one gemm gives the
    # shifted scores.
    q_one = np.empty((n, t, d + 1), dtype=dt)
    qs = q_one[..., :d]
    np.multiply(q, np.asarray(_LOG2E / np.sqrt(d), dtype=dt), out=qs)
    k_one = np.ones((n, t, d + 1), dtype=dt)
    kp = k_one[..., :d]
    kp[...] = np.take_along_axis(k, order, axis=1)
    v_one = np.ones((n, nk, out.shape[2] + 1), dtype=dt)
    v_one[..., :-1] = np.take_along_axis(v, kept, axis=1)
    ones = np.ones(t - nk, dtype=dt)
    width = min(chunk, t)
    buf = np.empty((n, t, width), dtype=dt)
    # Cauchy-Schwarz: |q_i·k_j| <= |q_i| max_j |k_j| = bound_i, so no shifted score is above 0
    # and the largest is at least -2 bound_i. Up to log2(1/tiny)/4, the query's largest exp2 term is then
    # at least sqrt(tiny), far from underflow; a query with a wider bound shifts by its exact max instead.
    bound = np.sqrt(np.einsum("nij,nij->ni", qs, qs) * np.einsum("nij,nij->ni", kp, kp).max(axis=1, keepdims=True))
    q_one[..., d] = -bound
    wide = ~(bound <= -np.log2(np.finfo(dt).tiny) / 4)  # NaN too: 0·inf from an overflowed key norm
    if wide.any():
        for i0 in range(0, t, chunk):
            s = buf[..., :min(chunk, t - i0)]
            np.matmul(kp, qs[:, i0:i0 + chunk].transpose(0, 2, 1), out=s)
            np.copyto(q_one[:, i0:i0 + chunk, d], -s.max(axis=1), where=wide[:, i0:i0 + chunk])
    for i0 in range(0, t, chunk):
        i1 = min(i0 + chunk, t)
        e = buf[..., :i1 - i0]
        np.matmul(k_one, q_one[:, i0:i1].transpose(0, 2, 1), out=e)
        np.exp2(e, out=e)
        num = e[:, :nk].transpose(0, 2, 1) @ v_one
        # A matrix-vector product sums the dropped keys faster than ndarray.sum.
        row_sum = num[..., -1] + ones @ e[:, nk:]
        np.divide(num[..., :-1], row_sum[..., None], out=out[:, i0:i1])
        # The shift column becomes -lse2: the backward rebuilds probabilities as exp2(s - lse2).
        q_one[:, i0:i1, d] -= np.log2(row_sum)

    def bwd(g):
        # rowsum(P ⊙ (g vᵀ)) = rowsum(g ⊙ out): O(T·d) instead of a T×T product.
        g = np.ascontiguousarray(g)
        neg_rowdot = -(g * out).sum(axis=2)
        # The ones columns of k_one and v_one fold the -lse2 and -rowdot shifts into the gemms.
        g_dot = np.empty((n, t, out.shape[2] + 1), dtype=dt)
        g_dot[..., :-1], g_dot[..., -1] = g, neg_rowdot
        p_buf = np.empty((n, t, width), dtype=dt)
        dp_buf = np.empty((n, nk, width), dtype=dt)
        dq = np.empty((n, t, d), dtype=dt)
        dkp = np.zeros((n, t, d), dtype=dt)
        dvk = np.zeros((n, nk, out.shape[2]), dtype=dt)
        for i0 in range(0, t, chunk):
            i1 = min(i0 + chunk, t)
            p = p_buf[..., :i1 - i0]
            np.matmul(k_one, q_one[:, i0:i1].transpose(0, 2, 1), out=p)
            np.exp2(p, out=p)
            pk, pd = p[:, :nk], p[:, nk:]
            dvk += pk @ g[:, i0:i1]
            dp = dp_buf[..., :i1 - i0]
            np.matmul(v_one, g_dot[:, i0:i1].transpose(0, 2, 1), out=dp)
            pk *= dp
            # A dropped key's value is zero, so its dp is exactly -rowdot: scale the small side of
            # each dropped-key gemm by it rather than the dropped rows of p.
            nr = neg_rowdot[:, i0:i1, None]
            np.matmul(pk.transpose(0, 2, 1), kp[:, :nk], out=dq[:, i0:i1])
            dq[:, i0:i1] += nr * (pd.transpose(0, 2, 1) @ kp[:, nk:])
            dkp[:, :nk] += pk @ qs[:, i0:i1]
            dkp[:, nk:] += pd @ (qs[:, i0:i1] * nr)
        del p_buf, dp_buf, g_dot, p, pk, pd, dp, nr  # before the scatter targets are allocated
        dq *= dt.type(1.0 / np.sqrt(d))
        dkp *= np.asarray(_LN2, dtype=dt)  # the log2(e) that qs carries
        dk = np.empty_like(dkp)
        np.put_along_axis(dk, order, dkp, axis=1)
        dv = np.zeros_like(out)
        np.put_along_axis(dv, kept, dvk, axis=1)
        return dq, dk, dv

    return bwd
