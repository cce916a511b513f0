"""Differentiable-op registry for gradient verification.

Each case draws a small random instance (at most about a hundred elements per
input) and returns
(build, arrays): `build` maps Tensors to a scalar loss (a fixed random
weighting of the op output), `arrays` are the float inputs to differentiate.
"""

import numpy as np

from dualpath_cs import ops
from dualpath_cs.autograd import tensor
from dualpath_cs.conv import conv2d, conv_transpose2x
from dualpath_cs.sampling import BlockSensingMatrix, data_grad


def _weighted(out_shape, rng):
    w = rng.standard_normal(out_shape)

    def reduce(out):
        return ops.reduce_sum(ops.mul(out, tensor(w)))

    return reduce


def _signed_margin(rng, shape, margin=0.2):
    """Values bounded away from zero (ReLU kink safety for finite differences)."""
    return rng.uniform(margin, 1.0, shape) * rng.choice([-1.0, 1.0], shape)


def case_add(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    a, b = rng.standard_normal(shape), rng.standard_normal((1, shape[1]))
    reduce = _weighted(shape, rng)
    return lambda x, y: reduce(ops.add(x, y)), [a, b]


def case_sub(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    reduce = _weighted(shape, rng)
    return lambda x, y: reduce(ops.sub(x, y)), [a, b]


def case_mul_broadcast(rng):
    shape = (2, int(rng.integers(1, 4)), 3, 3)
    a = rng.standard_normal(shape)
    b = rng.standard_normal((1, 1, 3, 3))
    reduce = _weighted(shape, rng)
    return lambda x, y: reduce(ops.mul(x, y)), [a, b]


def case_matmul(rng):
    m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    reduce = _weighted((m, n), rng)
    return lambda x, y: reduce(ops.matmul(x, y)), [a, b]


def case_matmul_batched(rng):
    bsz, m, k, n = 2, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2
    a, b = rng.standard_normal((bsz, m, k)), rng.standard_normal((k, n))
    reduce = _weighted((bsz, m, n), rng)
    return lambda x, y: reduce(ops.matmul(x, y)), [a, b]


def case_concat(rng):
    h = int(rng.integers(1, 4))
    a, b = rng.standard_normal((2, h)), rng.standard_normal((3, h))
    reduce = _weighted((5, h), rng)
    return lambda x, y: reduce(ops.concat([x, y], axis=0)), [a, b]


def case_transpose_reshape(rng):
    a = rng.standard_normal((2, 3, 4))
    reduce = _weighted((4, 6), rng)
    return lambda x: reduce(ops.reshape(ops.transpose(x, (2, 0, 1)), (4, 6))), [a]


def case_relu(rng):
    a = _signed_margin(rng, (3, 5))
    reduce = _weighted((3, 5), rng)
    return lambda x: reduce(ops.relu(x)), [a]


def case_gelu(rng):
    a = rng.standard_normal((4, 4))
    reduce = _weighted((4, 4), rng)
    return lambda x: reduce(ops.gelu(x)), [a]


def case_sigmoid(rng):
    a = 3.0 * rng.standard_normal((2, 6))
    reduce = _weighted((2, 6), rng)
    return lambda x: reduce(ops.sigmoid(x)), [a]


def case_clip(rng):
    """Values below, inside and above [-0.5, 0.5], each at least 0.2 from both ends
    (the clamp's kinks), so finite differences never straddle one."""
    lo, hi = -0.5, 0.5
    bounds = ((-1.5, lo - 0.2), (lo + 0.2, hi - 0.2), (hi + 0.2, 1.5))  # below, inside, above
    region = rng.permutation(np.arange(12) % 3).reshape(3, 4)  # four values in each
    a = np.choose(region, [rng.uniform(u, v, (3, 4)) for u, v in bounds])
    reduce = _weighted((3, 4), rng)
    return lambda x: reduce(ops.clip(x, lo, hi)), [a]


def case_softmax(rng):
    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
    a = 2.0 * rng.standard_normal(shape)
    reduce = _weighted(shape, rng)
    return lambda x: reduce(ops.softmax(x, axis=1)), [a]


def case_reduce_sum(rng):
    a = rng.standard_normal((3, 4))
    reduce = _weighted((4,), rng)
    return lambda x: reduce(ops.reduce_sum(x, axis=0)), [a]


def case_reduce_mean(rng):
    a = rng.standard_normal((2, 3, 4))
    reduce = _weighted((2, 1, 1), rng)
    return lambda x: reduce(ops.reduce_mean(x, axis=(1, 2))), [a]


def case_reduce_max(rng):
    a = rng.standard_normal((2, 5, 3))
    reduce = _weighted((2, 1, 3), rng)
    return lambda x: reduce(ops.reduce_max(x, axis=1)), [a]


def case_global_avg_pool(rng):
    a = rng.standard_normal((2, 3, 2, 4))
    reduce = _weighted((2, 3, 1, 1), rng)
    return lambda x: reduce(ops.global_avg_pool(x)), [a]


def case_layer_norm(rng):
    d = int(rng.integers(2, 6))
    a = rng.standard_normal((1, d, 3, 1))
    gain = rng.uniform(0.5, 1.5, d)
    shift = rng.standard_normal(d)
    reduce = _weighted((1, d, 3, 1), rng)
    return lambda x, g, s: reduce(ops.layer_norm(x, g, s)), [a, gain, shift]


def case_bilinear_down(rng):
    a = rng.standard_normal((1, 2, 4, 4))
    reduce = _weighted((1, 2, 2, 2), rng)
    return lambda x: reduce(ops.bilinear_resize(x)), [a]


def case_mse(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    return lambda x, y: ops.mse(x, y), [a, b]


def case_attention(rng):
    t, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    q, k, v = (rng.standard_normal((t, d)) for _ in range(3))
    reduce = _weighted((t, d), rng)
    return lambda x, y, z: reduce(ops.scaled_dot_attention(x, y, z, ops.KeyPlan(np.ones((1, t))))), [q, k, v]


def case_attention_multi_chunk(rng):
    """A full chunk of queries and a one-query remainder: dk and dv accumulate across two chunks."""
    t = ops.ATTENTION_CHUNK + 1
    q, k, v = (rng.standard_normal((t, 2)) for _ in range(3))
    reduce = _weighted((t, 2), rng)
    return lambda x, y, z: reduce(ops.scaled_dot_attention(x, y, z, ops.KeyPlan(np.ones((1, t))))), [q, k, v]


def case_attention_masked(rng):
    """Every third key dropped, over a full chunk of queries and a one-query remainder: every key
    still shapes the softmax, so q and k get gradients through the dropped keys, and their v rows
    get 0."""
    t = ops.ATTENTION_CHUNK + 1
    q, k, v = (rng.standard_normal((t, 2)) for _ in range(3))
    plan = ops.KeyPlan((np.arange(t) % 3 != 1)[None].astype(np.float64))
    reduce = _weighted((t, 2), rng)
    return lambda x, y, z: reduce(ops.scaled_dot_attention(x, y, z, plan)), [q, k, v]


def case_data_grad_gram(rng):
    """G x - b with G = phi1T phi1 + phi2T phi2: each phi's gradient arrives
    through both factors of its Gram matrix."""
    x = rng.standard_normal((1, 1, 4, 6))
    w1, w2 = rng.standard_normal((2, 4)), rng.standard_normal((1, 4))
    back = rng.standard_normal((1, 1, 4, 6))
    phi1, phi2 = BlockSensingMatrix(w1), BlockSensingMatrix(w2)
    reduce = _weighted((1, 1, 4, 6), rng)

    def build(xx, ww1, ww2, bb):
        phi1.weights, phi2.weights = ww1, ww2
        return reduce(data_grad(ops.add(phi1.gram(), phi2.gram()), xx, bb))

    return build, [x, w1, w2, back]


def case_conv2d(rng):
    cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    h = int(rng.integers(3, 6))
    x = rng.standard_normal((1, cin, h, h))
    w = rng.standard_normal((cout, cin, 3, 3))
    b = rng.standard_normal(cout)
    reduce = _weighted((1, cout, h, h), rng)
    return lambda xx, ww, bb: reduce(conv2d(xx, ww, bb)), [x, w, b]


def case_conv2d_concat_input(rng):
    """A strided conv of a taped channel concatenation: the phase buffer is filled part by part,
    in the forward and again in the backward."""
    h = int(rng.integers(3, 6))
    a, c = rng.standard_normal((2, 1, h, h)), rng.standard_normal((2, 2, h, h))
    w = rng.standard_normal((2, 3, 3, 3))
    ho = (h + 2 - 3) // 2 + 1
    reduce = _weighted((2, 2, ho, ho), rng)
    return lambda aa, cc, ww: reduce(conv2d(ops.concat([aa, cc], axis=1), ww, stride=2)), [a, c, w]


def case_conv2d_strided(rng):
    h = int(rng.integers(5, 8))
    x = rng.standard_normal((1, 2, h, h))
    w = rng.standard_normal((2, 2, 3, 3))
    ho = (h + 2 - 3) // 2 + 1
    reduce = _weighted((1, 2, ho, ho), rng)
    return lambda xx, ww: reduce(conv2d(xx, ww, stride=2)), [x, w]


def case_conv2d_wide_kernel(rng):
    """7x7 taps on a non-square input narrower than the kernel: a swapped Hp/Wp
    or a short tail of the padded buffer would misplace taps."""
    x = rng.standard_normal((1, 2, 5, 9))
    w = rng.standard_normal((1, 2, 7, 7))
    b = rng.standard_normal(1)
    reduce = _weighted((1, 1, 5, 9), rng)
    return lambda xx, ww, bb: reduce(conv2d(xx, ww, bb)), [x, w, b]


def case_conv2d_pointwise(rng):
    x = rng.standard_normal((2, 3, 2, 5))
    w = rng.standard_normal((2, 3, 1, 1))
    reduce = _weighted((2, 2, 2, 5), rng)
    return lambda xx, ww: reduce(conv2d(xx, ww)), [x, w]


def case_conv_transpose2x(rng):
    cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    x = rng.standard_normal((1, cin, 3, 3))
    w = rng.standard_normal((cin, cout, 2, 2))
    b = rng.standard_normal(cout)
    reduce = _weighted((1, cout, 6, 6), rng)
    return lambda xx, ww, bb: reduce(conv_transpose2x(xx, ww, bb)), [x, w, b]


ALL_CASES = {
    name[len("case_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("case_")
}
