"""Convolution semantics against a naive dense oracle."""

import tracemalloc

import numpy as np
import pytest

from dualpath_cs.autograd import tensor
from dualpath_cs.conv import conv2d, conv_transpose2x
from dualpath_cs.errors import DimensionError, GeometryError


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct-loop cross-correlation, independent of the gemm path."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, co, i, j] = np.sum(patch * w[co])
            if b is not None:
                out[ni, co] += b[co]
    return out


def naive_transpose2x(x, w, b=None):
    n, cin, h, wid = x.shape
    cout = w.shape[1]
    out = np.zeros((n, cout, 2 * h, 2 * wid), dtype=x.dtype)
    for ni in range(n):
        for i in range(h):
            for j in range(wid):
                for co in range(cout):
                    out[ni, co, 2 * i:2 * i + 2, 2 * j:2 * j + 2] += np.tensordot(
                        x[ni, :, i, j], w[:, co], axes=(0, 0)
                    )
    if b is not None:
        out += b[None, :, None, None]
    return out


class TestConvForward:
    def test_all_ones_hand_values(self):
        x = tensor(np.ones((1, 1, 3, 3)))
        w = tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w, padding=1).data.reshape(3, 3)
        assert out[1, 1] == 9.0
        assert all(out[i, j] == 4.0 for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)])

    def test_zero_kernel_zero_output(self, rng):
        x = tensor(rng.standard_normal((1, 2, 4, 4)))
        w = tensor(np.zeros((3, 2, 3, 3)))
        assert np.all(conv2d(x, w, padding=1).data == 0.0)

    def test_one_by_one_kernel_scales(self):
        x = tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = tensor(np.array([2.0]).reshape(1, 1, 1, 1))
        assert np.array_equal(conv2d(x, w).data.reshape(2, 2), [[2.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("stride,padding,hw,k", [
        (1, 1, (5, 5), 3), (1, 0, (6, 6), 3), (2, 1, (6, 6), 3), (2, 1, (7, 7), 3), (1, 2, (4, 4), 3),
        (1, 3, (5, 9), 7), (2, 3, (10, 7), 7),
    ], ids=["1-1-5", "1-0-6", "2-1-6", "2-1-7", "1-2-4", "1-3-5x9-k7", "2-3-10x7-k7"])
    def test_matches_naive_oracle(self, rng, stride, padding, hw, k):
        x = rng.standard_normal((2, 3, *hw))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        got = conv2d(tensor(x), tensor(w), tensor(b), stride=stride, padding=padding).data
        assert np.allclose(got, naive_conv2d(x, w, b, stride, padding), atol=1e-4)

    def test_linearity(self, rng):
        w = tensor(rng.standard_normal((2, 1, 3, 3)).astype(np.float32))
        x = tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        y = tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        a, b = 1.7, -0.4
        combo = conv2d(tensor(a * x.data + b * y.data), w, padding=1).data
        parts = a * conv2d(x, w, padding=1).data + b * conv2d(y, w, padding=1).data
        assert np.allclose(combo, parts, atol=1e-5)


class TestConvErrors:
    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(tensor(np.zeros((1, 1, 4, 4))), tensor(np.zeros((1, 1, 2, 2))))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(tensor(np.zeros((1, 2, 4, 4))), tensor(np.zeros((1, 3, 3, 3))))

    def test_nonpositive_output_extent(self):
        with pytest.raises(GeometryError):
            conv2d(tensor(np.zeros((1, 1, 2, 2))), tensor(np.zeros((1, 1, 3, 3))), padding=0)


class TestConvTranspose:
    def test_matches_naive_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2))
        b = rng.standard_normal(2)
        got = conv_transpose2x(tensor(x), tensor(w), tensor(b)).data
        assert np.allclose(got, naive_transpose2x(x, w, b), atol=1e-5)

    def test_doubles_extents(self, rng):
        x = tensor(rng.standard_normal((1, 4, 5, 7)))
        w = tensor(rng.standard_normal((4, 2, 2, 2)))
        assert conv_transpose2x(x, w).shape == (1, 2, 10, 14)


class TestConstantParents:
    """A constant parent gets no gradient; the others' gradients are unchanged."""

    @staticmethod
    def _parent_grads(op, arrays, constant):
        parents = [tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
        out = op(*parents)
        g = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
        return out._backward_fn(g)

    @pytest.mark.parametrize("op,shapes", [
        (lambda x, w, b: conv2d(x, w, b, stride=2, padding=1), [(1, 2, 7, 7), (3, 2, 3, 3), (3,)]),
        (conv_transpose2x, [(1, 3, 4, 4), (3, 2, 2, 2), (2,)]),
    ])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_parent_gets_none(self, rng, op, shapes, constant):
        arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        full = self._parent_grads(op, arrays, constant=())
        skipped = self._parent_grads(op, arrays, constant=(constant,))
        assert skipped[constant] is None
        for i, (a, b) in enumerate(zip(full, skipped)):
            if i != constant:
                assert np.array_equal(a, b), i


def dense_conv2d_f64(x, w, g, stride, padding):
    """Output, dx and dw of a conv in float64 from sliding windows and einsum,
    independent of the tap-gemm path; g is the output gradient."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    kh, kw = w.shape[2:]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    win = np.lib.stride_tricks.sliding_window_view(np.pad(x, pad), (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    out = np.einsum("ncyxij,ocij->noyx", win, w)
    dw = np.einsum("ncyxij,noyx->ocij", win, g)
    ho, wo = out.shape[2:]
    dxp = np.zeros(np.pad(x, pad).shape)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += np.einsum("noyx,oc->ncyx", g, w[:, :, i, j])
    dx = dxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]
    return out, dx, dw


class TestFloat32Accuracy:
    """At the model's shapes, f32 output and gradients match a float64 evaluation
    to within 4e-6 of their largest magnitude. That is 64 float32 unit roundoffs
    (2**-24), the typical rounding of the longest sum here, dw's 64*64 = 4096
    terms; the measured worst case is 4.9e-7, and a misplaced tap is off by O(1)."""

    @pytest.mark.parametrize("cin,cout,k,stride", [(16, 16, 3, 1), (2, 1, 7, 1), (16, 32, 3, 2), (1, 16, 3, 1), (16, 1, 3, 1)])
    def test_matches_float64(self, rng, cin, cout, k, stride):
        x = rng.standard_normal((1, cin, 64, 64)).astype(np.float32)
        w = (rng.standard_normal((cout, cin, k, k)) / np.sqrt(cin * k * k)).astype(np.float32)
        xt, wt = tensor(x, requires_grad=True), tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=stride, padding=k // 2)
        g = rng.standard_normal(out.shape).astype(np.float32)
        dx, dw = out._backward_fn(g)
        for got, ref in zip((out.data, dx, dw), dense_conv2d_f64(x, w, g, stride, k // 2)):
            assert got.dtype == np.float32 and got.shape == ref.shape
            rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert rel <= 4e-6, rel


class TestBatchInvariance:
    @pytest.mark.parametrize("cin,cout,size", [(32, 32, 4), (32, 64, 4), (64, 32, 4), (32, 16, 8), (16, 16, 16)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sample_gets_the_same_bits_in_any_batch(self, rng, cin, cout, size, n):
        x = rng.standard_normal((1, cin, size, size)).astype(np.float32)
        w = tensor(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32))
        g = rng.standard_normal((1, cout, size, size)).astype(np.float32)
        single = conv2d(tensor(x, requires_grad=True), w, padding=1)
        batch = conv2d(tensor(np.concatenate([x] * n), requires_grad=True), w, padding=1)
        dx_single = single._backward_fn(g)[0]
        dx_batch = batch._backward_fn(np.concatenate([g] * n))[0]
        for s in range(n):
            assert np.array_equal(batch.data[s], single.data[0])
            assert np.array_equal(dx_batch[s], dx_single[0])


class TestTapeMemory:
    def test_taped_conv_keeps_only_padded_input(self, rng):
        """After a taped forward, what stays alive (output included) is under twice
        the padded input plus the output; a kh*kw-fold column matrix is not."""
        x = tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
        w = tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = conv2d(x, w, padding=1)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        padded_bytes = 16 * (66 * 66 + 2) * 4
        assert out.requires_grad
        assert kept < 2 * (padded_bytes + out.data.nbytes), f"{kept} bytes kept"
