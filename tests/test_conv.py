"""Convolution semantics against a naive dense oracle."""

import tracemalloc

import numpy as np
import pytest

from dualpath_cs import ops
from dualpath_cs.autograd import no_grad, precision, tensor
from dualpath_cs.conv import conv2d, conv_transpose2x
from dualpath_cs.errors import DimensionError, GeometryError
from test_tape_bytes import _load_tool

tape_tool = _load_tool()


def naive_conv2d(x, w, b=None, stride=1):
    """Direct-loop cross-correlation, zero-padded by kernel // 2, independent of the gemm path."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    padding = kh // 2
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
        out = conv2d(x, w).data.reshape(3, 3)
        assert out[1, 1] == 9.0
        assert all(out[i, j] == 4.0 for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)])

    def test_zero_kernel_zero_output(self, rng):
        x = tensor(rng.standard_normal((1, 2, 4, 4)))
        w = tensor(np.zeros((3, 2, 3, 3)))
        assert np.all(conv2d(x, w).data == 0.0)

    def test_one_by_one_kernel_scales(self):
        x = tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = tensor(np.array([2.0]).reshape(1, 1, 1, 1))
        assert np.array_equal(conv2d(x, w).data.reshape(2, 2), [[2.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("stride,hw,k", [
        (1, (5, 5), 3), (2, (6, 6), 3), (2, (7, 7), 3), (1, (5, 9), 7), (2, (10, 7), 7), (3, (8, 10), 3),
        (3, (11, 7), 5),
    ], ids=["1-1-5", "2-1-6", "2-1-7", "1-3-5x9-k7", "2-3-10x7-k7", "3-1-8x10", "3-2-11x7-k5"])
    def test_matches_naive_oracle(self, rng, stride, hw, k):
        x = rng.standard_normal((2, 3, *hw))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        got = conv2d(tensor(x), tensor(w), tensor(b), stride=stride).data
        assert np.allclose(got, naive_conv2d(x, w, b, stride), atol=1e-4)

    def test_linearity(self, rng):
        w = tensor(rng.standard_normal((2, 1, 3, 3)).astype(np.float32))
        x = tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        y = tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        a, b = 1.7, -0.4
        combo = conv2d(tensor(a * x.data + b * y.data), w).data
        parts = a * conv2d(x, w).data + b * conv2d(y, w).data
        assert np.allclose(combo, parts, atol=1e-5)


class TestConvErrors:
    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(tensor(np.zeros((1, 1, 4, 4))), tensor(np.zeros((1, 1, 2, 2))))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(tensor(np.zeros((1, 2, 4, 4))), tensor(np.zeros((1, 3, 3, 3))))

    def test_non_square_kernel_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(tensor(np.zeros((1, 1, 4, 4))), tensor(np.zeros((1, 1, 3, 1))))

    def test_nonpositive_output_extent(self):
        with pytest.raises(GeometryError):
            conv2d(tensor(np.zeros((1, 1, 0, 2))), tensor(np.zeros((1, 1, 3, 3))))

    @pytest.mark.parametrize("stride", [1.5, 2.0, "2", None, True],
                             ids=["stride-1.5", "stride-2.0", "stride-str", "stride-None", "stride-True"])
    def test_stride_not_integer_rejected(self, stride):
        with pytest.raises(GeometryError, match="integers"):
            conv2d(tensor(np.zeros((1, 1, 4, 4))), tensor(np.zeros((1, 1, 3, 3))), stride=stride)


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
        assert conv_transpose2x(x, w, tensor(np.zeros(2))).shape == (1, 2, 10, 14)


class TestConstantParents:
    """A constant parent gets no gradient; the others' gradients are unchanged."""

    @staticmethod
    def _parent_grads(op, arrays, constant):
        parents = [tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
        out = op(*parents)
        g = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
        return out._backward_fn(g)

    @pytest.mark.parametrize("op,shapes", [
        (lambda x, w, b: conv2d(x, w, b, stride=2), [(1, 2, 7, 7), (3, 2, 3, 3), (3,)]),
        (conv_transpose2x, [(1, 3, 4, 4), (3, 2, 2, 2), (2,)]),
        (lambda x, w, b: conv2d(x, w, b, stride=2), [(2, 3, 7, 7), (4, 3, 1, 1), (4,)]),
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

    @pytest.mark.parametrize("op,shapes", [
        (lambda x, w: conv2d(x, w), [(1, 3, 8, 8), (4, 3, 3, 3)]),
        (lambda x, w: conv2d(x, w, stride=2), [(1, 3, 9, 9), (4, 3, 3, 3)]),
        (lambda x, w: conv_transpose2x(x, w, tensor(np.zeros(2, np.float32))), [(1, 3, 4, 4), (3, 2, 2, 2)]),
        (lambda x, w: conv2d(x, w, stride=2), [(2, 3, 9, 9), (4, 3, 1, 1)]),
    ], ids=["conv2d", "conv2d-stride2", "conv_transpose2x", "conv2d-k1-stride2"])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_closure_keeps_only_the_array_the_other_gradient_reads(self, rng, op, shapes, constant):
        """The input's array serves only the weight's gradient and the weight's only the input's:
        beside a constant parent, the closure keeps the constant's array and not the other's."""
        parents = [tensor(rng.standard_normal(s).astype(np.float32), requires_grad=i != constant)
                   for i, s in enumerate(shapes)]
        out = op(*parents)
        reached = {id(tape_tool._owner(a)) for a in tape_tool._closure_arrays(out._backward_fn)}
        assert id(parents[constant].data) in reached
        assert id(parents[1 - constant].data) not in reached


def dense_conv2d_f64(x, w, g, stride):
    """Output, dx and dw of a conv in float64, zero-padded by kernel // 2, from sliding windows
    and einsum, independent of the lowered row gemms; g is the output gradient."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    kh, kw = w.shape[2:]
    padding = kh // 2
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

    @pytest.mark.parametrize("cin,cout,k,stride", [(16, 16, 3, 1), (2, 1, 7, 1), (16, 32, 3, 2), (1, 16, 3, 1), (16, 1, 3, 1),
                                                   (32, 16, 3, 1)])
    def test_matches_float64(self, rng, cin, cout, k, stride):
        self._check_conv(rng, (1, cin, 64, 64), cout, k, stride)

    @pytest.mark.parametrize("shape,cout", [((1, 16, 64, 64), 16), ((1, 32, 64, 64), 16), ((4, 32, 32, 32), 16)],
                             ids=["16-16-64", "32-16-64", "4x32-16-32"])
    def test_pointwise_matches_float64(self, rng, shape, cout):
        # The model's attention projections and align conv, a skip fusion at 64x64, and a skip
        # fusion on a batch of four 32x32 tiles, whose dw sums four per-sample gemms.
        self._check_conv(rng, shape, cout, 1, 1)

    @pytest.mark.parametrize("shape,cout", [((1, 64, 16, 16), 32), ((4, 32, 16, 16), 16)], ids=["64-32-16", "4x32-16-16"])
    def test_transposed_matches_float64(self, rng, shape, cout):
        # The U-Net's two upsamplings at a 64x64 patch, and the second on four 32x32 tiles.
        cin = shape[1]
        x = rng.standard_normal(shape).astype(np.float32)
        w = (rng.standard_normal((cin, cout, 2, 2)) / np.sqrt(cin)).astype(np.float32)
        out = conv_transpose2x(tensor(x, requires_grad=True), tensor(w, requires_grad=True),
                               tensor(np.zeros(cout, np.float32), requires_grad=True))
        g = rng.standard_normal(out.shape).astype(np.float32)
        dx, dw, _ = out._backward_fn(g)
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        g_tiles = g.astype(np.float64).reshape(shape[0], cout, shape[2], 2, shape[3], 2)
        ref = (np.einsum("ncij,coab->noiajb", x64, w64).reshape(out.shape),
               np.einsum("noiajb,coab->ncij", g_tiles, w64), np.einsum("ncij,noiajb->coab", x64, g_tiles))
        self._assert_close((out.data, dx, dw), ref)

    def _check_conv(self, rng, shape, cout, k, stride):
        cin = shape[1]
        x = rng.standard_normal(shape).astype(np.float32)
        w = (rng.standard_normal((cout, cin, k, k)) / np.sqrt(cin * k * k)).astype(np.float32)
        xt, wt = tensor(x, requires_grad=True), tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=stride)
        g = rng.standard_normal(out.shape).astype(np.float32)
        dx, dw = out._backward_fn(g)
        self._assert_close((out.data, dx, dw), dense_conv2d_f64(x, w, g, stride))

    @staticmethod
    def _assert_close(results, refs):
        for got, ref in zip(results, refs, strict=True):
            assert got.dtype == np.float32 and got.shape == ref.shape
            rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert rel <= 4e-6, rel


class TestPhaseGradients:
    """A strided conv's gradients against the float64 sliding-window oracle, where the stride's
    phases of the padded input have unequal extents (odd extents, stride 3)."""

    @pytest.mark.parametrize("stride,hw,k", [
        (3, (8, 10), 3), (3, (11, 7), 5), (2, (7, 7), 1),
    ], ids=["3-1-8x10", "3-2-11x7-k5", "2-0-7-k1"])
    def test_gradients_match_dense_float64(self, rng, stride, hw, k):
        x = rng.standard_normal((2, 3, *hw))
        w = rng.standard_normal((4, 3, k, k))
        with precision("f64"):
            out = conv2d(tensor(x, requires_grad=True), tensor(w, requires_grad=True), stride=stride)
        g = rng.standard_normal(out.shape)
        for got, ref in zip((out.data, *out._backward_fn(g)), dense_conv2d_f64(x, w, g, stride)):
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0, atol=1e-12)


class TestBatchInvariance:
    @pytest.mark.parametrize("cin,cout,size,k", [
        pytest.param(32, 32, 4, 3, id="32-32-4"), pytest.param(32, 64, 4, 3, id="32-64-4"),
        pytest.param(64, 32, 4, 3, id="64-32-4"), pytest.param(32, 16, 8, 3, id="32-16-8"),
        pytest.param(16, 16, 16, 3, id="16-16-16"), pytest.param(2, 1, 32, 7, id="2-1-32-k7"),
        pytest.param(1, 16, 64, 3, id="1-16-64"), pytest.param(16, 1, 64, 3, id="16-1-64"),
        pytest.param(1, 8, 16, 1, id="1-8-16-k1"),
    ])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sample_gets_the_same_bits_in_any_batch(self, rng, cin, cout, size, k, n):
        # 2-1-32-k7 is the model's 7x7 spatial gate, whose windows overhang six rows. The one-channel
        # cases are the model's head and tail convs, and a 1x1 conv whose forward gemm contracts
        # over a single row.
        x = rng.standard_normal((1, cin, size, size)).astype(np.float32)
        w = tensor(rng.standard_normal((cout, cin, k, k)).astype(np.float32))
        g = rng.standard_normal((1, cout, size, size)).astype(np.float32)
        single = conv2d(tensor(x, requires_grad=True), w)
        batch = conv2d(tensor(np.concatenate([x] * n), requires_grad=True), w)
        dx_single = single._backward_fn(g)[0]
        dx_batch = batch._backward_fn(np.concatenate([g] * n))[0]
        for s in range(n):
            assert np.array_equal(batch.data[s], single.data[0])
            assert np.array_equal(dx_batch[s], dx_single[0])

    @pytest.mark.parametrize("cin,cout,size", [(16, 32, 8), (32, 64, 8), (16, 32, 64)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_strided_sample_gets_the_same_bits_in_any_batch(self, rng, cin, cout, size, n):
        # The model's stride-2 downsampling shapes. Each phase holds the samples' phase planes end
        # to end, so a sample's windows sit elsewhere in a larger batch; its bits must not move.
        x = rng.standard_normal((1, cin, size, size)).astype(np.float32)
        w = tensor(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32))
        single = conv2d(tensor(x, requires_grad=True), w, stride=2)
        g = rng.standard_normal(single.shape).astype(np.float32)
        batch = conv2d(tensor(np.concatenate([x] * n), requires_grad=True), w, stride=2)
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
            out = conv2d(x, w)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        padded_bytes = 16 * (66 * 66 + 2) * 4
        assert out.requires_grad
        assert kept < 2 * (padded_bytes + out.data.nbytes), f"{kept} bytes kept"

    def test_strided_conv_keeps_only_phase_planes(self, rng):
        """At stride 2, what stays alive is the four 33x33 phase planes of the padded 66x66 input,
        about as many bytes as that input, plus the output. The forward's peak stays under the
        padded input plus four outputs; a stride-1 output and one gemm temporary of it would be
        eight outputs on their own."""
        x = tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
        w = tensor(rng.standard_normal((32, 16, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = conv2d(x, w, stride=2)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded_bytes = 16 * (66 * 66 + 2) * 4
        assert out.shape == (1, 32, 32, 32) and out.requires_grad
        assert kept < 1.25 * padded_bytes + out.data.nbytes, f"{kept} bytes kept"
        assert peak < padded_bytes + 4 * out.data.nbytes, f"peak {peak} bytes"


class TestLoweredBlocks:
    def test_untaped_forward_transient_within_1_15_mb(self, rng):
        """The evaluation forward's peak sits in the 32->16 3x3 conv at 64x64. Beside the padded
        input (0.56 MB) and the wide output (0.28 MB), it builds the lowered input a block of
        columns at a time: 1.12 MB in all. A per-tap loop read 1.13 MB; the lowered input built
        whole, three shifted copies of the padded input, 2.25 MB."""
        x = tensor(rng.standard_normal((1, 32, 64, 64)).astype(np.float32))
        w = tensor(rng.standard_normal((16, 32, 3, 3)).astype(np.float32))
        with no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = conv2d(x, w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.shape == (1, 16, 64, 64)
        assert peak - before <= 1.15e6, f"{(peak - before) / 1e6:.3f} MB transient"


    @pytest.mark.parametrize("shape", [(1, 32, 64, 64), (4, 32, 32, 32)], ids=["64x64x1", "32x32x4"])
    def test_taped_backward_transient_within_1_25_mb(self, rng, shape):
        """The training peak sits in the backward of the 32->16 3x3 conv at 64x64. That backward
        releases the padded output gradient once the input-gradient correlation has read it, before
        it allocates the input gradient: 1.17 MB (64x64x1) and 1.21 MB (32x32x4), the returned
        gradients included. Holding it to the end read 1.43 and 1.47 MB."""
        x = tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        w = tensor(rng.standard_normal((16, 32, 3, 3)).astype(np.float32), requires_grad=True)
        out = conv2d(x, w)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dx, dw = out._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dx.shape == shape and dw.shape == (16, 32, 3, 3)
        assert peak - before <= 1.25e6, f"{(peak - before) / 1e6:.3f} MB transient"


def _same_bits_as_plain(op, part_arrays, axis, others, rng):
    """`op(x, *others)` with x a taped `ops.concat` of `part_arrays` along `axis` gives the same
    bits, in its output and in every gradient, as with x a leaf holding the concatenated array."""
    runs, g = [], None
    for joined in (True, False):
        params = [tensor(a, requires_grad=True, dtype=a.dtype) for a in others]
        if joined:
            pieces = [tensor(a, requires_grad=True, dtype=a.dtype) for a in part_arrays]
            x = ops.concat(pieces, axis=axis)
            assert x._parts is not None
        else:
            whole = np.concatenate(part_arrays, axis=axis)
            x = tensor(whole, requires_grad=True, dtype=whole.dtype)
        out = op(x, *params)
        if g is None:
            g = rng.standard_normal(out.shape).astype(out.dtype)
        ops.reduce_sum(ops.mul(out, tensor(g, dtype=g.dtype))).backward()
        dx = np.concatenate([p.grad for p in pieces], axis=axis) if joined else x.grad
        runs.append([out.data, dx, *(p.grad for p in params)])
    for i, (got, ref) in enumerate(zip(*runs)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref), i


class TestConcatenatedInput:
    """A taped channel concatenation reaches conv2d as its parts: the phase buffer is filled part
    by part, in the forward and in the backward's rebuild, with the bits of the concatenated array."""

    @pytest.mark.parametrize("channels,cout,k,stride", [
        pytest.param((16, 16), 16, 1, 1, id="1x1-skip"), pytest.param((3, 2), 4, 1, 2, id="1x1-s2"),
        pytest.param((1, 8, 1), 8, 3, 1, id="3x3-step-gen"), pytest.param((4, 3), 5, 3, 2, id="3x3-s2"),
        pytest.param((1, 1), 1, 7, 1, id="7x7-gate"),
    ])
    @pytest.mark.parametrize("n", [1, 3])
    def test_same_bits_as_the_concatenated_array(self, rng, channels, cout, k, stride, n):
        parts = [rng.standard_normal((n, c, 12, 12)).astype(np.float32) for c in channels]
        w = rng.standard_normal((cout, sum(channels), k, k)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        _same_bits_as_plain(lambda x, ww, bb: conv2d(x, ww, bb, stride=stride), parts, 1, [w, b], rng)

    @pytest.mark.parametrize("axis", [0, 3])
    def test_concatenation_off_the_channel_axis_is_kept_whole(self, rng, axis):
        shapes = [(1, 3, 8, 8), (2, 3, 8, 8)] if axis == 0 else [(2, 3, 8, 5), (2, 3, 8, 3)]
        parts = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        _same_bits_as_plain(lambda x, ww: conv2d(x, ww, stride=2), parts, axis, [w], rng)

    def test_phase_buffer_takes_the_inputs_dtype(self, rng):
        """A float32 part beside a float64 one makes a float64 concatenation; its phase buffer is
        float64 too, so the float32 part is not rounded on its way in."""
        parts = [rng.standard_normal((2, 2, 9, 9)).astype(np.float32), rng.standard_normal((2, 3, 9, 9))]
        w = rng.standard_normal((4, 5, 3, 3))
        _same_bits_as_plain(lambda x, ww: conv2d(x, ww), parts, 1, [w], rng)


# Bytes of Python objects a taped forward may leave besides its arrays: the node, its closure, cells.
TAPE_SLACK = 8192


def _kept_bytes(forward):
    """The op's output and the bytes a taped `forward()` leaves allocated (its parents are older)."""
    tracemalloc.start()
    try:
        out = forward()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return out, kept


def _backward_after_rebinding(op, arrays, g, rebind):
    """Gradients of `op` over fresh taped tensors of `arrays`. With `rebind`, each tensor's .data is
    bound to another array between forward and backward, as Adam.step rebinds a parameter's."""
    parents = [tensor(a, requires_grad=True) for a in arrays]
    out = op(*parents)
    if rebind:
        for p in parents:
            p.data = p.data * 2 + 1
    return out._backward_fn(g)


class TestTapeKeepsNoDerivedBuffer:
    """A backward closure keeps its parents' arrays, its output and per-row statistics. Every other
    buffer the forward derives (conv2d's phase buffer and row-ordered weights, a strided 1x1 conv's
    strided input) is rebuilt by the backward from the arrays the forward saw."""

    @pytest.mark.parametrize("stride,k", [pytest.param(1, 3, id="1"), pytest.param(2, 3, id="2"),
                                          pytest.param(1, 1, id="1-k1")])
    def test_taped_conv_keeps_only_its_output(self, rng, stride, k):
        x = tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
        w = tensor(rng.standard_normal((16, 16, k, k)).astype(np.float32), requires_grad=True)
        out, kept = _kept_bytes(lambda: conv2d(x, w, stride=stride))
        assert kept <= out.data.nbytes + TAPE_SLACK, f"{kept} bytes kept, output {out.data.nbytes}"

    def test_taped_transposed_conv_keeps_only_its_output(self, rng):
        x = tensor(rng.standard_normal((1, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = tensor(rng.standard_normal((16, 16, 2, 2)).astype(np.float32), requires_grad=True)
        b = tensor(np.zeros(16, np.float32), requires_grad=True)
        out, kept = _kept_bytes(lambda: conv_transpose2x(x, w, b))
        assert kept <= out.data.nbytes + TAPE_SLACK, f"{kept} bytes kept, output {out.data.nbytes}"

    @pytest.mark.parametrize("op,shapes", [
        (lambda x, w: conv2d(x, w), [(2, 3, 9, 9), (4, 3, 3, 3)]),
        (lambda x, w: conv2d(x, w, stride=2), [(2, 3, 9, 9), (4, 3, 3, 3)]),
        (conv_transpose2x, [(2, 3, 5, 5), (3, 4, 2, 2), (4,)]),
        (lambda x, w: conv2d(x, w, stride=2), [(2, 3, 9, 9), (4, 3, 1, 1)]),
    ], ids=["conv2d", "conv2d-stride2", "conv_transpose2x", "conv2d-k1-stride2"])
    def test_backward_reads_the_forwards_arrays(self, rng, op, shapes):
        arrays = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        out_shape = op(*(tensor(a) for a in arrays)).shape
        g = rng.standard_normal(out_shape).astype(np.float32)
        untouched = _backward_after_rebinding(op, arrays, g, rebind=False)
        rebound = _backward_after_rebinding(op, arrays, g, rebind=True)
        for a, b in zip(untouched, rebound):
            assert np.array_equal(a, b)
