"""Primitive-op semantics plus finite-difference verification of every case."""

import inspect
import tracemalloc
import zlib

import numpy as np
import pytest

from dualpath_cs import conv, ops
from dualpath_cs.autograd import _op_name, backward, precision, tensor
from dualpath_cs.errors import DimensionError
from gradcheck import max_gradient_error
from op_cases import ALL_CASES


class TestSoftmax:
    def test_symmetry(self):
        out = ops.softmax(tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = ops.softmax(tensor([1000.0, 1000.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = ops.softmax(tensor([np.log(1.0), np.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-6)

    def test_sums_to_one_property(self, rng):
        for _ in range(20):
            shape = tuple(rng.integers(1, 6, size=2))
            x = tensor(rng.standard_normal(shape) * rng.uniform(1, 500))
            out = ops.softmax(x, axis=1)
            assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(out.data >= 0) and np.all(out.data <= 1 + 1e-6)

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            ops.softmax(tensor(np.zeros((2, 0))), axis=1)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(tensor([0.0])).item() == 0.5

    def test_sigmoid_saturation_is_stable(self):
        out = ops.sigmoid(tensor([-500.0, 500.0]))
        assert np.all(np.isfinite(out.data))

    def test_relu(self):
        assert np.array_equal(ops.relu(tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_gelu_reference_values(self):
        # gelu(0) = 0; gelu(x) ~ x for large x; gelu(-large) ~ 0
        out = ops.gelu(tensor([0.0, 6.0, -6.0]))
        assert np.allclose(out.data, [0.0, 6.0, 0.0], atol=1e-6)

    def test_mse_identical_inputs(self, rng):
        x = tensor(rng.standard_normal((3, 4)))
        assert ops.mse(x, x).item() == 0.0

    def test_mse_value(self):
        a = tensor(np.zeros(4))
        b = tensor(np.full(4, 0.5))
        assert np.isclose(ops.mse(a, b).item(), 0.25)

    def test_mse_of_empty_tensors_rejected(self):
        # numpy would warn "Mean of empty slice" and return nan.
        with pytest.raises(DimensionError):
            ops.mse(tensor(np.zeros((0, 4))), tensor(np.zeros((0, 4))))

    @pytest.mark.parametrize("constant", [0, 1])
    @pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul])
    def test_constant_parent_gets_none(self, rng, op, constant):
        arrays = [rng.standard_normal((2, 3, 4)).astype(np.float32), rng.standard_normal((3, 1)).astype(np.float32)]
        g = rng.standard_normal((2, 3, 4)).astype(np.float32)
        full = op(*(tensor(a, requires_grad=True) for a in arrays))._backward_fn(g)
        parents = [tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        skipped = op(*parents)._backward_fn(g)
        assert skipped[constant] is None
        assert np.array_equal(skipped[1 - constant], full[1 - constant])


class TestPooling:
    def test_gap_mean(self):
        x = tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert np.isclose(ops.global_avg_pool(x).item(), 2.5)

    def test_gap_constant(self):
        x = tensor(np.full((1, 3, 4, 4), 7.25))
        assert np.allclose(ops.global_avg_pool(x).data, 7.25)

    def test_gap_per_channel(self):
        x = tensor(np.array([[0.0, 2.0], [10.0, 30.0]]).reshape(1, 2, 1, 2))
        assert np.allclose(ops.global_avg_pool(x).data.reshape(2), [1.0, 20.0])


class TestLayerNorm:
    def test_normalizes_channel_axis(self, rng):
        x = tensor(rng.standard_normal((1, 8, 2, 2)) * 3 + 5)
        gain = tensor(np.ones(8))
        shift = tensor(np.zeros(8))
        out = ops.layer_norm(x, gain, shift).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("shape", [(4, 8), (2, 8, 4)])
    def test_rank_other_than_four_rejected(self, shape):
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            ops.layer_norm(tensor(np.zeros(shape)), tensor(np.ones(8)), tensor(np.zeros(8)))

    def test_tape_keeps_only_output_and_row_statistics(self, rng):
        """xhat is rebuilt by the backward; the tape keeps the output, mu and inv (one per pixel),
        and under 8 KiB of Python objects."""
        x = tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
        gain = tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)
        shift = tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ops.layer_norm(x, gain, shift)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        statistics = 2 * 64 * 64 * 4
        assert out.requires_grad
        assert kept <= out.data.nbytes + statistics + 8192, f"{kept} bytes kept"

    def test_backward_reads_the_forwards_arrays(self, rng):
        """Rebinding the input's and the gain's .data after the forward, as Adam.step rebinds a
        parameter's, leaves every gradient bit for bit the same."""
        arrays = [rng.standard_normal(s).astype(np.float32) for s in ((1, 8, 3, 5), (8,), (8,))]
        g = rng.standard_normal((1, 8, 3, 5)).astype(np.float32)
        grads = []
        for rebind in (False, True):
            parents = [tensor(a, requires_grad=True) for a in arrays]
            out = ops.layer_norm(*parents)
            if rebind:
                for p in parents:
                    p.data = p.data * 2 + 1
            grads.append(out._backward_fn(g))
        for a, b in zip(*grads):
            assert np.array_equal(a, b)


class TestBilinearResize:
    def test_half_scale_is_block_mean(self, rng):
        # half-pixel centers at scale 1/2 sample midway between pixel pairs
        x = rng.standard_normal((1, 1, 4, 6))
        out = ops.bilinear_resize(tensor(x)).data
        expect = x.reshape(1, 1, 2, 2, 3, 2).mean(axis=(3, 5))
        assert np.allclose(out, expect, atol=1e-6)

    @pytest.mark.parametrize("hw", [(3, 4), (4, 5), (0, 4)])
    def test_odd_or_empty_extent_rejected(self, hw):
        with pytest.raises(DimensionError):
            ops.bilinear_resize(tensor(np.zeros((1, 1) + hw)))


class TestAttention:
    def test_matches_op_composition(self, rng):
        with precision("f64"):
            q, k, v = (tensor(rng.standard_normal((7, 3))) for _ in range(3))
            fused = ops.scaled_dot_attention(q, k, v, np.ones((1, 7)))
            scores = ops.mul(ops.matmul(q, ops.transpose(k, (1, 0))), 1.0 / np.sqrt(3))
            composed = ops.matmul(ops.softmax(scores, axis=1), v)
            assert np.allclose(fused.data, composed.data, atol=1e-12)

    def test_key_shift_leaves_output_unchanged(self, rng):
        # A shift b of every key adds q_i . b to all of score row i; softmax ignores it.
        with precision("f64"):
            q, k, v = (rng.standard_normal((9, 4)) for _ in range(3))
            shift = rng.standard_normal((1, 4))
            base = ops.scaled_dot_attention(tensor(q), tensor(k), tensor(v), np.ones((1, 9)))
            shifted = ops.scaled_dot_attention(tensor(q), tensor(k + shift), tensor(v), np.ones((1, 9)))
            assert np.allclose(shifted.data, base.data, rtol=0, atol=1e-12)

    def test_chunking_invariance(self, rng):
        with precision("f64"):
            q, k, v = (tensor(rng.standard_normal((9, 4))) for _ in range(3))
            a = ops.scaled_dot_attention(q, k, v, np.ones((1, 9)), chunk=3)
            b = ops.scaled_dot_attention(q, k, v, np.ones((1, 9)), chunk=512)
            assert np.allclose(a.data, b.data, atol=1e-14)

    @staticmethod
    def _forward_backward(attend, arrays, weight):
        """Output, then the gradients of q, k and v, of sum(weight ⊙ attend(q, k, v))."""
        q, k, v = (tensor(a, requires_grad=True) for a in arrays)
        out = attend(q, k, v)
        backward(ops.reduce_sum(ops.mul(out, tensor(weight))))
        return out.data, q.grad, k.grad, v.grad

    @staticmethod
    def _composed(keep, d):
        def attend(q, k, v):
            scores = ops.mul(ops.matmul(q, ops.transpose(k, (1, 0))), 1.0 / np.sqrt(d))
            return ops.matmul(ops.softmax(scores, axis=1), ops.mul(v, tensor(keep[:, None])))

        return attend

    @staticmethod
    def _wide_rows(q, k, dtype):
        """"none", "some" or "all": which rows have a softmax shift bound |q_i| max_j |k_j| / sqrt(d)
        past the op's safe limit, and so shift by their exact max."""
        bound = np.linalg.norm(q, axis=1) * np.linalg.norm(k, axis=1).max() / np.sqrt(q.shape[1])
        over = bound > -np.log(np.finfo(dtype).tiny) / 4
        return "all" if over.all() else "some" if over.any() else "none"

    @pytest.mark.parametrize("t", [5, 64, 70, 130])
    def test_gradients_match_op_composition(self, rng, t):
        # 70 and 130 tokens span two and three default chunks.
        with precision("f64"):
            arrays = [2.0 * rng.standard_normal((t, 3)) for _ in range(3)]
            weight = rng.standard_normal((t, 3))
            fused = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, np.ones((1, t))), arrays, weight)
            reference = self._forward_backward(self._composed(np.ones(t), 3), arrays, weight)
        for got, expect in zip(fused, reference):
            assert np.allclose(got, expect, rtol=0, atol=1e-12)

    def test_chunk_size_leaves_gradients_unchanged(self, rng):
        with precision("f64"):
            arrays = [rng.standard_normal((70, 4)) for _ in range(3)]
            weight = rng.standard_normal((70, 4))
            keep = np.ones((1, 70))
            small = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, keep, chunk=3), arrays, weight)
            default = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, keep), arrays, weight)
        for a, b in zip(small, default):
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("t", [5, 64, 70, 130])
    def test_masked_matches_op_composition(self, rng, t, fraction):
        # Every key stays in the softmax denominator; only kept keys' values reach the output.
        self._check_masked(rng, (rng.permutation(t) < round(fraction * t)).astype(np.float64))

    def test_weighted_keep_scales_values(self, rng):
        keep = rng.uniform(0.5, 2.0, 70) * (rng.permutation(70) < 30)
        self._check_masked(rng, keep)

    @pytest.mark.parametrize("scale, wide", [(6.0, "some"), (20.0, "all")])
    def test_wide_rows_match_op_composition(self, rng, scale, wide):
        # Rows whose shift bound passes 177 (f64) shift by their exact max, the others by the bound.
        q, k, _ = self._check_masked(rng, (rng.permutation(70) < 30).astype(np.float64), scale)
        assert self._wide_rows(q, k, np.float64) == wide

    def _check_masked(self, rng, keep, scale=2.0):
        t = keep.size
        with precision("f64"), np.errstate(over="raise", divide="raise", invalid="raise"):
            arrays = [scale * rng.standard_normal((t, 3)) for _ in range(3)]
            weight = rng.standard_normal((t, 3))
            fused = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, keep[None]), arrays, weight)
            reference = self._forward_backward(self._composed(keep, 3), arrays, weight)
        # Scores, and with them their rounding, grow as scale squared.
        for got, expect in zip(fused, reference):
            assert np.allclose(got, expect, rtol=0, atol=1e-12 * (scale / 2) ** 2)
        return arrays

    # Large scores cost float32 digits whatever the shift: a rounding of s in a score s - m moves a
    # probability by |s| float32 roundoffs. So each bound is about twice the error, relative to the
    # largest magnitude, that the row-max form of this op had on the same inputs (measured there:
    # 4.2e-7, 7.1e-7 and 1.5e-4); a bad shift would lose digits beyond it or overflow.
    @pytest.mark.parametrize("scale, wide, bound", [(0.5, "none", 1e-6), (2.0, "some", 1.5e-6), (30.0, "all", 3e-4)])
    def test_float32_matches_float64(self, rng, scale, wide, bound):
        t, d = 300, 8
        keep = (rng.permutation(t) < 120).astype(np.float64)
        arrays = [scale * rng.standard_normal((t, d)) for _ in range(3)]
        weight = rng.standard_normal((t, d))
        with precision("f32"), np.errstate(over="raise", divide="raise", invalid="raise"):
            fused = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, keep[None]), arrays, weight)
        with precision("f64"):
            reference = self._forward_backward(self._composed(keep, d), arrays, weight)
        assert self._wide_rows(arrays[0].astype(np.float32), arrays[1].astype(np.float32), np.float32) == wide
        for got, expect in zip(fused, reference):
            assert got.dtype == np.float32
            rel = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
            assert rel <= bound, rel

    def test_float32_matches_float64_at_1024_tokens(self, rng):
        # A 32x32 image's token count in 16 default chunks, half the keys kept, and no row on the
        # exact max: each output and gradient sums 1024 float32 terms. The f64 op is the reference;
        # the tests above hold it to the op composition. The bound is about twice the largest error,
        # relative to the largest magnitude, that the earlier query-major layout of this op (a row
        # per query in each chunk buffer) had on such inputs: 9.5e-7 over seeds 0-2.
        t, d = 1024, 16
        keep = (rng.permutation(t) < t // 2).astype(np.float64)
        arrays = [rng.standard_normal((t, d)) for _ in range(3)]
        weight = rng.standard_normal((t, d))
        attend = lambda q, k, v: ops.scaled_dot_attention(q, k, v, keep[None])
        with precision("f32"), np.errstate(over="raise", divide="raise", invalid="raise"):
            fused = self._forward_backward(attend, arrays, weight)
        with precision("f64"):
            reference = self._forward_backward(attend, arrays, weight)
        assert self._wide_rows(arrays[0].astype(np.float32), arrays[1].astype(np.float32), np.float32) == "none"
        for got, expect in zip(fused, reference):
            assert got.dtype == np.float32
            rel = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
            assert rel <= 2e-6, rel

    def test_float32_matches_float64_at_4096_tokens(self, rng):
        # The train64 benchmark's attention: a 64x64 image's tokens, d = 16, half the keys kept, in
        # 64 default chunks, against the f64 op. The bound is about twice the largest error,
        # relative to the largest magnitude, that the natural-base form of this op (exp, and the
        # dropped-key rows of p scaled by -rowdot) had on these inputs: 9.4e-7, on the output.
        t, d = 4096, 16
        keep = (rng.permutation(t) < t // 2).astype(np.float64)
        arrays = [rng.standard_normal((t, d)) for _ in range(3)]
        weight = rng.standard_normal((t, d))
        attend = lambda q, k, v: ops.scaled_dot_attention(q, k, v, keep[None])
        with precision("f32"), np.errstate(over="raise", divide="raise", invalid="raise"):
            fused = self._forward_backward(attend, arrays, weight)
        with precision("f64"):
            reference = self._forward_backward(attend, arrays, weight)
        assert self._wide_rows(arrays[0].astype(np.float32), arrays[1].astype(np.float32), np.float32) == "none"
        for got, expect in zip(fused, reference):
            assert got.dtype == np.float32
            rel = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
            assert rel <= 2e-6, rel

    @pytest.mark.parametrize("shape", [(1, 4), (1, 6), (5,)], ids=["4", "6", "no-sample-axis"])
    def test_keep_size_must_match_tokens(self, rng, shape):
        # A 1-d mask has no sample axis, even with one element per token.
        q, k, v = (tensor(rng.standard_normal((5, 2))) for _ in range(3))
        with pytest.raises(DimensionError):
            ops.scaled_dot_attention(q, k, v, np.ones(shape))

    def test_samples_attend_only_to_their_own_keys(self, rng):
        # Three samples of 70 tokens (two chunks each) stacked: output and
        # gradients equal each sample's own attention, bit for bit.
        keep = (rng.random((3, 1, 7, 10)) < 0.6).astype(np.float64)
        with precision("f64"):
            arrays = [rng.standard_normal((210, 4)) for _ in range(3)]
            weight = rng.standard_normal((210, 4))

            def run(mask, rows):
                attend = lambda q, k, v: ops.scaled_dot_attention(q, k, v, mask)
                return self._forward_backward(attend, [a[rows] for a in arrays], weight[rows])

            stacked = run(keep, slice(None))
            for s in range(3):
                rows = slice(70 * s, 70 * (s + 1))
                for got, expect in zip(stacked, run(keep[s], rows)):
                    assert np.array_equal(got[rows], expect)

    def test_memory_linear_in_tokens(self, rng):
        t, d = 4096, 16
        q, k, v = (tensor(rng.standard_normal((t, d)).astype(np.float32), requires_grad=True) for _ in range(3))
        weight = tensor(rng.standard_normal((t, d)).astype(np.float32))
        keep = (np.arange(t) < t // 2)[None]
        tracemalloc.start()
        try:
            backward(ops.reduce_sum(ops.mul(ops.scaled_dot_attention(q, k, v, keep), weight)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.all(np.isfinite(x.grad)) for x in (q, k, v))
        # A kept T x T probability matrix alone would be 8x this bound.
        assert peak < t * t * 4 // 8, f"peak {peak / 2**20:.1f} MiB"


class TestMatmul:
    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_parent_gets_none(self, rng, constant):
        arrays = [rng.standard_normal((2, 3, 4)).astype(np.float32), rng.standard_normal((4, 5)).astype(np.float32)]
        g = rng.standard_normal((2, 3, 5)).astype(np.float32)
        full = ops.matmul(*(tensor(a, requires_grad=True) for a in arrays))._backward_fn(g)
        parents = [tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        skipped = ops.matmul(*parents)._backward_fn(g)
        assert skipped[constant] is None
        assert np.array_equal(skipped[1 - constant], full[1 - constant])


class TestReductions:
    def test_reduce_max_tie_routes_first(self):
        from dualpath_cs.autograd import backward

        x = tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        out = ops.reduce_max(x, axis=1)
        backward(ops.reduce_sum(out))
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(DimensionError):
            ops.concat([tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4)))], axis=0)


class TestGradients:
    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_finite_difference(self, name):
        with precision("f64"):
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            build, arrays = ALL_CASES[name](rng)
            err = max_gradient_error(build, arrays)
        assert err < 1e-4, f"{name}: max relative gradient error {err:.3e}"

    def test_cases_reach_every_op(self):
        # An op records its own tape node when it calls make; one that only composes others
        # (global_avg_pool is reduce_mean) is covered through them.
        public = {
            name for module in (ops, conv) for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_") and "make" in fn.__code__.co_names
        }
        # neg has no caller in the package. It is deleted together with its entry in the benchmark
        # tracer's OP_GROUPS, whose lookup would fail without it; until then no case covers it.
        exempt = {"neg"}
        reached = set()
        with precision("f64"):
            for name, case in ALL_CASES.items():
                build, arrays = case(np.random.default_rng(zlib.crc32(name.encode())))
                stack = [build(*(tensor(a, requires_grad=True) for a in arrays))]
                seen = set()
                while stack:
                    node = stack.pop()
                    if id(node) in seen or node._backward_fn is None:
                        continue
                    seen.add(id(node))
                    reached.add(_op_name(node._backward_fn))
                    stack.extend(node._parents)
        assert public - exempt <= reached, sorted(public - exempt - reached)
        assert exempt.isdisjoint(reached), "an exempt op is covered now: drop its exemption"
