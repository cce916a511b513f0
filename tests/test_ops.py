"""Primitive-op semantics plus finite-difference verification of every case."""

import inspect
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from scipy.special import erf

from dualpath_cs import conv, ops
from dualpath_cs.autograd import _op_name, backward, finite_checks, no_grad, precision, tensor
from dualpath_cs.errors import ContractError, DimensionError, NumericsError
from gradcheck import max_gradient_error
from op_cases import ALL_CASES
from test_conv import TAPE_SLACK, _same_bits_as_plain


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

    @pytest.mark.parametrize("constant", [0, 1])
    def test_mse_constant_parent_gets_none(self, rng, constant):
        # A training step's target is a constant: a gradient for it would only be dropped.
        arrays = [rng.standard_normal((2, 3, 4)).astype(np.float32) for _ in range(2)]
        g = np.float32(1.5)
        full = ops.mse(*(tensor(a, requires_grad=True) for a in arrays))._backward_fn(g)
        parents = [tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        skipped = ops.mse(*parents)._backward_fn(g)
        assert skipped[constant] is None
        assert np.array_equal(skipped[1 - constant], full[1 - constant])


def _kept_after_dropping_input(rng, activation):
    """(output, bytes left allocated) after `activation` of a taped op output whose Tensor is then
    dropped, so only what the activation's closure keeps holds its input."""
    x = tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        h = ops.add(x, 0.0)
        out = activation(h)
        del h
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return out, kept


class TestActivationTape:
    """An activation keeps one array on the tape: gelu its slope, relu nothing beyond its output."""

    def test_gelu_keeps_its_slope_not_its_input(self, rng):
        # The output and the slope; the input and its cdf would make three.
        out, kept = _kept_after_dropping_input(rng, ops.gelu)
        assert kept <= 2 * out.data.nbytes + TAPE_SLACK, f"{kept} bytes kept, output {out.data.nbytes}"

    def test_relu_keeps_only_its_output(self, rng):
        out, kept = _kept_after_dropping_input(rng, ops.relu)
        assert kept <= out.data.nbytes + TAPE_SLACK, f"{kept} bytes kept, output {out.data.nbytes}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_gradient_is_the_slope_from_its_input(self, rng, dtype):
        x = (rng.standard_normal(500) * 3).astype(dtype)
        g = rng.standard_normal(500).astype(dtype)
        cdf = 0.5 * (1.0 + erf(x * ops._INV_SQRT2))
        pdf = np.exp(-0.5 * x * x) * ops._INV_SQRT2PI
        (dx,) = ops.gelu(tensor(x, requires_grad=True, dtype=dtype))._backward_fn(g)
        assert dx.dtype == dtype
        assert np.array_equal(dx, g * (cdf + x * pdf))

    def test_relu_gradient_masks_where_the_input_is_positive(self):
        x = np.array([-1.0, -0.0, 0.0, 1e-30, np.nan, 2.0], dtype=np.float32)
        (dx,) = ops.relu(tensor(x, requires_grad=True))._backward_fn(np.ones(6, dtype=np.float32))
        assert np.array_equal(dx, (x > 0).astype(np.float32))

    def test_inf_gelu_input_fails_its_forward_check_without_warning(self):
        x = tensor([1.0, np.inf], requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with finite_checks(), pytest.raises(NumericsError, match="forward of gelu"):
                ops.gelu(x)


class TestConcatenationParts:
    """A taped concatenation records its parts' arrays, and mul keeps them in place of the copy,
    rebuilding the concatenation in its backward."""

    def test_taped_concatenation_records_its_parts(self, rng):
        a, b = (tensor(rng.standard_normal((1, c, 2, 2)), requires_grad=True) for c in (1, 2))
        arrays, axis = ops.concat([a, b], axis=-3)._parts
        assert axis == 1 and arrays[0] is a.data and arrays[1] is b.data

    def test_untaped_concatenation_records_nothing(self, rng):
        a, b = (tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True) for _ in range(2))
        with no_grad():
            assert ops.concat([a, b], axis=1)._parts is None
        assert ops.concat([tensor(a.data), tensor(b.data)], axis=1)._parts is None

    @pytest.mark.parametrize("shapes,axis,other", [
        pytest.param([(1, 2, 5, 5), (1, 16, 5, 5), (1, 1, 5, 5)], 1, (1, 19, 1, 1), id="step-gen-gate"),
        pytest.param([(1, 1, 1, 1), (1, 2, 1, 1)], 1, (1, 3, 4, 4), id="broadcast"),
        pytest.param([(1, 3, 2, 4), (1, 3, 2, 4)], 3, (1, 3, 2, 8), id="last-axis"),
    ])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("first", [True, False], ids=["concat-first", "concat-second"])
    def test_mul_same_bits_as_the_concatenated_array(self, rng, shapes, axis, other, n, first):
        parts = [rng.standard_normal((n, *s[1:])).astype(np.float32) for s in shapes]
        y = rng.standard_normal((n, *other[1:])).astype(np.float32)
        op = (lambda x, yy: ops.mul(x, yy)) if first else (lambda x, yy: ops.mul(yy, x))
        _same_bits_as_plain(op, parts, axis, [y], rng)


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
            fused = ops.scaled_dot_attention(q, k, v, ops.KeyPlan(np.ones((1, 7))))
            scores = ops.mul(ops.matmul(q, ops.transpose(k, (1, 0))), 1.0 / np.sqrt(3))
            composed = ops.matmul(ops.softmax(scores, axis=1), v)
            assert np.allclose(fused.data, composed.data, atol=1e-12)

    def test_key_shift_leaves_output_unchanged(self, rng):
        # A shift b of every key adds q_i . b to all of score row i; softmax ignores it.
        with precision("f64"):
            q, k, v = (rng.standard_normal((9, 4)) for _ in range(3))
            shift = rng.standard_normal((1, 4))
            plan = ops.KeyPlan(np.ones((1, 9)))
            base = ops.scaled_dot_attention(tensor(q), tensor(k), tensor(v), plan)
            shifted = ops.scaled_dot_attention(tensor(q), tensor(k + shift), tensor(v), plan)
            assert np.allclose(shifted.data, base.data, rtol=0, atol=1e-12)

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
        # 70 and 130 tokens span two and three chunks.
        with precision("f64"):
            arrays = [2.0 * rng.standard_normal((t, 3)) for _ in range(3)]
            weight = rng.standard_normal((t, 3))
            fused = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(np.ones((1, t)))), arrays, weight)
            reference = self._forward_backward(self._composed(np.ones(t), 3), arrays, weight)
        for got, expect in zip(fused, reference):
            assert np.allclose(got, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("t", [5, 64, 70, 130])
    def test_masked_matches_op_composition(self, rng, t, fraction):
        # Every key stays in the softmax denominator; only kept keys' values reach the output.
        self._check_masked(rng, (rng.permutation(t) < round(fraction * t)).astype(np.float64))

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
            fused = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep[None])), arrays, weight)
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
            fused = self._forward_backward(lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep[None])), arrays, weight)
        with precision("f64"):
            reference = self._forward_backward(self._composed(keep, d), arrays, weight)
        assert self._wide_rows(arrays[0].astype(np.float32), arrays[1].astype(np.float32), np.float32) == wide
        for got, expect in zip(fused, reference):
            assert got.dtype == np.float32
            rel = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
            assert rel <= bound, rel

    def test_float32_matches_float64_at_1024_tokens(self, rng):
        # A 32x32 image's token count in 16 chunks, half the keys kept, and no row on the
        # exact max: each output and gradient sums 1024 float32 terms. The f64 op is the reference;
        # the tests above hold it to the op composition. The bound is about twice the largest error,
        # relative to the largest magnitude, that the earlier query-major layout of this op (a row
        # per query in each chunk buffer) had on such inputs: 9.5e-7 over seeds 0-2.
        t, d = 1024, 16
        keep = (rng.permutation(t) < t // 2).astype(np.float64)
        arrays = [rng.standard_normal((t, d)) for _ in range(3)]
        weight = rng.standard_normal((t, d))
        attend = lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep[None]))
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
        # 64 chunks, against the f64 op. The bound is about twice the largest error,
        # relative to the largest magnitude, that the natural-base form of this op (exp, and the
        # dropped-key rows of p scaled by -rowdot) had on these inputs: 9.4e-7, on the output.
        t, d = 4096, 16
        keep = (rng.permutation(t) < t // 2).astype(np.float64)
        arrays = [rng.standard_normal((t, d)) for _ in range(3)]
        weight = rng.standard_normal((t, d))
        attend = lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep[None]))
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
            ops.scaled_dot_attention(q, k, v, ops.KeyPlan(np.ones(shape)))

    def test_samples_attend_only_to_their_own_keys(self, rng):
        # Three samples of 70 tokens (two chunks each), each keeping 42 keys, stacked: output and
        # gradients equal each sample's own attention, bit for bit.
        keep = np.stack([rng.permutation(70) < 42 for _ in range(3)]).reshape(3, 1, 7, 10).astype(np.float64)
        self._check_stacked(keep, [rng.standard_normal((210, 4)) for _ in range(3)], rng.standard_normal((210, 4)))

    def test_stacked_wide_rows_match_each_sample_alone(self, rng):
        # Only the second of two samples has rows whose shift bound passes 177 (f64): the exact-max
        # pass runs over both samples' query chunks and must leave the first one's bound shifts as
        # they were.
        keep = np.stack([rng.permutation(70) < 30 for _ in range(2)]).astype(np.float64)
        arrays = [np.concatenate([2.0 * rng.standard_normal((70, 3)), 6.0 * rng.standard_normal((70, 3))])
                  for _ in range(3)]
        q, k, _ = arrays
        assert [self._wide_rows(q[rows], k[rows], np.float64) for rows in (slice(70), slice(70, None))] == ["none", "some"]
        self._check_stacked(keep, arrays, rng.standard_normal((140, 3)))

    def _check_stacked(self, keep, arrays, weight):
        """Each sample of the stacked attention under `keep` [N, ...] gives, bit for bit, what it gives alone."""
        t = keep[0].size
        with precision("f64"):
            def run(mask, rows):
                attend = lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(mask))
                return self._forward_backward(attend, [a[rows] for a in arrays], weight[rows])

            stacked = run(keep, slice(None))
            for s in range(len(keep)):
                rows = slice(t * s, t * (s + 1))
                for got, expect in zip(stacked, run(keep[s:s + 1], rows)):
                    assert np.array_equal(got[rows], expect)

    def test_memory_linear_in_tokens(self, rng):
        t, d = 4096, 16
        q, k, v = (tensor(rng.standard_normal((t, d)).astype(np.float32), requires_grad=True) for _ in range(3))
        weight = tensor(rng.standard_normal((t, d)).astype(np.float32))
        keep = (np.arange(t) < t // 2)[None]
        tracemalloc.start()
        try:
            backward(ops.reduce_sum(ops.mul(ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep)), weight)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.all(np.isfinite(x.grad)) for x in (q, k, v))
        # A kept T x T probability matrix alone would be 8x this bound.
        assert peak < t * t * 4 // 8, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n,t", [(4, 1024), (1, 4096)], ids=["4x1024", "1x4096"])
    def test_backward_frees_its_score_buffers_before_its_scatters(self, rng, n, t):
        """The backward's peak, its three returned gradients included, with half of each sample's
        keys kept. It releases the chunk buffers of probabilities and their gradients before it
        allocates the dk and dv it scatters into: 2.67 MB at both extents; holding them to the end
        read 3.19 MB."""
        d = 16
        q, k, v = (tensor(rng.standard_normal((n * t, d)).astype(np.float32), requires_grad=True) for _ in range(3))
        keep = np.array([rng.permutation(np.arange(t) < t // 2) for _ in range(n)])
        out = ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep))
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            grads = out._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(grad.shape == (n * t, d) for grad in grads)
        assert peak <= 2.9e6, f"peak {peak / 1e6:.3f} MB"


class TestKeyPlan:
    def test_order_puts_each_samples_kept_keys_first(self):
        plan = ops.KeyPlan(np.array([[0.0, 1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0]]))
        assert plan.order.dtype == np.int32
        assert plan.order.tolist() == [[1, 3, 4, 0, 2], [0, 2, 4, 1, 3]]
        assert plan.kept == 3

    def test_samples_keeping_different_counts_rejected(self):
        with pytest.raises(ContractError, match="same count, got 2 to 3"):
            ops.KeyPlan(np.array([[0.0, 1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1.0]]))

    def test_mask_without_sample_axis_rejected(self):
        with pytest.raises(DimensionError, match="sample axis"):
            ops.KeyPlan(np.ones(4))

    def test_ragged_mask_rejected(self):
        with pytest.raises(ContractError, match="real-valued"):
            ops.KeyPlan([[1.0, 0.0], [1.0]])

    def test_empty_mask_rejected(self):
        # Its rows did not reshape: a bare ValueError.
        with pytest.raises(DimensionError, match="empty"):
            ops.KeyPlan(np.ones((0, 4)))

    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_mask_value_other_than_0_or_1_rejected(self, value):
        with pytest.raises(ContractError, match="only 0"):
            ops.KeyPlan(np.array([[1.0, 0.0, value, 1.0]]))

    def test_raw_mask_as_plan_rejected(self, rng):
        q, k, v = (tensor(rng.standard_normal((4, 2))) for _ in range(3))
        with pytest.raises(ContractError, match="KeyPlan"):
            ops.scaled_dot_attention(q, k, v, np.ones((1, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plan_gives_the_bits_of_its_mask(self, rng, dtype):
        # Two samples of 20 tokens: the plan built once gives every call the bits of a plan built
        # afresh for the call, output and gradients, and so does a mask in another dtype.
        keep = (rng.random((2, 1, 4, 5)) < 0.5).astype(np.float32)
        arrays = [rng.standard_normal((40, 3)).astype(dtype) for _ in range(3)]
        weight = rng.standard_normal((40, 3)).astype(dtype)
        plan = ops.KeyPlan(tensor(keep))
        with precision("f64" if dtype == np.float64 else "f32"):
            by_mask = TestAttention._forward_backward(
                lambda q, k, v: ops.scaled_dot_attention(q, k, v, ops.KeyPlan(keep.astype(dtype))), arrays, weight)
            for _ in range(2):
                by_plan = TestAttention._forward_backward(
                    lambda q, k, v: ops.scaled_dot_attention(q, k, v, plan), arrays, weight)
                assert all(np.array_equal(a, b) for a, b in zip(by_plan, by_mask))


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

    def test_reduce_max_closure_keeps_only_the_input(self, rng):
        # The backward finds the argmax again, so the tape holds no index array.
        x = tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        cells = [c.cell_contents for c in ops.reduce_max(x, axis=1)._backward_fn.__closure__]
        arrays = [v for v in cells if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is x.data

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(DimensionError):
            ops.concat([tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4)))], axis=0)

    def test_concat_of_nothing_rejected(self):
        with pytest.raises(DimensionError, match="at least one"):
            ops.concat([], axis=0)

    @pytest.mark.parametrize("axis", [2, -3, 1.0, True, None])
    def test_concat_axis_outside_the_rank_rejected(self, axis):
        a, b = tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match="axis"):
            ops.concat([a, b], axis=axis)

    @pytest.mark.parametrize("axes", [(0,), (0, 0), (0, 2), (1, -1), (0.0, 1.0), 0, None])
    def test_transpose_axes_not_a_permutation_rejected(self, axes):
        with pytest.raises(DimensionError, match="axes"):
            ops.transpose(tensor(np.zeros((2, 3))), axes)

    @pytest.mark.parametrize("shape", [(4,), (4, -1), (-1, -1), (0, -1), (-2, -3), (6.0,), 6, None])
    def test_reshape_to_another_size_rejected(self, shape):
        with pytest.raises(DimensionError, match="reshape"):
            ops.reshape(tensor(np.zeros((2, 3))), shape)

    @pytest.mark.parametrize("shape", [(6,), (3, -1), (-1,), (1, 2, 3)])
    def test_reshape_to_the_same_size_keeps_the_values(self, shape):
        a = tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(ops.reshape(a, shape).data, np.arange(6.0).reshape(shape))


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
                stack = [build(*(tensor(a, requires_grad=True) for a in arrays))._node]
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
