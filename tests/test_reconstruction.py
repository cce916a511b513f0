"""Unrolled-stage semantics: step maps, gradient step, attention limits, U-Net."""

import tracemalloc

import numpy as np
import pytest

from dualpath_cs import ops
from dualpath_cs.autograd import Tensor, backward, no_grad, precision, tensor
from dualpath_cs.conv import conv2d
from dualpath_cs.errors import ConfigError, ContractError, GeometryError, ResourceError
from dualpath_cs.hyperprior import GuidanceBundle, HyperpriorSignal
from dualpath_cs.model import DualPathModel
from dualpath_cs.reconstruction import (
    TOKEN_CAP,
    HardMaskedAttention,
    SoftGuidedUNet,
    StepSizeGenerator,
    hgdm_step,
    stage_factor,
)
from dualpath_cs.sampling import BlockSensingMatrix, DualSampler, sample
from dualpath_cs.training import TrainConfig, build_model
from gradcheck import max_gradient_error, numeric_gradients


def orthonormal_dual_sampler(block_size, seed):
    """Full-rate sampler whose stacked rows are orthonormal (phi phiT = I)."""
    n = block_size * block_size
    rng = np.random.default_rng(seed)
    stacked = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(stacked.T)
    rows = q.T.astype(np.float64)
    half = n // 2
    return DualSampler(
        BlockSensingMatrix(half, block_size, rows[:half].copy()),
        BlockSensingMatrix(n - half, block_size, rows[half:].copy()),
    )


def gram_terms(sampler, y1, y2, hw):
    """(G, b) = (phi1T phi1 + phi2T phi2, phi1T y1 + phi2T y2) for hgdm_step."""
    gram = ops.add(sampler.phi1.gram(), sampler.phi2.gram())
    back = ops.add(sampler.phi1.adjoint(y1, hw), sampler.phi2.adjoint(y2, hw))
    return gram, back


def two_stream_step(x, y1, y2, sampler, p):
    """Oracle: x - p * (phi1T(phi1 x - y1) + phi2T(phi2 x - y2)), one stream at a time."""
    hw = (x.shape[2], x.shape[3])
    grads = [phi.adjoint(ops.sub(phi.apply(x), y), hw)
             for phi, y in ((sampler.phi1, y1), (sampler.phi2, y2))]
    return ops.sub(x, ops.mul(p, ops.add(grads[0], grads[1])))


def stacked_residual_norm(sampler, x, y1, y2):
    s1, s2 = sample(sampler, x)
    r1 = s1.data - y1.data
    r2 = s2.data - y2.data
    return float(np.sqrt(np.sum(r1 * r1) + np.sum(r2 * r2)))


class TestStageFactor:
    def test_final_stage_is_one(self):
        assert np.all(stage_factor(10, 10, (1, 1, 4, 4)).data == 1.0)

    def test_first_of_ten(self):
        m = stage_factor(1, 10, (1, 1, 8, 8))
        assert m.shape == (1, 1, 8, 8)
        assert np.allclose(m.data, 0.1)

    def test_midpoint(self):
        assert np.allclose(stage_factor(5, 10, (1, 1, 4, 4)).data, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            stage_factor(0, 10, (1, 1, 4, 4))
        with pytest.raises(ContractError):
            stage_factor(11, 10, (1, 1, 4, 4))


def make_signal(rng, channels, hw, dtype=np.float32):
    h, w = hw
    return HyperpriorSignal(
        features=tensor(rng.standard_normal((1, channels, h, w)).astype(dtype)),
        grad_map=tensor(rng.standard_normal((1, 1, h, w)).astype(dtype)),
    )


class TestStepSizeGenerator:
    def test_output_shape(self, rng):
        gen = StepSizeGenerator(8, np.random.default_rng(0))
        signal = make_signal(rng, 8, (8, 8))
        p = gen(signal, stage_factor(1, 4, (1, 1, 8, 8)))
        assert p.shape == (1, 1, 8, 8)

    def test_zeroed_output_conv_gives_constant_bias(self, rng):
        gen = StepSizeGenerator(8, np.random.default_rng(0))
        gen.out.weight.data = np.zeros_like(gen.out.weight.data)
        gen.out.bias.data = np.full_like(gen.out.bias.data, 0.37)
        p = gen(make_signal(rng, 8, (8, 8)), stage_factor(2, 4, (1, 1, 8, 8)))
        assert np.allclose(p.data, 0.37)

    def test_zero_gate_logits_halve_features(self, rng):
        gen = StepSizeGenerator(8, np.random.default_rng(0))
        gen.gate.up.weight.data = np.zeros_like(gen.gate.up.weight.data)
        gen.gate.up.bias.data = np.zeros_like(gen.gate.up.bias.data)
        signal = make_signal(rng, 8, (8, 8))
        m = stage_factor(1, 4, (1, 1, 8, 8))
        f_in = ops.concat([signal.grad_map, signal.features, m], axis=1)
        gate = ops.sigmoid(gen.gate.up(ops.gelu(gen.gate.down(ops.global_avg_pool(f_in)))))
        assert np.all(gate.data == 0.5)
        scaled = ops.mul(f_in, gate)
        assert np.array_equal(scaled.data, f_in.data * 0.5)


class TestGradientStep:
    def test_zero_step_is_identity(self, rng):
        sampler = orthonormal_dual_sampler(2, 0)
        with precision("f64"):
            x = tensor(rng.standard_normal((1, 1, 4, 4)))
            y1, y2 = sample(sampler, x)
            p = tensor(np.zeros((1, 1, 4, 4)))
            r = hgdm_step(x, *gram_terms(sampler, y1, y2, (4, 4)), p)
            assert np.array_equal(r.data, x.data)

    def test_consistent_point_is_fixed_for_any_step(self, rng):
        sampler = orthonormal_dual_sampler(2, 1)
        with precision("f64"):
            x = tensor(rng.standard_normal((1, 1, 4, 4)))
            y1, y2 = sample(sampler, x)
            p = tensor(rng.standard_normal((1, 1, 4, 4)))
            r = hgdm_step(x, *gram_terms(sampler, y1, y2, (4, 4)), p)
            assert np.allclose(r.data, x.data, atol=1e-12)

    def test_matches_dense_matrix_oracle(self, rng):
        with precision("f64"):
            b = 2
            phi1 = BlockSensingMatrix(2, b, rng.standard_normal((2, 4)))
            phi2 = BlockSensingMatrix(3, b, rng.standard_normal((3, 4)))
            sampler = DualSampler(phi1, phi2)
            from test_sampling import dense_block_operator

            d1 = dense_block_operator(phi1, (4, 4))
            d2 = dense_block_operator(phi2, (4, 4))
            alpha = 0.3
            x = rng.standard_normal((1, 1, 4, 4))
            xt = tensor(x)
            y1, y2 = sample(sampler, xt)
            p = tensor(np.full((1, 1, 4, 4), alpha))
            got = hgdm_step(xt, *gram_terms(sampler, y1, y2, (4, 4)), p).data.reshape(-1)
            xv = x.reshape(-1)
            expect = xv - alpha * (d1.T @ (d1 @ xv - y1.data.reshape(-1))
                                   + d2.T @ (d2 @ xv - y2.data.reshape(-1)))
            assert np.allclose(got, expect, atol=1e-12)

    def test_gram_form_matches_two_stream_oracle(self, rng):
        # Value and gradients w.r.t. x, phi1 and phi2: phi reaches the Gram
        # form through G = phiT phi (both factors) and through b = phiT y.
        with precision("f64"):
            sampler = DualSampler(BlockSensingMatrix(3, 4, rng.standard_normal((3, 16))),
                                  BlockSensingMatrix(5, 4, rng.standard_normal((5, 16))))
            y1, y2 = (tensor(y.data) for y in sample(sampler, tensor(rng.standard_normal((1, 1, 8, 12)))))
            x = rng.standard_normal((1, 1, 8, 12))
            p = tensor(rng.uniform(0.1, 0.9, (1, 1, 8, 12)))
            weight = tensor(rng.standard_normal((1, 1, 8, 12)))
            params = [sampler.phi1.weights, sampler.phi2.weights]

            def run(step):
                xt = tensor(x, requires_grad=True)
                for w in params:
                    w.grad = None
                r = step(xt)
                backward(ops.reduce_sum(ops.mul(r, weight)))
                return [r.data, xt.grad] + [w.grad for w in params]

            gram_form = run(lambda xt: hgdm_step(xt, *gram_terms(sampler, y1, y2, (8, 12)), p))
            oracle = run(lambda xt: two_stream_step(xt, y1, y2, sampler, p))
        for got, expect in zip(gram_form, oracle):
            assert np.abs(expect).max() > 1e-3
            assert np.allclose(got, expect, rtol=0, atol=1e-12)

    def test_classical_descent_oracle(self, rng):
        # constant scalar step, identity proximal, orthonormal full-rate sampler:
        # the measurement residual contracts by (1 - alpha) each stage
        with precision("f64"):
            sampler = orthonormal_dual_sampler(4, 7)
            gt = tensor(rng.uniform(0, 1, (1, 1, 16, 16)))
            y1, y2 = sample(sampler, gt)
            x = tensor(np.zeros((1, 1, 16, 16)))
            p = tensor(np.full((1, 1, 16, 16), 0.5))
            norms = [stacked_residual_norm(sampler, x, y1, y2)]
            gram, back = gram_terms(sampler, y1, y2, (16, 16))
            for _ in range(20):
                x = hgdm_step(x, gram, back, p)
                norms.append(stacked_residual_norm(sampler, x, y1, y2))
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
            assert norms[-1] < 1e-3 * norms[0]


class TestHardMaskedAttention:
    def _build(self, channels=4, hw=(4, 4), seed=0):
        rng = np.random.default_rng(seed)
        att = HardMaskedAttention(channels, np.random.default_rng(seed + 1))
        r = tensor(rng.standard_normal((1, 1) + hw).astype(np.float32))
        return att, r

    def test_all_ones_mask_is_unmasked_attention_bitwise(self):
        att, r = self._build()
        h, w = r.shape[2], r.shape[3]
        ones = Tensor(np.ones((1, 1, h, w), dtype=np.float32))
        out_masked = att(r, ones)

        feats = att.proj(r)
        tok = lambda t: ops.transpose(ops.reshape(t, (att.channels, h * w)), (1, 0))
        q, k, v = tok(att.to_q(feats)), tok(conv2d(feats, att.to_k)), tok(att.to_v(feats))
        unmasked = ops.scaled_dot_attention(q, k, v, np.ones((1, h * w)))
        reference = ops.add(ops.reshape(ops.transpose(unmasked, (1, 0)), (1, att.channels, h, w)), feats)
        assert out_masked.data.tobytes() == reference.data.tobytes()

    def test_all_zeros_mask_returns_projection_exactly(self):
        att, r = self._build(seed=3)
        h, w = r.shape[2], r.shape[3]
        zeros = Tensor(np.zeros((1, 1, h, w), dtype=np.float32))
        out = att(r, zeros)
        feats = att.proj(r)
        assert np.array_equal(out.data, feats.data)

    def test_two_token_closed_form(self):
        # hand-set 2-token attention: verify against scalar arithmetic
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[2.0, -1.0], [0.5, 3.0]])
        got = ops.scaled_dot_attention(tensor(q, dtype=np.float64),
                                       tensor(k, dtype=np.float64),
                                       tensor(v, dtype=np.float64), np.ones((1, 2))).data
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        scores = np.array([[inv_sqrt2, 0.0], [0.0, inv_sqrt2]])
        expect = np.zeros((2, 2))
        for i in range(2):
            e = np.exp(scores[i] - scores[i].max())
            w_row = e / e.sum()
            expect[i] = w_row @ v
        assert np.allclose(got, expect, atol=1e-6)

    def test_token_cap_enforced(self):
        att = HardMaskedAttention(2, np.random.default_rng(0))
        att.proj = lambda r: pytest.fail("projection ran past the token cap")
        assert 128 * 129 > TOKEN_CAP
        r = tensor(np.zeros((1, 1, 128, 129), dtype=np.float32))
        with pytest.raises(ResourceError):
            att(r, Tensor(np.ones((1, 1, 128, 129), dtype=np.float32)))

    def test_no_grad_128_forward_is_memory_linear(self):
        # 16384 tokens: a kept T x T float32 probability matrix alone would be 1 GB.
        model = build_model(TrainConfig(patch_size=128, channels=4, stages=1))
        x = tensor(np.random.default_rng(0).uniform(0, 1, (1, 1, 128, 128)).astype(np.float32))
        assert 128 * 128 <= TOKEN_CAP
        tracemalloc.start()
        try:
            with no_grad():
                out = model(x).output
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out.data))
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestSoftGuidedUNet:
    def _inputs(self, rng, channels, hw, dtype=np.float32):
        h, w = hw
        att = tensor(rng.standard_normal((1, channels, h, w)).astype(dtype))
        z = (
            Tensor(np.zeros((1, channels, h, w), dtype=dtype)),
            Tensor(np.zeros((1, 2 * channels, h // 2, w // 2), dtype=dtype)),
            Tensor(np.zeros((1, 4 * channels, h // 4, w // 4), dtype=dtype)),
        )
        return att, z

    def test_identity_modulation_passthrough(self, rng):
        unet = SoftGuidedUNet(4, np.random.default_rng(0))
        att, z = self._inputs(rng, 4, (8, 8))
        ones = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32))
        f0 = unet.align(att)
        t1 = ops.add(ops.mul(ones, f0), z[0])
        assert np.array_equal(t1.data, f0.data)

    def test_output_shapes_match_state_contract(self, rng):
        unet = SoftGuidedUNet(4, np.random.default_rng(1))
        att, z = self._inputs(rng, 4, (8, 12))
        soft = tensor(rng.uniform(1, 2, (1, 1, 8, 12)).astype(np.float32))
        x_out, z_out = unet(att, z, soft)
        assert x_out.shape == (1, 1, 8, 12)
        assert z_out[0].shape == (1, 4, 8, 12)
        assert z_out[1].shape == (1, 8, 4, 6)
        assert z_out[2].shape == (1, 16, 2, 3)

    def test_modulation_sensitivity(self, rng):
        unet = SoftGuidedUNet(4, np.random.default_rng(2))
        att, z = self._inputs(rng, 4, (8, 8))
        f0 = unet.align(att)
        m = tensor(np.full((1, 1, 8, 8), 1.2, dtype=np.float32))
        m2 = tensor(np.full((1, 1, 8, 8), 1.9, dtype=np.float32))
        t_a = ops.mul(m, f0).data
        t_b = ops.mul(m2, f0).data
        changed = t_a != t_b
        assert np.all(changed[:, :, np.abs(f0.data[0]).sum(axis=0) > 1e-6])

    def test_indivisible_extents_rejected(self, rng):
        unet = SoftGuidedUNet(4, np.random.default_rng(3))
        att, z = self._inputs(rng, 4, (8, 8))
        soft = tensor(np.ones((1, 1, 6, 6), dtype=np.float32))
        bad = tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        with pytest.raises(GeometryError):
            unet(bad, z, soft)


class TestUnrolledModel:
    def _model(self, stages=2, channels=8, seed=11):
        return DualPathModel(gamma=0.5, split=(1, 2), block_size=4, stages=stages,
                             channels=channels, rho=0.5, seed=seed)

    def test_stage_list_length_and_shapes(self, rng):
        model = self._model()
        x = tensor(rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        trace = model(x)
        assert len(trace.stages) == model.num_stages + 1
        assert all(s.shape == (1, 1, 16, 16) for s in trace.stages)

    def test_one_step_map_per_stage(self, rng):
        model = self._model(stages=4)
        x = tensor(rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        trace = model(x)
        assert len(trace.step_maps) == 4

    def test_single_stage_equals_manual_composition(self, rng):
        from dualpath_cs.reconstruction import stage_factor as sf
        from dualpath_cs.sampling import initial_recon

        model = self._model(stages=1, seed=21)
        x = tensor(rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        trace = model(x)

        y1, y2 = sample(model.sampler, x)
        x0, back1, back2 = initial_recon(model.sampler, y1, y2, model.fusion, (16, 16))
        gram1 = model.sampler.phi1.gram()
        gram = ops.add(gram1, model.sampler.phi2.gram())
        signal, guidance = model.hyperprior(back1, gram1, 4)
        stage = model.stages[0]
        p = stage.step_gen(signal, sf(1, 1, (1, 1, 16, 16)))
        from dualpath_cs.reconstruction import hgdm_step as step

        r = step(x0, gram, ops.add(back1, back2), p)
        att = stage.hard_att(r, guidance.hard_mask)
        x1, _ = stage.soft_unet(att, (0.0,) * 3, guidance.soft_map)
        assert np.array_equal(trace.output.data, x1.data)

    def test_extent_checks(self, rng):
        model = self._model()
        with pytest.raises(GeometryError):
            model(tensor(np.zeros((1, 1, 18, 16), dtype=np.float32)))

    @pytest.mark.parametrize("seed", [-3, 2.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError):
            self._model(seed=seed)


class TestEndToEndGradient:
    @pytest.mark.parametrize("n", [1, 2])
    def test_single_pixel_finite_difference(self, n):
        # n = 2 runs two distinct images as one batch and probes the second.
        with precision("f64"):
            rng = np.random.default_rng(5)
            model = DualPathModel(gamma=0.5, split=(1, 2), block_size=4, stages=2,
                                  channels=8, rho=0.5, seed=33)
            base = rng.uniform(0.2, 0.8, (n, 1, 16, 16))
            target = tensor(rng.uniform(0, 1, (n, 1, 16, 16)))

            def loss_value(arr):
                out = model(tensor(arr)).output
                return ops.mse(out, target).item()

            x = tensor(base, requires_grad=True)
            loss = ops.mse(model(x).output, target)
            backward(loss)

            # verify the top-K selection is stable under the probe step
            from dualpath_cs.hyperprior import block_mean_abs_grad

            trace = model(tensor(base))
            for scores in np.sort(block_mean_abs_grad(trace.signal.grad_map, 4).reshape(n, -1)):
                k = int(np.ceil(0.5 * scores.size))
                assert scores[-k] - scores[-k - 1] > 1e-4, "tie margin too small for FD"

            h = 1e-4
            pixel = (n - 1, 0, 7, 9)
            up = base.copy(); up[pixel] += h
            down = base.copy(); down[pixel] -= h
            numeric = (loss_value(up) - loss_value(down)) / (2 * h)
            analytic = x.grad[pixel]
            denom = max(abs(numeric), abs(analytic), 1.0)
            assert abs(numeric - analytic) / denom < 1e-3
