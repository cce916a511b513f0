"""Guidance generation: block scores, top-K mask, soft map, branch invariants."""

import numpy as np
import pytest

from dualpath_cs.autograd import backward, precision, tensor
from dualpath_cs import ops
from dualpath_cs.errors import GeometryError
from dualpath_cs.hyperprior import (
    HyperpriorBranch,
    RefinementNet,
    SoftMapNet,
    block_mean_abs_grad,
    build_hard_mask,
)
from dualpath_cs.sampling import BlockSensingMatrix, DualSampler, build_dual_sampler, sample


def brute_force_topk(scores, k):
    """Sort oracle: indices of the k largest scores, lower index on ties."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return set(ranked[:k])


class TestBlockMeans:
    def test_constant_map(self):
        g = block_mean_abs_grad(np.full((1, 1, 4, 4), -2.5), 2)
        assert np.allclose(g, 2.5)

    def test_hand_example(self):
        rows = np.array(
            [[0, 0, 2, 4], [0, 0, 2, 4], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=np.float64
        )
        g = block_mean_abs_grad(rows.reshape(1, 1, 4, 4), 2)
        assert np.allclose(g, [0.0, 3.0, 1.0, 0.0])

    def test_homogeneity(self, rng):
        m = rng.standard_normal((1, 1, 8, 8))
        assert np.allclose(block_mean_abs_grad(3.0 * m, 4), 3.0 * block_mean_abs_grad(m, 4))

    def test_indivisible_rejected(self):
        with pytest.raises(GeometryError):
            block_mean_abs_grad(np.zeros((1, 1, 6, 4)), 4)


class TestHardMask:
    def test_rho_one_selects_everything(self):
        mask = build_hard_mask(np.array([0.0, 3.0, 1.0, 0.0]), 1.0, 2, (4, 4))
        assert np.all(mask.data == 1.0)

    def test_hand_example_selection(self):
        mask = build_hard_mask(np.array([0.0, 3.0, 1.0, 0.0]), 0.5, 2, (4, 4)).data[0, 0]
        assert np.all(mask[0:2, 2:4] == 1.0)  # block 1
        assert np.all(mask[2:4, 0:2] == 1.0)  # block 2
        assert np.all(mask[0:2, 0:2] == 0.0) and np.all(mask[2:4, 2:4] == 0.0)

    def test_tie_break_low_index(self):
        mask = build_hard_mask(np.zeros(4), 0.5, 2, (4, 4)).data[0, 0]
        assert np.all(mask[0:2, 0:2] == 1.0) and np.all(mask[0:2, 2:4] == 1.0)
        assert np.all(mask[2:4, :] == 0.0)

    def test_matches_sort_oracle(self, rng):
        for _ in range(100):
            nbh, nbw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            b = int(rng.integers(2, 5))
            rho = float(rng.uniform(0.05, 1.0))
            scores = rng.standard_normal(nbh * nbw) ** 2
            mask = build_hard_mask(scores, rho, b, (nbh * b, nbw * b)).data[0, 0]
            k = int(np.ceil(rho * nbh * nbw))
            blocks = mask.reshape(nbh, b, nbw, b).mean(axis=(1, 3)).reshape(-1)
            selected = {i for i, v in enumerate(blocks) if v == 1.0}
            assert np.all((blocks == 0) | (blocks == 1)), "mask not block-constant"
            assert selected == brute_force_topk(scores, k)
            assert int(mask.sum()) == k * b * b

    def test_monotone_selection(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        mask_before = build_hard_mask(scores, 0.5, 2, (2, 12)).data
        bumped = scores.copy()
        bumped[5] = 10.0  # push an unselected block above the maximum
        mask_after = build_hard_mask(bumped, 0.5, 2, (2, 12)).data
        assert mask_before[0, 0, 0:2, 10:12].max() == 0.0
        assert mask_after[0, 0, 0:2, 10:12].min() == 1.0


class TestSoftMap:
    def test_open_interval_for_any_input(self, rng):
        net = SoftMapNet(8, np.random.default_rng(0))
        for scale in (1e-3, 1.0, 1e4):
            x = tensor((rng.standard_normal((1, 1, 8, 8)) * scale).astype(np.float32))
            out = net(x).data
            assert np.all(out > 1.0) and np.all(out < 2.0)

    def test_zero_final_conv_gives_three_halves(self, rng):
        net = SoftMapNet(8, np.random.default_rng(0))
        net.out.weight.data = np.zeros_like(net.out.weight.data)
        net.out.bias.data = np.zeros_like(net.out.bias.data)
        out = net(tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32)))
        assert np.allclose(out.data, 1.5)

    def test_shape_matches_input(self, rng):
        net = SoftMapNet(4, np.random.default_rng(1))
        out = net(tensor(rng.standard_normal((1, 1, 12, 8)).astype(np.float32)))
        assert out.shape == (1, 1, 12, 8)


class TestRefiner:
    def test_zero_tail_is_identity(self, rng):
        net = RefinementNet(8, np.random.default_rng(0))
        net.tail.weight.data = np.zeros_like(net.tail.weight.data)
        net.tail.bias.data = np.zeros_like(net.tail.bias.data)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        refined, feats = net(tensor(x))
        assert np.array_equal(refined.data, x)
        assert feats.shape == (1, 8, 8, 8)

    def test_zero_second_conv_residual_block_is_identity(self, rng):
        from dualpath_cs.hyperprior import ResidualBlock

        block = ResidualBlock(4, np.random.default_rng(0))
        block.conv2.weight.data = np.zeros_like(block.conv2.weight.data)
        block.conv2.bias.data = np.zeros_like(block.conv2.bias.data)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        assert np.array_equal(block(tensor(x)).data, x)


class TestBranch:
    def _branch_and_sampler(self, seed=0, b=4, rho=0.5):
        sampler = build_dual_sampler(0.5, (1, 2), b, seed=seed)
        branch = HyperpriorBranch(8, rho, np.random.default_rng(seed + 1))
        return branch, sampler

    @staticmethod
    def _run(branch, sampler, y1):
        """The branch on the Gram-form inputs the model builds from y1 of an 8x8 image."""
        return branch(sampler.phi1.adjoint(y1, (8, 8)), sampler.phi1.gram(), sampler.phi1.block_size)

    def test_zero_measurements_trivial_composition(self):
        branch, sampler = self._branch_and_sampler()
        for p in branch.parameters():
            if p.data.ndim == 1:  # biases
                p.data = np.zeros_like(p.data)
        nb = 4
        y1 = tensor(np.zeros((nb, sampler.phi1.rows), dtype=np.float32))
        signal, guidance = self._run(branch, sampler, y1)
        assert np.allclose(signal.grad_map.data, 0.0)
        assert np.allclose(guidance.soft_map.data, 1.5)
        mask = guidance.hard_mask.data[0, 0]
        assert np.all(mask[0:4, :] == 1.0) and np.all(mask[4:8, :] == 0.0)

    def test_invariants_on_random_inputs(self, rng):
        branch, sampler = self._branch_and_sampler(seed=3)
        b = 4
        for trial in range(50):
            x = tensor(rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32))
            y1, _ = sample(sampler, x)
            signal, guidance = self._run(branch, sampler, y1)
            mask = guidance.hard_mask.data[0, 0]
            tiles = mask.reshape(2, b, 2, b)
            assert np.all(tiles.min(axis=(1, 3)) == tiles.max(axis=(1, 3)))
            assert int(mask.sum()) // (b * b) == int(np.ceil(0.5 * 4))
            soft = guidance.soft_map.data
            assert soft.min() > 1.0 and soft.max() < 2.0
            assert np.all(np.isfinite(signal.features.data))

    def test_mask_agrees_with_sort_oracle_through_branch(self, rng):
        branch, sampler = self._branch_and_sampler(seed=5)
        x = tensor(rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32))
        y1, _ = sample(sampler, x)
        signal, guidance = self._run(branch, sampler, y1)
        scores = block_mean_abs_grad(signal.grad_map, 4)
        expect = brute_force_topk(scores, 2)
        mask_blocks = guidance.hard_mask.data[0, 0].reshape(2, 4, 2, 4).mean(axis=(1, 3))
        got = {i for i, v in enumerate(mask_blocks.reshape(-1)) if v == 1.0}
        assert got == expect

    def test_consistent_refined_estimate_zeroes_gradient_map(self, rng):
        with precision("f64"):
            # Square orthonormal phi1: the adjoint back-projection of y1 = phi1 x is x.
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            sampler = DualSampler(BlockSensingMatrix(4, 2, q), BlockSensingMatrix(1, 2, q[:1].copy()))
            branch = HyperpriorBranch(8, 0.5, np.random.default_rng(1))
            y1, _ = sample(sampler, tensor(rng.standard_normal((1, 1, 8, 8))))
            signal, _ = self._run(branch, sampler, y1)
            assert np.abs(signal.grad_map.data).max() > 1e-3
            # A zero tail makes the refined estimate the coarse one, which is consistent.
            branch.refiner.tail.weight.data = np.zeros_like(branch.refiner.tail.weight.data)
            branch.refiner.tail.bias.data = np.zeros_like(branch.refiner.tail.bias.data)
            signal, _ = self._run(branch, sampler, y1)
        assert signal.grad_map.dtype == np.float64
        assert np.allclose(signal.grad_map.data, 0.0, rtol=0, atol=1e-13)

    def test_gradients_flow_to_refiner_but_not_through_mask(self, rng):
        branch, sampler = self._branch_and_sampler(seed=7)
        x = tensor(rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32))
        y1, _ = sample(sampler, x)
        signal, guidance = self._run(branch, sampler, y1)
        loss = ops.add(ops.reduce_sum(guidance.soft_map), ops.reduce_sum(guidance.hard_mask))
        backward(loss)
        assert branch.refiner.head.weight.grad is not None
        assert not guidance.hard_mask.requires_grad
