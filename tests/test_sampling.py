"""Dual block sampling: budget arithmetic, adjointness, dense-matrix oracles."""

import numpy as np
import pytest

from dualpath_cs import ops
from dualpath_cs.autograd import precision, tensor
from dualpath_cs.errors import ConfigError, DimensionError, GeometryError
from dualpath_cs.nn import Conv2d
from dualpath_cs.sampling import (
    BlockSensingMatrix,
    blockify,
    build_dual_sampler,
    data_grad,
    initial_recon,
    sample,
    split_rows,
    unblockify,
)


def dense_block_operator(phi, hw):
    """Explicit dense matrix of the full image->measurements map (oracle)."""
    h, w = hw
    b = phi.block_size
    nb = (h // b) * (w // b)
    mat = np.zeros((nb * phi.rows, h * w))
    weights = phi.weights.data
    for bi in range(h // b):
        for bj in range(w // b):
            block_index = bi * (w // b) + bj
            for r in range(phi.rows):
                for u in range(b):
                    for v in range(b):
                        pixel = (bi * b + u) * w + (bj * b + v)
                        mat[block_index * phi.rows + r, pixel] = weights[r, u * b + v]
    return mat


class TestBudget:
    def test_quarter_ratio_exact(self):
        m_total, _, _ = split_rows(0.25, (1, 1), 32)
        assert m_total == 256

    def test_hand_rounding_case(self):
        # round(0.10*1024) = 102, round(102/5) = 20
        m_total, m1, m2 = split_rows(0.10, (1, 4), 32)
        assert (m_total, m1, m2) == (102, 20, 82)

    def test_even_split_full_rate(self):
        m_total, m1, m2 = split_rows(1.0, (1, 1), 4)
        assert (m_total, m1, m2) == (16, 8, 8)

    def test_row_count_conservation(self, rng):
        for _ in range(50):
            gamma = float(rng.uniform(0.01, 1.0))
            split = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            b = int(rng.integers(2, 17))
            try:
                m_total, m1, m2 = split_rows(gamma, split, b)
            except ConfigError:
                continue
            assert m1 + m2 == m_total == int(np.floor(gamma * b * b + 0.5))
            assert m1 >= 1 and m2 >= 1

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError):
            split_rows(0.0, (1, 1), 8)
        with pytest.raises(ConfigError):
            split_rows(1.2, (1, 1), 8)

    def test_unsplittable_budget(self):
        with pytest.raises(ConfigError):
            split_rows(0.01, (1, 1), 4)  # round(0.16) = 0


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        s1 = build_dual_sampler(0.25, (1, 4), 8, seed=99)
        s2 = build_dual_sampler(0.25, (1, 4), 8, seed=99)
        assert np.array_equal(s1.phi1.weights.data, s2.phi1.weights.data)
        assert np.array_equal(s1.phi2.weights.data, s2.phi2.weights.data)

    def test_different_seed_differs(self):
        s1 = build_dual_sampler(0.25, (1, 4), 8, seed=1)
        s2 = build_dual_sampler(0.25, (1, 4), 8, seed=2)
        assert not np.array_equal(s1.phi1.weights.data, s2.phi1.weights.data)


class TestSampleAdjoint:
    def test_zero_image_zero_measurements(self):
        sampler = build_dual_sampler(0.25, (1, 1), 4, seed=0)
        y1, y2 = sample(sampler, tensor(np.zeros((1, 1, 8, 8))))
        assert np.all(y1.data == 0) and np.all(y2.data == 0)

    def test_single_row_selects_top_left_pixel(self, rng):
        w1 = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        phi = BlockSensingMatrix(1, 2, w1)
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        y = phi.apply(tensor(x))
        expect = x[0, 0, ::2, ::2].reshape(-1, 1)
        assert np.allclose(y.data, expect)

    def test_linearity(self, rng):
        sampler = build_dual_sampler(0.5, (1, 2), 4, seed=3)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        y1a, _ = sample(sampler, tensor(2.5 * x))
        y1b, _ = sample(sampler, tensor(x))
        assert np.allclose(y1a.data, 2.5 * y1b.data, atol=1e-5)

    def test_identity_matrix_round_trip(self, rng):
        phi = BlockSensingMatrix(4, 2, np.eye(4, dtype=np.float32))
        x = rng.standard_normal((1, 1, 6, 4)).astype(np.float32)
        xt = tensor(x)
        back = phi.adjoint(phi.apply(xt), (6, 4))
        assert np.array_equal(back.data, x)

    def test_adjoint_identity_inner_products(self, rng):
        with precision("f64"):
            for _ in range(100):
                b = int(rng.integers(2, 9))
                rows = int(rng.integers(1, b * b + 1))
                grid = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                hw = (grid[0] * b, grid[1] * b)
                phi = BlockSensingMatrix(rows, b, rng.standard_normal((rows, b * b)))
                x = tensor(rng.standard_normal((1, 1) + hw))
                y = tensor(rng.standard_normal((grid[0] * grid[1], rows)))
                lhs = float(np.sum(phi.apply(x).data * y.data))
                rhs = float(np.sum(x.data * phi.adjoint(y, hw).data))
                bound = 1e-5 * (np.linalg.norm(x.data) * np.linalg.norm(y.data) + 1)
                assert abs(lhs - rhs) < bound

    def test_matches_dense_operator(self, rng):
        with precision("f64"):
            phi = BlockSensingMatrix(3, 2, rng.standard_normal((3, 4)))
            x = rng.standard_normal((1, 1, 4, 4))
            dense = dense_block_operator(phi, (4, 4))
            y = phi.apply(tensor(x))
            assert np.allclose(y.data.reshape(-1), dense @ x.reshape(-1), atol=1e-12)
            yv = rng.standard_normal((4, 3))
            back = phi.adjoint(tensor(yv), (4, 4))
            assert np.allclose(back.data.reshape(-1), dense.T @ yv.reshape(-1), atol=1e-12)

    def test_block_locality(self, rng):
        sampler = build_dual_sampler(0.5, (1, 1), 4, seed=7)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        x2 = x.copy()
        x2[0, 0, 0:4, 4:8] += 1.0  # block index 1 only
        da = sample(sampler, tensor(x))[0].data - sample(sampler, tensor(x2))[0].data
        changed = np.any(da != 0, axis=1)
        assert changed[1] and not changed[0] and not changed[2] and not changed[3]

    def test_indivisible_extents_rejected(self):
        sampler = build_dual_sampler(0.5, (1, 1), 4, seed=0)
        with pytest.raises(GeometryError):
            sample(sampler, tensor(np.zeros((1, 1, 6, 8))))

    def test_wrong_block_count_rejected(self):
        phi = BlockSensingMatrix(2, 2, np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(DimensionError):
            phi.adjoint(tensor(np.zeros((3, 2))), (4, 4))

    def test_adjoint_to_indivisible_extents_rejected(self):
        # Six rows are no whole number of 4-row blocks.
        phi = BlockSensingMatrix(2, 4, np.zeros((2, 16), dtype=np.float32))
        with pytest.raises(GeometryError):
            phi.adjoint(tensor(np.zeros((1, 2))), (6, 4))


class TestDataGrad:
    def test_consistent_estimate_zero_gradient(self, rng):
        with precision("f64"):
            phi = BlockSensingMatrix(4, 2, np.eye(4))
            x = tensor(rng.standard_normal((1, 1, 4, 4)))
            y = phi.apply(x)
            g = data_grad(phi.gram(), x, phi.adjoint(y, (4, 4)))
            assert np.allclose(g.data, 0.0, atol=1e-12)

    def test_dense_oracle_with_zero_measurements(self, rng):
        with precision("f64"):
            phi = BlockSensingMatrix(3, 2, rng.standard_normal((3, 4)))
            dense = dense_block_operator(phi, (4, 4))
            x = rng.standard_normal((1, 1, 4, 4))
            y = tensor(np.zeros((4, 3)))
            got = data_grad(phi.gram(), tensor(x), phi.adjoint(y, (4, 4))).data.reshape(-1)
            assert np.allclose(got, dense.T @ (dense @ x.reshape(-1)), atol=1e-12)

    def test_joint_linearity(self, rng):
        with precision("f64"):
            phi = BlockSensingMatrix(2, 2, rng.standard_normal((2, 4)))
            x = tensor(rng.standard_normal((1, 1, 4, 4)))
            y = tensor(rng.standard_normal((4, 2)))
            full = data_grad(phi.gram(), x, phi.adjoint(y, (4, 4))).data
            no_y = data_grad(phi.gram(), x, phi.adjoint(tensor(np.zeros((4, 2))), (4, 4))).data
            adj = phi.adjoint(y, (4, 4)).data
            assert np.allclose(full, no_y - adj, atol=1e-12)


class TestInitialRecon:
    def test_zero_measurements_zero_image(self, rng):
        sampler = build_dual_sampler(0.25, (1, 1), 4, seed=0)
        fuse = Conv2d(2, 1, 3, np.random.default_rng(5))
        nb = 4
        y1 = tensor(np.zeros((nb, sampler.phi1.rows)))
        y2 = tensor(np.zeros((nb, sampler.phi2.rows)))
        out, _, _ = initial_recon(sampler, y1, y2, fuse, (8, 8))
        assert out.shape == (1, 1, 8, 8)
        assert np.allclose(out.data, 0.0)

    def test_output_shape_follows_image(self, rng):
        sampler = build_dual_sampler(0.25, (1, 2), 4, seed=1)
        fuse = Conv2d(2, 1, 3, np.random.default_rng(6))
        x = tensor(rng.standard_normal((1, 1, 12, 8)).astype(np.float32))
        y1, y2 = sample(sampler, x)
        out, _, _ = initial_recon(sampler, y1, y2, fuse, (12, 8))
        assert out.shape == (1, 1, 12, 8)

    def test_channel_copy_kernel_recovers_adjoint(self, rng):
        sampler = build_dual_sampler(0.25, (1, 1), 4, seed=2)
        fuse = Conv2d(2, 1, 1, np.random.default_rng(0))
        fuse.weight.data = np.array([1.0, 0.0], dtype=np.float32).reshape(1, 2, 1, 1)
        fuse.bias.data = np.zeros(1, dtype=np.float32)
        x = tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
        y1, y2 = sample(sampler, x)
        out, x1, x2 = initial_recon(sampler, y1, y2, fuse, (8, 8))
        expect = sampler.phi1.adjoint(y1, (8, 8))
        assert np.allclose(out.data, expect.data, atol=1e-6)
        assert np.array_equal(x1.data, expect.data)
        assert np.array_equal(x2.data, sampler.phi2.adjoint(y2, (8, 8)).data)


class TestBlockViews:
    def test_blockify_round_trip(self, rng):
        x = rng.standard_normal((1, 1, 8, 12)).astype(np.float32)
        blocks = blockify(tensor(x), 4)
        back = unblockify(blocks, 4, (8, 12))
        assert np.array_equal(back.data, x)

    def test_blockify_row_major_flattening(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        blocks = blockify(tensor(x), 2).data
        assert np.array_equal(blocks[0], [0, 1, 4, 5])
        assert np.array_equal(blocks[1], [2, 3, 6, 7])
        assert np.array_equal(blocks[2], [8, 9, 12, 13])
