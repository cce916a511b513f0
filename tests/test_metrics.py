"""PSNR, SSIM and measurement-noise semantics."""

import math

import numpy as np
import pytest

from dualpath_cs.autograd import Tensor
from dualpath_cs.errors import ConfigError, DimensionError, GeometryError
from dualpath_cs.metrics import SSIM_K1, add_gaussian_noise, psnr, ssim


class TestSsim:
    def test_identical_images_score_one(self, rng):
        x = rng.uniform(0, 1, (24, 20))
        assert ssim(x, x) == 1.0

    def test_symmetric(self, rng):
        a, b = rng.uniform(0, 1, (2, 16, 16))
        assert ssim(a, b) == ssim(b, a)

    def test_constant_images_closed_form(self):
        # No variance or covariance: only the luminance term is left.
        a, b = 0.3, 0.7
        c1 = SSIM_K1 ** 2
        expect = (2 * a * b + c1) / (a * a + b * b + c1)
        got = ssim(np.full((12, 12), a), np.full((12, 12), b))
        assert abs(got - expect) < 1e-12

    def test_smaller_than_window_rejected(self):
        with pytest.raises(GeometryError):
            ssim(np.zeros((10, 16)), np.zeros((10, 16)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))


class TestPsnr:
    def test_identical_inputs_are_infinite(self, rng):
        x = rng.uniform(0, 1, (8, 8))
        assert psnr(x, x.copy()) == math.inf

    def test_known_error(self):
        # MSE 0.01 against a peak of 1 is 20 dB.
        assert abs(psnr(np.zeros((4, 4)), np.full((4, 4), 0.1)) - 20.0) < 1e-12


class TestGaussianNoise:
    def test_seed_fixes_the_noise(self):
        y = np.zeros(32)
        assert np.array_equal(add_gaussian_noise(y, 0.1, seed=3), add_gaussian_noise(y, 0.1, seed=3))
        assert not np.array_equal(add_gaussian_noise(y, 0.1, seed=3), add_gaussian_noise(y, 0.1, seed=4))

    def test_zero_sigma_returns_equal_copy(self, rng):
        y = rng.standard_normal(16)
        out = add_gaussian_noise(y, 0.0, seed=0)
        assert np.array_equal(out, y) and out is not y

    def test_tensor_in_tensor_out_same_dtype(self, rng):
        y = Tensor(rng.standard_normal(16).astype(np.float32))
        out = add_gaussian_noise(y, 0.1, seed=0)
        assert isinstance(out, Tensor) and out.dtype == np.float32
        assert not np.array_equal(out.data, y.data)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            add_gaussian_noise(np.zeros(4), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, "0.1", True, None])
    def test_sigma_not_a_finite_real_rejected(self, sigma):
        # nan and inf would give non-finite measurements; True is not the number 1.
        with pytest.raises(ConfigError):
            add_gaussian_noise(np.zeros(4), sigma, seed=0)
