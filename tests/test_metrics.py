"""PSNR, SSIM and measurement-noise semantics."""

import math

import numpy as np
import pytest

from dualpath_cs.autograd import Tensor
from dualpath_cs.errors import ConfigError, ContractError, DimensionError, GeometryError, NumericsError
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

    @pytest.mark.parametrize("pixel", [math.nan, math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_pixel_rejected(self, rng, pixel, side):
        # A NaN would make the score nan rather than fail.
        images = [rng.uniform(0, 1, (16, 16)) for _ in range(2)]
        images[side][3, 5] = pixel
        with pytest.raises(NumericsError):
            ssim(*images)

    @pytest.mark.parametrize("fill, pixel", [(1e200, 1e200), (0.0, 1e155)], ids=["every-pixel", "one-pixel"])
    def test_second_moments_past_float64_range_rejected(self, fill, pixel):
        # The first gave a nan score; in the second only the squared pixel overflows, which made
        # every window's variance inf and the score a silent 0.0.
        a = np.full((16, 16), fill)
        a[8, 8] = pixel
        with pytest.raises(NumericsError, match="overflow"):
            ssim(a, np.zeros((16, 16)))


class TestPsnr:
    def test_identical_inputs_are_infinite(self, rng):
        x = rng.uniform(0, 1, (8, 8))
        assert psnr(x, x.copy()) == math.inf

    def test_known_error(self):
        # MSE 0.01 against a peak of 1 is 20 dB.
        assert abs(psnr(np.zeros((4, 4)), np.full((4, 4), 0.1)) - 20.0) < 1e-12

    def test_empty_images_rejected(self):
        # numpy would warn "Mean of empty slice" and return nan.
        with pytest.raises(DimensionError):
            psnr(np.zeros((0, 4)), np.zeros((0, 4)))

    @pytest.mark.parametrize("pixel", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_pixel_rejected(self, rng, pixel, side):
        # An infinite error raised a bare ValueError from log10(0); a NaN gave nan.
        images = [rng.uniform(0, 1, (8, 8)) for _ in range(2)]
        images[side][2, 6] = pixel
        with pytest.raises(NumericsError):
            psnr(*images)

    @pytest.mark.parametrize("a, b, expect", [
        ([1e-162], [0.0], 3240.0),
        ([5e-324], [0.0], -20.0 * math.log10(5e-324)),
        ([1e-160, 3e-160], [0.0, -0.0], 3200.0 - 10.0 * math.log10(5.0)),  # MSE 5e-320
    ])
    def test_difference_below_float64_normal_range_is_finite(self, a, b, expect):
        # Squared, these differences underflow to 0 (or a subnormal) and read as "identical".
        got = psnr(np.array(a), np.array(b))
        assert abs(got - expect) < 1e-9
        assert psnr(np.array(b), np.array(a)) == got

    def test_error_past_float64_range_rejected(self):
        with pytest.raises(NumericsError):
            psnr(np.array([1e300, 0.0]), np.array([-1e300, 0.0]))


class TestRealInput:
    @pytest.mark.parametrize("metric", [psnr, ssim], ids=["psnr", "ssim"])
    @pytest.mark.parametrize("dtype", [complex, str, object], ids=["complex", "str", "object"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_real_image_rejected(self, rng, metric, dtype, side):
        # Complex images scored their real part; strings leaked a bare TypeError or ValueError.
        images = [rng.uniform(0, 1, (16, 16)) for _ in range(2)]
        images[side] = images[side].astype(dtype)
        with pytest.raises(ContractError, match="real-valued"):
            metric(*images)

    @pytest.mark.parametrize("metric", [psnr, ssim], ids=["psnr", "ssim"])
    def test_ragged_image_rejected(self, metric):
        # np.asarray raised a bare ValueError ("inhomogeneous shape").
        ragged = [[1.0, 2.0], [3.0]]
        with pytest.raises(ContractError, match="real-valued"):
            metric(ragged, ragged)

    def test_psnr_of_strings_rejected(self):
        with pytest.raises(ContractError):
            psnr("ab", "cd")


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_not_a_natural_number_rejected(self, seed):
        # numpy would raise a bare ValueError or TypeError, or take True or None as a seed.
        with pytest.raises(ConfigError):
            add_gaussian_noise(np.zeros(4), 0.1, seed=seed)

    def test_ragged_input_rejected(self):
        with pytest.raises(ContractError, match="real-valued"):
            add_gaussian_noise([[1.0, 2.0], [3.0]], 0.1, seed=0)

    @pytest.mark.parametrize("y", [np.zeros(3, np.uint8), np.zeros(3, np.int64), np.zeros(3, bool),
                                   Tensor(np.zeros(3, np.int32))], ids=["uint8", "int64", "bool", "int-tensor"])
    def test_integer_input_rejected(self, y):
        # Noise cast to an integer dtype rounds to zero: the result would be y, silently.
        with pytest.raises(ContractError):
            add_gaussian_noise(y, 0.4, seed=0)
