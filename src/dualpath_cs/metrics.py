"""Reconstruction quality metrics and measurement noise."""

import math

import numpy as np

from .autograd import Tensor
from .errors import (ConfigError, ContractError, DimensionError, GeometryError, NumericsError, as_real_array,
                     is_finite_real, is_integer)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _require_finite(metric, *arrays):
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise NumericsError(f"{metric} of an image with a non-finite pixel")


def psnr(a, b):
    """10*log10(1 / MSE) in dB for a peak of 1; math.inf signals elementwise-equal inputs.

    Reports must render the infinite case as a distinguished "identical"
    outcome rather than a number. An MSE below float64's normal range is taken
    of the difference scaled by its largest magnitude, so unequal inputs get a
    finite PSNR however small their difference. Images that are not bool, integer
    or real float raise ContractError, empty images DimensionError, and a
    non-finite pixel or an error past float64's range NumericsError.
    """
    av, bv = as_real_array(a, ContractError), as_real_array(b, ContractError)
    if av.shape != bv.shape:
        raise DimensionError(f"psnr shapes differ: {av.shape} vs {bv.shape}")
    if av.size == 0:
        raise DimensionError("psnr of empty images")
    _require_finite("psnr", av, bv)
    diff = av.astype(np.float64) - bv.astype(np.float64)
    with np.errstate(over="ignore"):
        err = float(np.mean(diff ** 2))
    if not math.isfinite(err):
        raise NumericsError("psnr: the mean squared error overflows float64")
    if err < np.finfo(np.float64).tiny:
        scale = float(np.max(np.abs(diff)))
        if scale == 0.0:
            return math.inf
        return -10.0 * math.log10(float(np.mean((diff / scale) ** 2))) - 20.0 * math.log10(scale)
    return 10.0 * math.log10(1.0 / err)


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    coords = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def _windowed_mean(img, kernel):
    windows = np.lib.stride_tricks.sliding_window_view(img, kernel.shape)
    return np.einsum("ijkl,kl->ij", windows, kernel)


def ssim(a, b):
    """Single-scale SSIM: 11x11 Gaussian window sigma 1.5, K1/K2 = 0.01/0.03,
    dynamic range 1.0, averaged over valid (unpadded) positions. Images not of bools, integers
    or real floats raise ContractError, and windowed second moments past float64 NumericsError."""
    av, bv = (as_real_array(x, ContractError).astype(np.float64).squeeze() for x in (a, b))
    if av.shape != bv.shape:
        raise DimensionError(f"ssim shapes differ: {av.shape} vs {bv.shape}")
    _require_finite("ssim", av, bv)
    if av.ndim != 2:
        raise DimensionError(f"ssim expects grayscale images, got shape {av.shape}")
    if min(av.shape) < SSIM_WINDOW:
        raise GeometryError(f"image {av.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    kernel = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    mu_a = _windowed_mean(av, kernel)
    mu_b = _windowed_mean(bv, kernel)
    with np.errstate(over="ignore", invalid="ignore"):
        var_a = _windowed_mean(av * av, kernel) - mu_a * mu_a
        var_b = _windowed_mean(bv * bv, kernel) - mu_b * mu_b
        cov = _windowed_mean(av * bv, kernel) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    # Any overflow above leaves den inf or nan: |2 mu_a mu_b| <= mu_a^2 + mu_b^2, |cov| <= (var_a + var_b) / 2.
    if not np.all(np.isfinite(den)):
        raise NumericsError("ssim: the windowed second moments overflow float64")
    return float((num / den).mean())


def add_gaussian_noise(y, sigma, seed):
    """y + N(0, sigma^2) elementwise, seeded; sigma 0 returns y unchanged.

    y must be a floating array or Tensor: noise cast to an integer dtype would round away.
    """
    if not is_finite_real(sigma) or sigma < 0:
        raise ConfigError(f"noise sigma must be a finite real >= 0, got {sigma!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"noise seed must be an integer >= 0, got {seed!r}")
    arr = as_real_array(y.data if isinstance(y, Tensor) else y, ContractError)
    if not np.issubdtype(arr.dtype, np.floating):
        raise ContractError(f"noise needs a floating-point input, got dtype {arr.dtype}")
    if sigma == 0:
        return Tensor(arr.copy()) if isinstance(y, Tensor) else arr.copy()
    rng = np.random.default_rng(seed)
    noisy = arr + rng.normal(0.0, sigma, size=arr.shape).astype(arr.dtype)
    return Tensor(noisy) if isinstance(y, Tensor) else noisy
