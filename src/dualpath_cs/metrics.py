"""Reconstruction quality metrics and measurement noise."""

import math

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, DimensionError, GeometryError, is_finite_real

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _as_array(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def psnr(a, b):
    """10*log10(1 / MSE) in dB for a peak of 1; math.inf signals bit-identical inputs.

    Reports must render the infinite case as a distinguished "identical"
    outcome rather than a number.
    """
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise DimensionError(f"psnr shapes differ: {av.shape} vs {bv.shape}")
    err = float(np.mean((av.astype(np.float64) - bv.astype(np.float64)) ** 2))
    if err == 0.0:
        return math.inf
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
    dynamic range 1.0, averaged over valid (unpadded) positions."""
    av, bv = _as_array(a).astype(np.float64), _as_array(b).astype(np.float64)
    av, bv = av.squeeze(), bv.squeeze()
    if av.shape != bv.shape:
        raise DimensionError(f"ssim shapes differ: {av.shape} vs {bv.shape}")
    if av.ndim != 2:
        raise DimensionError(f"ssim expects grayscale images, got shape {av.shape}")
    if min(av.shape) < SSIM_WINDOW:
        raise GeometryError(f"image {av.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    kernel = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    mu_a = _windowed_mean(av, kernel)
    mu_b = _windowed_mean(bv, kernel)
    var_a = _windowed_mean(av * av, kernel) - mu_a * mu_a
    var_b = _windowed_mean(bv * bv, kernel) - mu_b * mu_b
    cov = _windowed_mean(av * bv, kernel) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def add_gaussian_noise(y, sigma, seed):
    """y + N(0, sigma^2) elementwise, seeded; sigma 0 returns y unchanged."""
    if not is_finite_real(sigma) or sigma < 0:
        raise ConfigError(f"noise sigma must be a finite real >= 0, got {sigma!r}")
    arr = _as_array(y)
    if sigma == 0:
        return Tensor(arr.copy()) if isinstance(y, Tensor) else arr.copy()
    rng = np.random.default_rng(seed)
    noisy = arr + rng.normal(0.0, sigma, size=arr.shape).astype(arr.dtype)
    return Tensor(noisy) if isinstance(y, Tensor) else noisy
