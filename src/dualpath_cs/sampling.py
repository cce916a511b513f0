"""Block-based dual compressive sampling.

An image is split into non-overlapping BxB blocks (row-major); each block is
flattened row-major and measured by two learnable per-block matrices whose row
counts split the measurement budget round(gamma * B^2) in a configured ratio.
A batch [N,1,H,W] stacks its samples' blocks as rows: measurements are [N*num_blocks, rows].
Reconstruction uses them in Gram form: G = sum_i phi_iT phi_i and the
back-projection b = sum_i phi_iT y_i, so a data-fidelity gradient is G x - b.
"""

import math

import numpy as np

from . import ops
from .autograd import default_dtype
from .errors import ConfigError, DimensionError, GeometryError, is_finite_real, is_integer
from .nn import Module, Parameter


def round_half_up(x):
    return int(np.floor(x + 0.5))


def blockify(x, block_size):
    """[N,1,H,W] -> [N*num_blocks, B*B], sample by sample, blocks in row-major order (differentiable)."""
    if x.ndim != 4 or x.shape[1] != 1:
        raise DimensionError(f"blockify expects [N,1,H,W], got {x.shape}")
    n, _, h, w = x.shape
    b = block_size
    if h % b or w % b:
        raise GeometryError(f"extents {h}x{w} not divisible by block size {b}")
    grid = ops.reshape(x, (n, h // b, b, w // b, b))
    grid = ops.transpose(grid, (0, 1, 3, 2, 4))
    return ops.reshape(grid, (n * (h // b) * (w // b), b * b))


def unblockify(blocks, block_size, hw):
    """Inverse of :func:`blockify` for a target (H, W): [N*num_blocks, B*B] -> [N,1,H,W]."""
    h, w = hw
    b = block_size
    if h % b or w % b:
        raise GeometryError(f"extents {h}x{w} not divisible by block size {b}")
    nb = (h // b) * (w // b)
    if blocks.ndim != 2 or blocks.shape[1] != b * b or blocks.shape[0] % nb or not blocks.shape[0]:
        raise DimensionError(f"expected [N*{nb},{b * b}] blocks for {h}x{w}, got {blocks.shape}")
    grid = ops.reshape(blocks, (-1, h // b, w // b, b, b))
    grid = ops.transpose(grid, (0, 1, 3, 2, 4))
    return ops.reshape(grid, (-1, 1, h, w))


class BlockSensingMatrix(Module):
    """One learnable per-block sensing matrix of shape [rows, B*B]."""

    def __init__(self, rows, block_size, weights):
        if not (1 <= rows <= block_size * block_size):
            raise ConfigError(f"rows must lie in [1, B^2], got {rows} for B={block_size}")
        self.rows = rows
        self.block_size = block_size
        self.weights = Parameter(weights)

    def apply(self, x):
        """Measure [N,1,H,W] images: per-block measurement vectors [N*num_blocks, rows]."""
        blocks = blockify(x, self.block_size)
        return ops.matmul(blocks, ops.transpose(self.weights, (1, 0)))

    def adjoint(self, y, hw):
        """Transpose-apply measurements [N*num_blocks, rows] back to [N,1,H,W] images."""
        return unblockify(ops.matmul(y, self.weights), self.block_size, hw)

    def gram(self):
        """phiT phi [B*B, B*B]: the per-block normal operator."""
        return ops.matmul(ops.transpose(self.weights, (1, 0)), self.weights)


class DualSampler(Module):
    """Pair of sensing matrices (phi1, phi2) sharing one block grid."""

    def __init__(self, phi1, phi2):
        if phi1.block_size != phi2.block_size:
            raise ConfigError("phi1 and phi2 must share the block size")
        self.phi1 = phi1
        self.phi2 = phi2


def split_rows(gamma, split, block_size):
    """Measurement budget and its split: M_total = round(gamma*B^2), M1:M2 ~ s1:s2."""
    if not (is_finite_real(gamma) and 0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma!r}")
    if not (isinstance(split, (tuple, list)) and len(split) == 2
            and all(is_finite_real(s) and s > 0 for s in split)):
        raise ConfigError(f"split must be two positive numbers, got {split!r}")
    s1, s2 = (float(s) for s in split)
    if not (is_integer(block_size) and block_size >= 2 and is_finite_real(block_size * block_size)):
        raise ConfigError(f"block size must be an integer >= 2 with a finite square, got {block_size!r}")
    m_total = round_half_up(gamma * block_size * block_size)
    if m_total < 2:
        raise ConfigError(f"measurement budget {m_total} too small to split between two branches")
    share = m_total * s1 / (s1 + s2)
    if not math.isfinite(share):
        raise ConfigError(f"split {split!r} overflows the share of a budget of {m_total}")
    m1 = min(max(round_half_up(share), 1), m_total - 1)
    return m_total, m1, m_total - m1


def build_dual_sampler(gamma, split, block_size, seed):
    """Gaussian-initialized dual sampler; same seed gives bit-identical weights."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"sampler seed must be an integer >= 0, got {seed!r}")
    m_total, m1, m2 = split_rows(gamma, split, block_size)
    rng = np.random.default_rng(seed)
    sigma = 1.0 / block_size
    dt = default_dtype()
    w1 = (rng.standard_normal((m1, block_size * block_size)) * sigma).astype(dt)
    w2 = (rng.standard_normal((m2, block_size * block_size)) * sigma).astype(dt)
    return DualSampler(BlockSensingMatrix(m1, block_size, w1), BlockSensingMatrix(m2, block_size, w2))


def sample(sampler, x):
    """y1, y2 = phi1 x, phi2 x (differentiable w.r.t. x and the weights)."""
    return sampler.phi1.apply(x), sampler.phi2.apply(x)


def data_grad(gram, x, back):
    """sum_i phi_iT(phi_i x - y_i) as G x - b, given G = sum_i phi_iT phi_i and
    back = sum_i phi_iT y_i; G is symmetric, so block rows multiply it on the right."""
    b = math.isqrt(gram.shape[0])
    blocks = ops.matmul(blockify(x, b), gram)
    return ops.sub(unblockify(blocks, b, x.shape[2:]), back)


def initial_recon(sampler, y1, y2, fuse_conv, hw):
    """Fuse the two adjoint back-projections x1 = phi1T y1 and x2 = phi2T y2
    into the initial estimate; returns (x0, x1, x2)."""
    x1 = sampler.phi1.adjoint(y1, hw)
    x2 = sampler.phi2.adjoint(y2, hw)
    return fuse_conv(ops.concat([x1, x2], axis=1)), x1, x2
