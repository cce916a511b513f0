"""Block-based dual compressive sampling.

An image is split into non-overlapping BxB blocks (row-major); each block is
flattened row-major and measured by two learnable per-block matrices whose row
counts split the measurement budget round(gamma * B^2) in a configured ratio.
A batch [N,1,H,W] stacks its samples' blocks as rows: measurements are [N*num_blocks, rows].
Reconstruction uses them in Gram form: G = sum_i phi_iT phi_i and the
back-projection b = sum_i phi_iT y_i, so a data-fidelity gradient is G x - b.
`initial_recon` builds G, b and the initial estimate, the only place they are built.
"""

import math

import numpy as np

from . import ops
from .autograd import default_dtype
from .errors import ConfigError, DimensionError, GeometryError, is_finite_real, is_integer
from .nn import Module, Parameter

TOKEN_CAP = 16384  # pixels per sample the model reconstructs, 128x128: bounds attention's quadratic time


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


def unblockify(blocks, hw):
    """Inverse of :func:`blockify` for a target (H, W): [N*num_blocks, B*B] -> [N,1,H,W], B from the row width."""
    b = math.isqrt(blocks.shape[1]) if blocks.ndim == 2 else 0
    if b == 0 or b * b != blocks.shape[1]:
        raise DimensionError(f"expected [N*num_blocks, B*B] blocks, got {blocks.shape}")
    h, w = hw
    if h % b or w % b:
        raise GeometryError(f"extents {h}x{w} not divisible by block size {b}")
    nb = (h // b) * (w // b)
    if blocks.shape[0] % nb or not blocks.shape[0]:
        raise DimensionError(f"expected [N*{nb},{b * b}] blocks for {h}x{w}, got {blocks.shape}")
    grid = ops.reshape(blocks, (-1, h // b, w // b, b, b))
    grid = ops.transpose(grid, (0, 1, 3, 2, 4))
    return ops.reshape(grid, (-1, 1, h, w))


def check_block_size(block_size):
    """ConfigError unless B is an integer >= 2 whose BxB block fits `TOKEN_CAP`: no image the model
    reconstructs holds a larger block."""
    if not (is_integer(block_size) and 2 <= block_size and block_size * block_size <= TOKEN_CAP):
        raise ConfigError(f"block size must be an integer >= 2 with at most {TOKEN_CAP} pixels a block, "
                          f"got {block_size!r}")


class BlockSensingMatrix(Module):
    """One learnable per-block sensing matrix. Its weights fix its geometry: they must be
    [rows, B*B] with B >= 2 and 1 <= rows <= B*B, or DimensionError is raised."""

    def __init__(self, weights):
        self.weights = Parameter(weights)
        shape = self.weights.shape
        b = math.isqrt(shape[1]) if len(shape) == 2 else 0
        if b < 2 or b * b != shape[1] or not 1 <= shape[0] <= b * b:
            raise DimensionError(f"weights must be [rows, B*B] with B >= 2 and 1 <= rows <= B*B, got {shape}")

    @property
    def block_size(self):
        """B, the integer square root of the weights' width."""
        return math.isqrt(self.weights.shape[1])

    def measure(self, blocks):
        """Measure `blockify`'s rows [N*num_blocks, B*B]: [N*num_blocks, rows]."""
        return ops.matmul(blocks, ops.transpose(self.weights, (1, 0)))

    def adjoint(self, y, hw):
        """Transpose-apply measurements [N*num_blocks, rows] back to [N,1,H,W] images."""
        return unblockify(ops.matmul(y, self.weights), hw)

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
    check_block_size(block_size)
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
    return DualSampler(BlockSensingMatrix(w1), BlockSensingMatrix(w2))


def sample(sampler, x):
    """y1, y2 = phi1 x, phi2 x (differentiable w.r.t. x and the weights). The image is blockified
    once, and both matrices measure that one block array, which their gradients both keep."""
    blocks = blockify(x, sampler.phi1.block_size)
    return sampler.phi1.measure(blocks), sampler.phi2.measure(blocks)


def data_grad(gram, x, back):
    """sum_i phi_iT(phi_i x - y_i) as G x - b, given G = sum_i phi_iT phi_i and
    back = sum_i phi_iT y_i; G is symmetric, so block rows multiply it on the right."""
    blocks = ops.matmul(blockify(x, math.isqrt(gram.shape[0])), gram)
    return ops.sub(unblockify(blocks, x.shape[2:]), back)


def initial_recon(sampler, y1, y2, fuse_conv, hw):
    """(x0, x1, G1, G, b): x0 fuses x1 = phi1T y1 and x2 = phi2T y2; G1 = phi1T phi1
    and x1 feed the hyperprior, G = G1 + phi2T phi2 and b = x1 + x2 every stage.
    Backward adds into the shared phi weights in reverse creation order, so this
    order of the ops is part of the result's bits."""
    x1 = sampler.phi1.adjoint(y1, hw)
    x2 = sampler.phi2.adjoint(y2, hw)
    x0 = fuse_conv(ops.concat([x1, x2], axis=1))
    gram1 = sampler.phi1.gram()
    gram2 = sampler.phi2.gram()
    return x0, x1, gram1, ops.add(gram1, gram2), ops.add(x1, x2)
