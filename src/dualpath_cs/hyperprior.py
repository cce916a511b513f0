"""Hyperprior learning branch.

From the secondary stream's back-projection x1 = phi1T y1 and G1 = phi1T phi1
this produces
  - signal guidance: refined estimate features plus its data-fidelity
    gradient map G1 r - x1 = phi1T(phi1 r - y1) at the refined estimate r, and
  - gradient guidance: a block-constant binary mask over the top fraction of
    blocks ranked by mean absolute gradient, and a per-pixel confidence map in
    the open interval (1, 2).

The branch builds the gradient guidance once per forward in the form every
stage reads it: the mask as attention's key plan (`ops.KeyPlan`: each sample's
key order, kept keys first, and the count all samples keep) and the confidence
map as a pyramid at full, half and quarter size. No stage rebuilds either.

The mask path is deliberately not differentiated through: top-K selection is
treated as a constant during backward.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .autograd import Tensor
from .errors import ConfigError, GeometryError, is_finite_real
from .nn import Conv2d, Module, SpatialGate
from .sampling import data_grad

SOFT_LOGIT_LIMIT = 12.0


@dataclass
class HyperpriorSignal:
    """Content guidance: features of the refined estimate and its gradient map."""

    features: Tensor
    grad_map: Tensor


@dataclass
class GuidanceBundle:
    """Structural guidance, built once per forward and read by every stage.

    `key_plan` is the hard block mask as attention reads it (`ops.KeyPlan`): the [N,1,H,W] mask
    Tensor, `hard_mask`, with each sample's key order, kept keys first, and the count all samples keep.
    `soft_pyramid` is the soft confidence map, `soft_map`, at full, half and quarter size: the
    three scales of the soft-guided U-Net. Each stage's gradient reaches the shared resizes, which
    send their sum back to the map once.
    """

    key_plan: ops.KeyPlan
    soft_pyramid: tuple

    @property
    def hard_mask(self):
        return self.key_plan.mask

    @property
    def soft_map(self):
        return self.soft_pyramid[0]


class ResidualBlock(Module):
    def __init__(self, channels, rng):
        self.conv1 = Conv2d(channels, channels, 3, rng)
        self.conv2 = Conv2d(channels, channels, 3, rng)

    def forward(self, x):
        return ops.add(x, self.conv2(ops.relu(self.conv1(x))))


class RefinementNet(Module):
    """Coarse-estimate refiner: head conv, two residual blocks, tail with global skip."""

    def __init__(self, channels, rng):
        self.head = Conv2d(1, channels, 3, rng)
        self.blocks = [ResidualBlock(channels, rng) for _ in range(2)]
        self.tail = Conv2d(channels, 1, 3, rng)

    def forward(self, x):
        feats = self.head(x)
        for block in self.blocks:
            feats = block(feats)
        refined = ops.add(x, self.tail(feats))
        return refined, feats


class SoftMapNet(Module):
    """Confidence map 1 + sigmoid(conv(gelu(conv(SA(proj(grad)))))) in (1, 2).

    The pre-sigmoid logit is clamped to +-SOFT_LOGIT_LIMIT so float32
    saturation can never push the output onto the interval boundary.
    """

    def __init__(self, channels, rng):
        self.proj = Conv2d(1, channels, 3, rng)
        self.spatial = SpatialGate(rng)
        self.mix = Conv2d(channels, channels, 3, rng)
        self.out = Conv2d(channels, 1, 3, rng)

    def forward(self, grad_map):
        feats = self.spatial(self.proj(grad_map))
        logit = self.out(ops.gelu(self.mix(feats)))
        logit = ops.clip(logit, -SOFT_LOGIT_LIMIT, SOFT_LOGIT_LIMIT)
        return ops.add(ops.sigmoid(logit), 1.0)


def block_mean_abs_grad(grad_map, block_size):
    """Mean absolute gradient per block of [N,1,H,W]: N*num_blocks scores as blockify orders them.

    Feeds only the non-differentiable mask path, so it works on raw values.
    """
    arr = grad_map.data if isinstance(grad_map, Tensor) else np.asarray(grad_map)
    h, w = arr.shape[-2:]
    b = block_size
    if h % b or w % b:
        raise GeometryError(f"extents {h}x{w} not divisible by block size {b}")
    tiles = np.abs(arr).reshape(-1, h // b, b, w // b, b)
    return tiles.mean(axis=(2, 4)).reshape(-1)


def check_rho(rho):
    """Reject a mask fraction outside (0, 1] with ConfigError."""
    if not (is_finite_real(rho) and 0.0 < rho <= 1.0):
        raise ConfigError(f"rho must lie in (0, 1], got {rho!r}")


def build_hard_mask(block_scores, rho, block_size, hw):
    """Binary [N,1,H,W] mask of each sample's ceil(rho * num_blocks) top-scoring blocks.

    Ties break toward the lower block index (stable ordering); the result is
    constant within each block and constant to the tape.
    """
    check_rho(rho)
    h, w = hw
    nb_h, nb_w = h // block_size, w // block_size
    nb = nb_h * nb_w
    if block_scores.ndim != 1 or block_scores.size % nb or not block_scores.size:
        raise GeometryError(f"expected N*{nb} block scores for {h}x{w}, got {block_scores.shape}")
    scores = block_scores.reshape(-1, nb)
    k = int(np.ceil(rho * nb))
    order = np.argsort(-scores, axis=1, kind="stable")
    flags = np.zeros_like(scores)
    np.put_along_axis(flags, order[:, :k], 1.0, axis=1)
    return Tensor(flags.reshape(-1, 1, nb_h, nb_w).repeat(block_size, axis=2).repeat(block_size, axis=3))


def soft_pyramid(soft_map):
    """The [N,1,H,W] soft map at full, half and quarter size (H and W divisible by 4)."""
    half = ops.bilinear_resize(soft_map)
    return soft_map, half, ops.bilinear_resize(half)


class HyperpriorBranch(Module):
    """Full branch: refinement of the phi1 back-projection, guidance generation."""

    def __init__(self, channels, rho, rng):
        check_rho(rho)
        self.refiner = RefinementNet(channels, rng)
        self.soft_net = SoftMapNet(channels, rng)
        self.rho = rho

    def forward(self, x1, gram1, block_size):
        refined, feats = self.refiner(x1)
        grad_map = data_grad(gram1, refined, x1)
        scores = block_mean_abs_grad(grad_map, block_size)
        hard = build_hard_mask(scores, self.rho, block_size, x1.shape[2:])
        soft = self.soft_net(grad_map)
        signal = HyperpriorSignal(features=feats, grad_map=grad_map)
        return signal, GuidanceBundle(ops.KeyPlan(hard), soft_pyramid(soft))
