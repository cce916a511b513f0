"""Unrolled proximal-gradient reconstruction branch.

Each of the K stages runs a gradient-descent step with a learned spatially
varying step map (modulated by content guidance and relative stage progress)
on the Gram-form data term G x - b, which `sampling.initial_recon` builds once
per forward, followed by a learned proximal mapping: pixel-token attention
gated by the hard block mask, then a three-scale encoder-decoder whose
features are modulated by the soft confidence map and carried across stages.
"""

import numpy as np

from . import nn, ops
from .autograd import Tensor
from .errors import ContractError
from .nn import ChannelGate, Conv2d, ConvTranspose2x, LayerNormChannels, Module, SpatialGate
from .sampling import data_grad


def stage_factor(k, total, like):
    """Constant map k/total of the shape and dtype of `like`: the relative progress of stage k of `total`."""
    if not 1 <= k <= total:
        raise ContractError(f"stage index {k} outside [1, {total}]")
    return Tensor(np.full(like.shape, k / total, dtype=like.dtype))


class StepSizeGenerator(Module):
    """Step-map network: concat guidance, channel-attend, reduce to one channel.

    The channel attention is a `ChannelGate`; the final stack leaves the step
    map unconstrained in sign.
    """

    def __init__(self, channels, rng):
        self.gate = ChannelGate(channels + 2, rng)
        self.conv1 = Conv2d(channels + 2, channels, 3, rng)
        self.conv2 = Conv2d(channels, channels, 3, rng)
        self.out = Conv2d(channels, 1, 3, rng)

    def forward(self, signal, stage_map):
        f_in = ops.concat([signal.grad_map, signal.features, stage_map], axis=1)
        return self.out(ops.relu(self.conv2(ops.relu(self.conv1(self.gate(f_in))))))


def hgdm_step(x_prev, gram, back, p):
    """r = x - p * (G x - b), i.e. x - p * (phi1T(phi1 x - y1) + phi2T(phi2 x - y2))."""
    return ops.sub(x_prev, ops.mul(p, data_grad(gram, x_prev, back)))


class HardMaskedAttention(Module):
    """Pixel-token attention whose value features are gated by the hard mask.

    Tokens are pixels of the C-channel projection of r (single head, d = C). The N samples'
    tokens are stacked as one [N*H*W, C] matrix, which the op runs in one pass over its sample
    axis, and each sample's pixels attend only to that sample's pixels. Every pixel is a key of its
    sample's softmax, but only the pixels the block mask keeps, as many in every sample, contribute
    values: `forward` takes the binary [N,1,H,W] mask as its `ops.KeyPlan`, which the hyperprior
    branch builds once for every stage, and the op skips the dropped keys' values in its value
    gemms, forward and backward. The key projection has no bias: a shift b of
    every key adds q_i . b to the whole score row i, which softmax ignores, so such a bias would
    get a zero gradient. Attention memory is linear in the token count; its time is quadratic in
    the tokens per sample, and `sampling.TOKEN_CAP` bounds that time.
    """

    def __init__(self, channels, rng):
        self.proj = Conv2d(1, channels, 3, rng)
        self.to_q = Conv2d(channels, channels, 1, rng)
        self.to_k = nn.Parameter(nn.uniform_fan_in(rng, (channels, channels, 1, 1), channels))
        self.to_v = Conv2d(channels, channels, 1, rng)

    def forward(self, r, key_plan):
        n, _, h, w = r.shape
        feats = self.proj(r)

        def to_tokens(t):
            return ops.reshape(ops.transpose(t, (0, 2, 3, 1)), (n * h * w, -1))

        q = to_tokens(self.to_q(feats))
        k = to_tokens(nn.conv2d(feats, self.to_k))
        v = to_tokens(self.to_v(feats))
        att = ops.scaled_dot_attention(q, k, v, key_plan)
        att_map = ops.transpose(ops.reshape(att, (n, h, w, -1)), (0, 3, 1, 2))
        return ops.add(att_map, feats)


class DualAttentionUnit(Module):
    """LN -> parallel spatial+channel attention -> LN -> 2x-wide FFN, residual around each."""

    def __init__(self, channels, rng):
        self.norm1 = LayerNormChannels(channels)
        self.spatial = SpatialGate(rng)
        self.channel = ChannelGate(channels, rng)
        self.norm2 = LayerNormChannels(channels)
        self.ffn_in = Conv2d(channels, channels * 2, 3, rng)
        self.ffn_out = Conv2d(channels * 2, channels, 3, rng)

    def forward(self, x):
        z = self.norm1(x)
        x = ops.add(x, ops.add(self.spatial(z), self.channel(z)))
        z = self.norm2(x)
        return ops.add(x, self.ffn_out(ops.gelu(self.ffn_in(z))))


class SoftGuidedUNet(Module):
    """Three-scale encoder-decoder with per-scale soft-map modulation.

    Scale widths are (C, 2C, 4C); each scale's encoder input is modulated by the
    soft map at that scale, read from the pyramid (full, half and quarter size)
    that the hyperprior branch resizes once for every stage; each scale entry
    adds the carried features from the previous stage (zero for the first);
    decoder levels merge skips through 1x1 convs. The carried
    state for the next stage is the decoder feature triple (before the final
    image conv).
    """

    def __init__(self, channels, rng):
        c1, c2, c3 = channels, channels * 2, channels * 4
        self.align = Conv2d(c1, c1, 1, rng)
        self.enc1 = DualAttentionUnit(c1, rng)
        self.down1 = Conv2d(c1, c2, 3, rng, stride=2)
        self.enc2 = DualAttentionUnit(c2, rng)
        self.down2 = Conv2d(c2, c3, 3, rng, stride=2)
        self.enc3 = DualAttentionUnit(c3, rng)
        self.up2 = ConvTranspose2x(c3, c2, rng)
        self.skip2 = Conv2d(c2 * 2, c2, 1, rng)
        self.dec2 = DualAttentionUnit(c2, rng)
        self.up1 = ConvTranspose2x(c2, c1, rng)
        self.skip1 = Conv2d(c1 * 2, c1, 1, rng)
        self.dec1 = DualAttentionUnit(c1, rng)
        self.out = Conv2d(c1, 1, 3, rng)

    def forward(self, att, z_prev, soft_pyramid):
        m1, m2, m3 = soft_pyramid
        f0 = self.align(att)
        e1 = self.enc1(ops.add(ops.mul(m1, f0), z_prev[0]))
        e2 = self.enc2(ops.add(ops.mul(m2, self.down1(e1)), z_prev[1]))
        e3 = self.enc3(ops.add(ops.mul(m3, self.down2(e2)), z_prev[2]))
        d2 = self.dec2(self.skip2(ops.concat([self.up2(e3), e2], axis=1)))
        d1 = self.dec1(self.skip1(ops.concat([self.up1(d2), e1], axis=1)))
        return self.out(d1), (d1, d2, e3)


class ReconstructionStage(Module):
    """Stage k of `total`: gradient step with a step map that sees k/total, then the learned proximal map."""

    def __init__(self, channels, rng, k, total):
        self.k, self.total = k, total
        self.step_gen = StepSizeGenerator(channels, rng)
        self.hard_att = HardMaskedAttention(channels, rng)
        self.soft_unet = SoftGuidedUNet(channels, rng)

    def forward(self, x_prev, gram, back, signal, guidance, z_prev):
        p = self.step_gen(signal, stage_factor(self.k, self.total, x_prev))
        r = hgdm_step(x_prev, gram, back, p)
        att = self.hard_att(r, guidance.key_plan)
        x_next, z_next = self.soft_unet(att, z_prev, guidance.soft_pyramid)
        return x_next, z_next, p
