"""Full dual-path model: sampler, hyperprior branch, K unrolled stages."""

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, default_dtype
from .errors import GeometryError
from .hyperprior import GuidanceBundle, HyperpriorBranch, HyperpriorSignal
from .nn import Conv2d, Module
from .reconstruction import ReconstructionStage, stage_factor
from .sampling import build_dual_sampler, initial_recon, sample


@dataclass
class ReconstructionTrace:
    """Final estimate plus per-stage diagnostics of one forward pass."""

    output: Tensor
    stages: list = field(default_factory=list)  # x^(0) .. x^(K)
    signal: HyperpriorSignal = None
    guidance: GuidanceBundle = None
    step_maps: list = field(default_factory=list)
    stage_values: list = field(default_factory=list)
    measurements: tuple = None


class DualPathModel(Module):
    """End-to-end sampler + reconstructor with jointly learnable weights."""

    def __init__(self, gamma, split, block_size, stages, channels, rho, seed):
        self.block_size = block_size
        self.num_stages = stages
        self.channels = channels

        rng = np.random.default_rng(seed)
        self.sampler = build_dual_sampler(gamma, split, block_size, seed)
        self.fusion = Conv2d(2, 1, 3, rng)
        self.hyperprior = HyperpriorBranch(channels, rho, rng)
        self.stages = [ReconstructionStage(channels, rng) for _ in range(stages)]

    def check_extents(self, hw):
        h, w = hw
        if h % self.block_size or w % self.block_size:
            raise GeometryError(f"extents {h}x{w} not divisible by block size {self.block_size}")
        if h % 4 or w % 4:
            raise GeometryError(f"extents {h}x{w} not divisible by 4 (scale pyramid)")

    def initial_state(self, hw):
        h, w = hw
        c = self.channels
        dt = default_dtype()
        return (
            Tensor(np.zeros((1, c, h, w), dtype=dt)),
            Tensor(np.zeros((1, 2 * c, h // 2, w // 2), dtype=dt)),
            Tensor(np.zeros((1, 4 * c, h // 4, w // 4), dtype=dt)),
        )

    def reconstruct(self, y1, y2, hw):
        """Run the hyperprior branch and all K stages on given measurements."""
        self.check_extents(hw)
        signal, guidance = self.hyperprior(y1, self.sampler, hw)
        x0 = initial_recon(self.sampler, y1, y2, self.fusion, hw)
        trace = ReconstructionTrace(output=x0, signal=signal, guidance=guidance,
                                    measurements=(y1, y2))
        trace.stages.append(x0)
        z = self.initial_state(hw)
        x = x0
        total = self.num_stages
        for k, stage in enumerate(self.stages, start=1):
            m_stage = stage_factor(k, total, hw, dtype=x.dtype)
            x, z, p = stage(x, y1, y2, self.sampler, signal, guidance, m_stage, z)
            trace.stages.append(x)
            trace.step_maps.append(p)
            trace.stage_values.append(k / total)
        trace.output = x
        return trace

    def forward(self, image):
        """Sample an image and reconstruct it; returns the full trace."""
        hw = (image.shape[2], image.shape[3])
        y1, y2 = sample(self.sampler, image)
        return self.reconstruct(y1, y2, hw)

    def sampler_parameters(self):
        return [self.sampler.phi1.weights, self.sampler.phi2.weights]
