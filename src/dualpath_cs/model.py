"""Full dual-path model: sampler, hyperprior branch, K unrolled stages."""

from dataclasses import dataclass, field

import numpy as np

from . import ops
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
        shapes = [(1, self.channels * 2**s, h // 2**s, w // 2**s) for s in range(3)]
        return tuple(Tensor(np.zeros(shape, dtype=default_dtype())) for shape in shapes)

    def reconstruct(self, y1, y2, hw):
        """Run the hyperprior branch and all K stages on given measurements; the
        Gram-form data terms (x1, G1 = phi1T phi1, G and b) are built once here."""
        self.check_extents(hw)
        x, x1, x2 = initial_recon(self.sampler, y1, y2, self.fusion, hw)
        gram1 = self.sampler.phi1.gram()
        gram = ops.add(gram1, self.sampler.phi2.gram())
        back = ops.add(x1, x2)
        signal, guidance = self.hyperprior(x1, gram1, self.block_size)
        del x1, x2, gram1  # the stages need only G and b; without a tape this frees them
        trace = ReconstructionTrace(output=x, signal=signal, guidance=guidance,
                                    measurements=(y1, y2))
        trace.stages.append(x)
        z = self.initial_state(hw)
        for k, stage in enumerate(self.stages, start=1):
            m_stage = stage_factor(k, self.num_stages, hw, dtype=x.dtype)
            x, z, p = stage(x, gram, back, signal, guidance, m_stage, z)
            trace.stages.append(x)
            trace.step_maps.append(p)
        trace.output = x
        return trace

    def forward(self, image):
        """Sample an image and reconstruct it; returns the full trace."""
        y1, y2 = sample(self.sampler, image)
        return self.reconstruct(y1, y2, image.shape[2:])

    def sampler_parameters(self):
        return [self.sampler.phi1.weights, self.sampler.phi2.weights]
