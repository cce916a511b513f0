"""Full dual-path model: sampler, hyperprior branch, K unrolled stages."""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autograd import Tensor
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

    def split(self, n):
        """One trace per sample of a forward over n samples, as constant tensors."""
        def part(t, i):
            return Tensor(np.split(t.data, n)[i])
        return [ReconstructionTrace(
            part(self.output, i), [part(s, i) for s in self.stages],
            HyperpriorSignal(part(self.signal.features, i), part(self.signal.grad_map, i)),
            GuidanceBundle(part(self.guidance.hard_mask, i), part(self.guidance.soft_map, i)),
            [part(p, i) for p in self.step_maps], tuple(part(y, i) for y in self.measurements))
            for i in range(n)]


class DualPathModel(Module):
    """End-to-end sampler + reconstructor with jointly learnable weights."""

    def __init__(self, gamma, split, block_size, stages, channels, rho, seed):
        self.block_size = block_size
        self.num_stages = stages

        self.sampler = build_dual_sampler(gamma, split, block_size, seed)  # first: it refuses a bad seed
        rng = np.random.default_rng(seed)
        self.fusion = Conv2d(2, 1, 3, rng)
        self.hyperprior = HyperpriorBranch(channels, rho, rng)
        self.stages = [ReconstructionStage(channels, rng) for _ in range(stages)]

    def check_extents(self, hw):
        h, w = hw
        if h % self.block_size or w % self.block_size:
            raise GeometryError(f"extents {h}x{w} not divisible by block size {self.block_size}")
        if h % 4 or w % 4:
            raise GeometryError(f"extents {h}x{w} not divisible by 4 (scale pyramid)")

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
        z = (0.0,) * 3  # stage 1 carries no U-Net features: a zero at every scale
        for k, stage in enumerate(self.stages, start=1):
            m_stage = stage_factor(k, self.num_stages, x.shape, dtype=x.dtype)
            x, z, p = stage(x, gram, back, signal, guidance, m_stage, z)
            trace.stages.append(x)
            trace.step_maps.append(p)
        trace.output = x
        return trace

    def forward(self, image):
        """Sample [N,1,H,W] images and reconstruct them; returns the full trace."""
        y1, y2 = sample(self.sampler, image)
        return self.reconstruct(y1, y2, image.shape[2:])

    def sampler_parameters(self):
        return [self.sampler.phi1.weights, self.sampler.phi2.weights]
