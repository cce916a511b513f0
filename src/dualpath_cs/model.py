"""Full dual-path model: sampler, hyperprior branch, K unrolled stages.
`sampling.initial_recon` builds x0, G and b from the measurements; `reconstruct` only composes."""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autograd import Tensor
from .errors import ConfigError, GeometryError, ResourceError, is_integer
from .hyperprior import GuidanceBundle, HyperpriorBranch, HyperpriorSignal, check_rho
from .nn import Conv2d, Module
from .reconstruction import ReconstructionStage
from .sampling import TOKEN_CAP, build_dual_sampler, initial_recon, sample

ARCHITECTURE_CAP = 4 * 64 ** 2  # stages x channels^2, which the parameter count grows as


def check_architecture(stages, channels, rho):
    """Reject with ConfigError a stage count, a channel width or a mask fraction outside its range, and
    stages x channels^2 above `ARCHITECTURE_CAP`: 18,438,852 parameters at 4 x 64^2, 1,162,980 at 4 x 16^2."""
    for name, value in (("stages", stages), ("channels", channels)):
        if not (is_integer(value) and value >= 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if int(stages) * int(channels) ** 2 > ARCHITECTURE_CAP:
        raise ConfigError(f"stages x channels^2 = {stages} x {channels}^2 exceeds the cap {ARCHITECTURE_CAP}")
    check_rho(rho)


def check_extents(hw, block_size):
    """Raise GeometryError unless H and W are divisible by the block size and by 4 (the U-Net's scales),
    and ResourceError if H*W exceeds `TOKEN_CAP`, the attention's tokens per sample."""
    if not (isinstance(hw, (tuple, list)) and len(hw) == 2 and all(is_integer(e) and e > 0 for e in hw)):
        raise GeometryError(f"extents must be two positive integers, got {hw!r}")
    h, w = hw
    if h % block_size or w % block_size:
        raise GeometryError(f"extents {h}x{w} not divisible by block size {block_size}")
    if h % 4 or w % 4:
        raise GeometryError(f"extents {h}x{w} not divisible by 4 (scale pyramid)")
    if h * w > TOKEN_CAP:
        raise ResourceError(f"{h * w} attention tokens exceed the cap {TOKEN_CAP}")


@dataclass
class ReconstructionTrace:
    """Per-stage estimates and diagnostics of one forward pass; `output` is the final estimate."""

    stages: list = field(default_factory=list)  # x^(0) .. x^(K)
    signal: HyperpriorSignal = None
    guidance: GuidanceBundle = None
    step_maps: list = field(default_factory=list)
    measurements: tuple = None

    @property
    def output(self):
        return self.stages[-1]

    def split(self):
        """One trace per sample of the forward, as constant tensors."""
        def part(t, i):
            return Tensor(np.split(t.data, n)[i])
        n = len(self.output.data)
        return [ReconstructionTrace(
            [part(s, i) for s in self.stages],
            HyperpriorSignal(part(self.signal.features, i), part(self.signal.grad_map, i)),
            GuidanceBundle(ops.KeyPlan(part(self.guidance.hard_mask, i)),
                           tuple(part(m, i) for m in self.guidance.soft_pyramid)),
            [part(p, i) for p in self.step_maps], tuple(part(y, i) for y in self.measurements))
            for i in range(n)]


class DualPathModel(Module):
    """End-to-end sampler + reconstructor with jointly learnable weights."""

    def __init__(self, gamma, split, block_size, stages, channels, rho, seed):
        check_architecture(stages, channels, rho)
        self.sampler = build_dual_sampler(gamma, split, block_size, seed)  # it refuses a bad seed
        rng = np.random.default_rng(seed)
        self.fusion = Conv2d(2, 1, 3, rng)
        self.hyperprior = HyperpriorBranch(channels, rho, rng)
        self.stages = [ReconstructionStage(channels, rng, k, stages) for k in range(1, stages + 1)]

    def reconstruct(self, y1, y2, hw):
        """Run the hyperprior branch and all K stages on given measurements; extents that
        `check_extents` refuses raise before any op runs."""
        check_extents(hw, self.sampler.phi1.block_size)
        x, x1, gram1, gram, back = initial_recon(self.sampler, y1, y2, self.fusion, hw)
        signal, guidance = self.hyperprior(x1, gram1, self.sampler.phi1.block_size)
        del x1, gram1  # the stages need only G and b; without a tape this frees them
        stages, step_maps = [x], []
        z = (0.0,) * 3  # stage 1 carries no U-Net features: a zero at every scale
        for stage in self.stages:
            x, z, p = stage(x, gram, back, signal, guidance, z)
            stages.append(x)
            step_maps.append(p)
        return ReconstructionTrace(stages=stages, signal=signal, guidance=guidance,
                                   step_maps=step_maps, measurements=(y1, y2))

    def forward(self, image):
        """Sample [N,1,H,W] images and reconstruct them; returns the full trace."""
        y1, y2 = sample(self.sampler, image)
        return self.reconstruct(y1, y2, image.shape[2:])

    def sampler_parameters(self):
        return [self.sampler.phi1.weights, self.sampler.phi2.weights]
