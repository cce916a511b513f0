"""Patch ingestion, the MSE training loop, and the single-image overfit harness."""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import ops
from .autograd import no_grad, tensor
from .errors import ConfigError, ContractError, IngestionError, TrainingDivergenceError
from .metrics import psnr
from .model import DualPathModel
from .nn import Adam


@dataclass
class TrainConfig:
    gamma: float = 0.25
    split: tuple = (1, 4)
    block_size: int = 8
    stages: int = 4
    channels: int = 16
    rho: float = 0.5
    lr: float = 1e-4
    betas: tuple = (0.9, 0.999)
    batch_size: int = 4
    patch_size: int = 64
    seed: int = 0
    freeze_sampler: bool = False

    def __post_init__(self):
        self.split = tuple(self.split)
        self.betas = tuple(self.betas)
        align = 4 * self.block_size
        if self.patch_size % align:
            raise ConfigError(f"patch size {self.patch_size} must be divisible by 4*block_size={align}")
        if self.lr <= 0 or self.batch_size < 1:
            raise ConfigError("rates and counts must be positive")
        if not (0.0 < self.rho <= 1.0):
            raise ConfigError(f"rho must lie in (0, 1], got {self.rho}")

    def to_dict(self):
        d = asdict(self)
        d["split"] = list(self.split)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def build_model(config):
    """The configured model; a frozen sampler's weights are constants to the tape."""
    model = DualPathModel(
        gamma=config.gamma,
        split=config.split,
        block_size=config.block_size,
        stages=config.stages,
        channels=config.channels,
        rho=config.rho,
        seed=config.seed,
    )
    if config.freeze_sampler:
        for p in model.sampler_parameters():
            p.value.requires_grad = False
    return model


def build_optimizer(model, config):
    """Adam over the model's parameters that take gradients."""
    params = [p for p in model.parameters() if p.value.requires_grad]
    return Adam(params, lr=config.lr, beta1=config.betas[0], beta2=config.betas[1])


def extract_patches(image, patch, stride=None, augment=False, seed=0):
    """Tile an [H,W] image into [1,1,patch,patch] arrays, row-major, optionally
    flipped/rotated (each with probability 1/2, seeded)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise IngestionError(f"expected a 2-d grayscale image, got shape {arr.shape}")
    h, w = arr.shape
    if h < patch or w < patch:
        raise IngestionError(f"image {h}x{w} smaller than patch {patch}")
    stride = stride or patch
    rng = np.random.default_rng(seed)
    patches = []
    for i in range(0, h - patch + 1, stride):
        for j in range(0, w - patch + 1, stride):
            tile = arr[i:i + patch, j:j + patch].copy()
            if augment:
                if rng.random() < 0.5:
                    tile = tile[:, ::-1]
                if rng.random() < 0.5:
                    tile = tile[::-1, :]
                if rng.random() < 0.5:
                    tile = np.rot90(tile)
            patches.append(np.ascontiguousarray(tile).reshape(1, 1, patch, patch))
    return patches


def train_step(batch, model, optimizer):
    """One optimizer step on a batch of [1,1,H,W] patches; returns (loss, traces).

    The optimizer must update parameters of `model` only; a foreign parameter
    raises ContractError before the forward pass. Every model parameter ends
    the step with no gradient, whether the step succeeds or raises, so a frozen
    parameter or a failed step leaves nothing for the next backward to add to.
    """
    params = model.parameters()
    owned = {id(p) for p in params}
    for p in optimizer.params:
        if id(p) not in owned:
            raise ContractError(f"optimizer parameter {p.name or '?'} is not a parameter of the model")
    losses = []
    traces = []
    for item in batch:
        target = tensor(item)
        trace = model(target)
        losses.append(ops.mse(trace.output, target))
        traces.append(trace)
    total = losses[0]
    for extra in losses[1:]:
        total = ops.add(total, extra)
    if len(losses) > 1:
        total = ops.mul(total, 1.0 / len(losses))
    loss_value = total.item()
    if not np.isfinite(loss_value):
        raise TrainingDivergenceError(f"non-finite loss {loss_value}")
    try:
        total.backward()
        optimizer.step()
    finally:
        for p in params:
            p.value.grad = None
    return loss_value, traces


@dataclass
class OverfitResult:
    losses: list = field(default_factory=list)
    psnrs: list = field(default_factory=list)
    model: DualPathModel = None
    initial_psnr_x0: float = float("nan")
    final_psnr_x0: float = float("nan")
    final_psnr_xk: float = float("nan")


def overfit_single_image(image, config, steps, progress=None):
    """Train on one image (a single whole-image patch) and record loss/PSNR curves.

    Deterministic for a fixed config seed. Raises TrainingDivergenceError with
    the curves collected so far if the loss becomes non-finite.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr.reshape(1, 1, *arr.shape)
    model = build_model(config)
    optimizer = build_optimizer(model, config)
    result = OverfitResult(model=model)
    gt = arr[0, 0]
    with no_grad():
        result.initial_psnr_x0 = psnr(model(tensor(arr)).stages[0].data[0, 0], gt)
    for step in range(steps):
        try:
            loss, traces = train_step([arr], model, optimizer)
        except TrainingDivergenceError as err:
            err.history = list(zip(result.losses, result.psnrs))
            raise
        trace = traces[0]
        result.losses.append(loss)
        result.psnrs.append(psnr(trace.output.data[0, 0], gt))
        if progress is not None:
            progress(step, loss, result.psnrs[-1])
    with no_grad():
        trace = model(tensor(arr))
    result.final_psnr_x0 = psnr(trace.stages[0].data[0, 0], gt)
    result.final_psnr_xk = psnr(trace.output.data[0, 0], gt)
    return result
