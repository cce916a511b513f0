"""Patch ingestion, the MSE training loop, and the single-image overfit harness."""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import ops
from .autograd import no_grad, tensor
from .errors import ConfigError, ContractError, DimensionError, IngestionError, TrainingDivergenceError, is_finite_real, is_integer
from .metrics import psnr
from .model import DualPathModel
from .nn import Adam, adam_settings
from .sampling import split_rows


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
        """Reject any field outside its legal range with ConfigError."""
        split_rows(self.gamma, self.split, self.block_size)
        self.split = tuple(self.split)
        for name, least in (("stages", 1), ("channels", 1), ("batch_size", 1), ("patch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        align = 4 * self.block_size
        if self.patch_size % align:
            raise ConfigError(f"patch size {self.patch_size} must be divisible by 4*block_size={align}")
        if not (is_finite_real(self.rho) and 0.0 < self.rho <= 1.0):
            raise ConfigError(f"rho must lie in (0, 1], got {self.rho!r}")
        if adam_settings(self.lr, self.betas)[0] == 0.0:
            raise ConfigError(f"lr must be positive as a float, got {self.lr!r}")
        self.betas = tuple(self.betas)
        if not isinstance(self.freeze_sampler, bool):
            raise ConfigError(f"freeze_sampler must be a bool, got {self.freeze_sampler!r}")

    def to_dict(self):
        d = asdict(self)
        d["split"] = list(self.split)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a dict, got {type(d).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(sorted(map(repr, unknown)))}")
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
            p.requires_grad = False
    return model


def build_optimizer(model, config):
    """Adam over the model's parameters that take gradients."""
    params = [p for p in model.parameters() if p.requires_grad]
    return Adam(params, lr=config.lr, beta1=config.betas[0], beta2=config.betas[1])


def extract_patches(image, patch, stride=None, augment=False, seed=0):
    """Tile an [H,W] image into [1,1,patch,patch] arrays, row-major, optionally
    flipped/rotated (each with probability 1/2, seeded)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise IngestionError(f"expected a 2-d grayscale image, got shape {arr.shape}")
    stride = patch if stride is None else stride
    for name, value, least in (("patch", patch, 1), ("stride", stride, 1), ("seed", seed, 0)):
        if not (is_integer(value) and value >= least):
            raise ContractError(f"{name} must be an integer >= {least}, got {value!r}")
    h, w = arr.shape
    if h < patch or w < patch:
        raise IngestionError(f"image {h}x{w} smaller than patch {patch}")
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
    """One optimizer step on N [1,1,H,W] patches; returns (loss, one trace per patch).

    The patches run stacked as one [N,1,H,W] batch through one forward and one
    backward of the MSE over all of them. An empty batch, or an optimizer with a
    parameter not of `model`, raises ContractError, and patches not all [1,1,H,W]
    of one extent raise DimensionError, each before the forward pass. Every model
    parameter ends the step with no gradient, whether the step succeeds or raises, so a frozen
    parameter or a failed step leaves nothing for the next backward to add to.
    The backward pass consumes the tape, so the returned traces hold values but
    no tape: no closure or saved array, and no backward can run through them.
    """
    if len(batch) == 0:
        raise ContractError("train_step needs a batch of at least one patch")
    shapes = sorted({np.shape(item) for item in batch})
    if len(shapes) != 1 or len(shapes[0]) != 4 or shapes[0][:2] != (1, 1):
        raise DimensionError(f"train_step expects [1,1,H,W] patches of one extent, got {shapes}")
    params = model.parameters()
    owned = {id(p) for p in params}
    for p in optimizer.params:
        if id(p) not in owned:
            raise ContractError(f"optimizer parameter {p.name or '?'} is not a parameter of the model")
    target = tensor(np.concatenate(batch))
    trace = model(target)
    loss = ops.mse(trace.output, target)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise TrainingDivergenceError(f"non-finite loss {loss_value}")
    try:
        loss.backward()
        optimizer.step()
    finally:
        for p in params:
            p.grad = None
    return loss_value, trace.split(len(batch))


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
            loss, (trace,) = train_step([arr], model, optimizer)
        except TrainingDivergenceError as err:
            err.history = list(zip(result.losses, result.psnrs))
            raise
        result.losses.append(loss)
        result.psnrs.append(psnr(trace.output.data[0, 0], gt))
        if progress is not None:
            progress(step, loss, result.psnrs[-1])
    with no_grad():
        trace = model(tensor(arr))
    result.final_psnr_x0 = psnr(trace.stages[0].data[0, 0], gt)
    result.final_psnr_xk = psnr(trace.output.data[0, 0], gt)
    return result
