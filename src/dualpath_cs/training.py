"""The training configuration, the model and optimizer it builds, patch ingestion, and the MSE
training step that drives sampler, hyperprior branch and unfolded stages end to end."""

from dataclasses import asdict, dataclass

import numpy as np

from . import ops
from .autograd import tensor
from .errors import (ConfigError, ContractError, DimensionError, GeometryError, IngestionError, ResourceError,
                     TrainingDivergenceError, as_real_array, is_integer)
from .model import DualPathModel, check_architecture, check_extents
from .nn import Adam, adam_settings
from .sampling import split_rows


@dataclass
class TrainConfig:
    """A training run's settings; Adam's betas are the constants `nn.ADAM_BETA1` and `ADAM_BETA2`.
    `batch_size` is validated but read nowhere in the package, and `patch_size` only feeds the extent check."""

    gamma: float = 0.25
    split: tuple = (1, 4)
    block_size: int = 8
    stages: int = 4
    channels: int = 16
    rho: float = 0.5
    lr: float = 1e-4
    batch_size: int = 4
    patch_size: int = 64
    seed: int = 0
    freeze_sampler: bool = False

    def __post_init__(self):
        """Reject any field outside its legal range with ConfigError."""
        split_rows(self.gamma, self.split, self.block_size)
        self.split = tuple(self.split)
        check_architecture(self.stages, self.channels, self.rho)
        for name, least in (("batch_size", 1), ("patch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        try:
            check_extents((self.patch_size, self.patch_size), self.block_size)
        except (GeometryError, ResourceError) as err:
            raise ConfigError(str(err)) from None
        if adam_settings(self.lr) == 0.0:
            raise ConfigError(f"lr must be positive as a float, got {self.lr!r}")
        if not isinstance(self.freeze_sampler, bool):
            raise ConfigError(f"freeze_sampler must be a bool, got {self.freeze_sampler!r}")

    def to_dict(self):
        d = asdict(self)
        d["split"] = list(self.split)
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a dict, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
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
    return Adam(params, lr=config.lr)


def extract_patches(image, patch):
    """Tile an [H,W] image into non-overlapping [1,1,patch,patch] float64 arrays, row-major, dropping
    edge pixels that fill no whole tile. An image not 2-d, real-valued and one tile wide raises IngestionError."""
    if not (is_integer(patch) and patch >= 1):
        raise ContractError(f"patch must be an integer >= 1, got {patch!r}")
    arr = as_real_array(image, IngestionError)
    if arr.ndim != 2:
        raise IngestionError(f"expected a 2-d grayscale image, got shape {arr.shape}")
    h, w = arr.shape
    if h < patch or w < patch:
        raise IngestionError(f"image {h}x{w} smaller than patch {patch}")
    rows, cols = h // patch, w // patch
    tiles = arr[:rows * patch, :cols * patch].astype(np.float64).reshape(rows, patch, cols, patch)
    return list(tiles.transpose(0, 2, 1, 3).reshape(rows * cols, 1, 1, patch, patch))


def train_step(batch, model, optimizer):
    """One optimizer step on N [1,1,H,W] patches; returns (loss, one trace per patch).

    The patches run stacked as one [N,1,H,W] batch through one forward and one
    backward of the MSE over all of them. A batch that is empty or not iterable, or an
    optimizer with a parameter not of `model`, raises ContractError, patches not all [1,1,H,W]
    of one extent raise DimensionError, and a patch that is not bool, integer or
    real float raises IngestionError, each before the forward pass. Every model
    parameter ends the step with no gradient, whether the step succeeds or raises, so a frozen
    parameter or a failed step leaves nothing for the next backward to add to.
    The backward pass consumes the tape, so the returned traces hold values but
    no tape: no closure or saved array, and no backward can run through them.
    """
    try:
        batch = [as_real_array(item, IngestionError) for item in batch]
    except TypeError:  # not iterable
        raise ContractError(f"train_step needs a list of patches, got {type(batch).__name__}") from None
    if not batch:
        raise ContractError("train_step needs a batch of at least one patch")
    shapes = sorted({item.shape for item in batch})
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
    return loss_value, trace.split()
