"""Contract fuzz of the public entry points: given a hostile value in one argument, each call
either succeeds or raises a DualPathError subclass, and a call that raises leaves every model
parameter, moment and step count as it was."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpath_cs import ops
from dualpath_cs.autograd import precision, tensor
from dualpath_cs.checkpoint import load_checkpoint, restore_model, save_checkpoint
from dualpath_cs.errors import DualPathError
from dualpath_cs.metrics import add_gaussian_noise, psnr, ssim
from dualpath_cs.model import check_extents
from dualpath_cs.nn import Parameter
from dualpath_cs.pgm import read_pgm, write_pgm
from dualpath_cs.sampling import BlockSensingMatrix, build_dual_sampler, sample
from dualpath_cs.training import TrainConfig, build_model, build_optimizer, extract_patches, train_step
from test_checkpoint import SMALL, assert_model_state, model_state, saved

_VALUES = [
    None, True, False, 0, -1, 2 ** 64, -2 ** 64, 10 ** 400, 136, 256,
    float("nan"), float("inf"), -float("inf"), 1e308,
    "", "ab", b"ab", {}, {"a": 1}, [], [[]], (8, 8), [[1.0, 2.0], [3.0]], [1, [2]], [None],
    np.float64(2.0), np.array(2.0), np.array([]), np.zeros((0, 4)), np.zeros((1, 1, 0, 0)),
    np.array([None, 1], dtype=object), np.array(["a", "b"]), np.ones((2, 2), complex),
    np.array([2 ** 64]), np.array([[np.nan, np.inf], [-np.inf, 0.0]]),
    np.full((1, 1, 16, 16), np.nan), np.ones((1, 1, 16, 16), bool),
]
# Ragged lists, 0-d and empty arrays, object, string and complex arrays, NaN and infinities, huge
# integers, bools, dicts and None; drawn text never holds a path separator, so a path stays in the
# working directory.
HOSTILE = st.one_of(
    st.sampled_from(_VALUES),
    st.integers(), st.floats(), st.text(st.characters(blacklist_characters="/\\"), max_size=3),
    st.lists(st.one_of(st.floats(), st.lists(st.floats(), max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.one_of(st.none(), st.integers()), max_size=2),
)


class World:
    """A small model with its optimizer and checkpoint, and valid values for every other argument."""

    def __init__(self, workdir):
        config = TrainConfig(**SMALL)
        self.model = build_model(config)
        self.optimizer = build_optimizer(self.model, config)
        self.header, self.state = saved(workdir / "m.ckpt")
        self.path = workdir / "out"
        self.image = np.random.default_rng(0).uniform(0, 1, (16, 16))
        self.y = sample(self.model.sampler, tensor(self.image.reshape(1, 1, 16, 16)))


def _config(field):
    return lambda w, v: TrainConfig(**{**SMALL, field: v})


def _precision(mode):
    with precision(mode):
        pass


CALLS = {
    **{f"TrainConfig.{field}": _config(field) for field in sorted(TrainConfig.__dataclass_fields__)},
    "TrainConfig.from_dict": lambda w, v: TrainConfig.from_dict(v),
    "build_dual_sampler.gamma": lambda w, v: build_dual_sampler(v, (1, 2), 4, 0),
    "build_dual_sampler.split": lambda w, v: build_dual_sampler(0.5, v, 4, 0),
    # gamma 0.02 keeps the largest accepted sampler, B = 128, to 328 + 328 rows of 16384.
    "build_dual_sampler.block_size": lambda w, v: build_dual_sampler(0.02, (1, 1), v, 0),
    "build_dual_sampler.seed": lambda w, v: build_dual_sampler(0.5, (1, 2), 4, v),
    "BlockSensingMatrix.weights": lambda w, v: BlockSensingMatrix(v),
    "Parameter.array": lambda w, v: Parameter(v),
    "check_extents.hw": lambda w, v: check_extents(v, 4),
    "DualPathModel.reconstruct.hw": lambda w, v: w.model.reconstruct(*w.y, v),
    "extract_patches.image": lambda w, v: extract_patches(v, 8),
    "extract_patches.patch": lambda w, v: extract_patches(w.image, v),
    "train_step.batch": lambda w, v: train_step(v, w.model, w.optimizer),
    "train_step.patch": lambda w, v: train_step([v], w.model, w.optimizer),
    "psnr.a": lambda w, v: psnr(v, w.image),
    "psnr.b": lambda w, v: psnr(w.image, v),
    "ssim.a": lambda w, v: ssim(v, w.image),
    "ssim.b": lambda w, v: ssim(w.image, v),
    "add_gaussian_noise.y": lambda w, v: add_gaussian_noise(v, 0.1, 0),
    "add_gaussian_noise.sigma": lambda w, v: add_gaussian_noise(w.image, v, 0),
    "add_gaussian_noise.seed": lambda w, v: add_gaussian_noise(w.image, 0.1, v),
    "write_pgm.path": lambda w, v: write_pgm(v, w.image),
    "write_pgm.image": lambda w, v: write_pgm(w.path, v),
    "read_pgm.path": lambda w, v: read_pgm(v),
    "save_checkpoint.path": lambda w, v: save_checkpoint(v, w.model),
    "save_checkpoint.epoch": lambda w, v: save_checkpoint(w.path, w.model, epoch=v),
    "save_checkpoint.config": lambda w, v: save_checkpoint(w.path, w.model, config=v),
    "load_checkpoint.path": lambda w, v: load_checkpoint(v),
    "restore_model.header": lambda w, v: restore_model(w.model, v, w.state),
    "restore_model.state": lambda w, v: restore_model(w.model, w.header, v),
    "tensor": lambda w, v: tensor(v),
    "KeyPlan.mask": lambda w, v: ops.KeyPlan(v),
    "precision.mode": lambda w, v: _precision(v),
}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The World, with the working directory in a fresh folder while the fuzz writes paths it draws."""
    workdir = tmp_path_factory.mktemp("contract")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield World(workdir)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("call", sorted(CALLS))
@settings(max_examples=25)
@given(value=HOSTILE)
def test_succeeds_or_raises_a_dual_path_error(world, call, value):
    before = model_state(world.model)
    try:
        CALLS[call](world, value)
    except DualPathError:
        assert_model_state(world.model, before)
