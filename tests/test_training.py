"""Training loop mechanics, determinism, and checkpoint persistence."""

import math
import os
import zipfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpath_cs.autograd import no_grad, precision, tensor
from dualpath_cs.checkpoint import load_checkpoint, restore_model, save_checkpoint
from dualpath_cs.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    DimensionError,
    GeometryError,
    IngestionError,
    ResourceError,
    TrainingDivergenceError,
)
from dualpath_cs.metrics import psnr
from dualpath_cs.sampling import TOKEN_CAP
from dualpath_cs.training import (
    TrainConfig,
    build_model,
    build_optimizer,
    extract_patches,
    train_step,
)
from test_checkpoint import _assert_rejected_untouched, npy_bytes, read_members, rewrite

TINY = dict(gamma=0.5, split=(1, 2), block_size=4, stages=2, channels=8,
            patch_size=16, batch_size=1, seed=7)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return TrainConfig(**params)


def random_image(rng, size=16):
    return rng.uniform(0, 1, (size, size))


def train(cfg, image, steps):
    """The model `cfg` builds after `steps` train_steps on one [H,W] image, and each step's
    (loss, trace)."""
    model = build_model(cfg)
    optimizer = build_optimizer(model, cfg)
    batch = [image.reshape(1, 1, *image.shape)]
    history = []
    for _ in range(steps):
        loss, (trace,) = train_step(batch, model, optimizer)
        history.append((loss, trace))
    return model, history


class TestTrainConfig:
    def test_patch_alignment_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(patch_size=36, block_size=8)

    @pytest.mark.parametrize("patch", [24, 36, 40, 44, 48, 136])
    def test_patch_accepted_exactly_when_the_model_reconstructs_it(self, rng, patch):
        """At B = 8 the model reconstructs every multiple of 8, not only the multiples of 4*B, up to
        the attention's token cap: 136 is a multiple of 8, but 136² tokens exceed it."""
        fields = dict(block_size=8, stages=1, channels=4)
        image = random_image(rng, patch)
        if patch % 8:
            error, match = GeometryError, "not divisible by block size 8"
        elif patch * patch > TOKEN_CAP:
            error, match = ResourceError, "exceed the cap"
        else:
            _, [(loss, trace)] = train(tiny_config(**fields, patch_size=patch), image, steps=1)
            assert np.isfinite(loss) and trace.output.shape == (1, 1, patch, patch)
            return
        with pytest.raises(error, match=match):
            build_model(tiny_config(**fields))(tensor(image.reshape(1, 1, patch, patch)))
        with pytest.raises(ConfigError, match=match):
            tiny_config(**fields, patch_size=patch)

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            tiny_config(rho=0.0)

    def test_json_round_trip(self):
        cfg = tiny_config(rho=0.25, lr=2e-4)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"gamma": 0.25, "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(None)

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("split", (1, -2)), ("batch_size", 2.5), ("patch_size", 0),
        ("stages", 0), ("channels", 0), ("channels", -3), ("split", (1,)), ("seed", -1),
        ("gamma", "0.5"), ("block_size", 4.0), ("rho", float("nan")), ("lr", None),
        ("freeze_sampler", "no"),
        pytest.param("block_size", 10**200, id="block_size-1e200"),
        pytest.param("lr", 10**400, id="lr-1e400"),
        pytest.param("split", (1e308, 1e308), id="split-overflowing-share"),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigError):
            tiny_config(**{field: value})

    def test_lr_that_rounds_to_zero_rejected(self):
        # Positive as a Fraction, but 0.0 as the float Adam computes with.
        with pytest.raises(ConfigError, match="lr"):
            tiny_config(lr=Fraction(1, 10**400))

    def test_unknown_fields_of_mixed_key_types_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields: 'bogus', 1"):
            TrainConfig.from_dict({"gamma": 0.25, "bogus": 1, 1: 0})


# Values of every kind a JSON-ish config could carry, from valid ones through
# NaN, infinities, huge integers and wrong types.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(min_value=-4, max_value=80), st.integers(),
    st.sampled_from([10**200, 10**400, -10**400, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(min_value=0.0, max_value=1.0),
    st.fractions(),
)
_CONFIG_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), st.tuples(_SCALARS, _SCALARS))
_FIELDS = sorted(TrainConfig.__dataclass_fields__)


class TestTrainConfigFuzz:
    @settings(max_examples=400)
    @given(st.one_of(
        st.dictionaries(st.sampled_from(_FIELDS), _CONFIG_VALUES),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), _CONFIG_VALUES, min_size=1),
    ))
    def test_from_dict_raises_only_config_error(self, d):
        try:
            cfg = TrainConfig.from_dict(d)
        except ConfigError:
            return
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestExtractPatches:
    def test_exact_fit_single_patch(self, rng):
        patches = extract_patches(rng.uniform(0, 1, (128, 128)), 128)
        assert len(patches) == 1
        assert patches[0].shape == (1, 1, 128, 128)

    def test_tiling_count(self, rng):
        patches = extract_patches(rng.uniform(0, 1, (256, 256)), 128)
        assert len(patches) == 4

    def test_row_major_tiles_drop_the_incomplete_edge(self, rng):
        img = rng.uniform(0, 1, (70, 70))
        patches = extract_patches(img, 32)
        expect = [img[i:i + 32, j:j + 32] for i in (0, 32) for j in (0, 32)]
        assert len(patches) == 4
        for got, tile in zip(patches, expect):
            assert got.shape == (1, 1, 32, 32) and got.dtype == np.float64
            assert np.array_equal(got[0, 0], tile)

    def test_too_small_rejected(self, rng):
        with pytest.raises(IngestionError):
            extract_patches(rng.uniform(0, 1, (16, 16)), 32)

    @pytest.mark.parametrize("patch", [-4, 0, 4.0, True, "4"])
    def test_bad_patch_rejected(self, rng, patch):
        with pytest.raises(ContractError):
            extract_patches(rng.uniform(0, 1, (16, 16)), patch)

    @pytest.mark.parametrize("image", [np.full((16, 16), "a"), np.ones((16, 16), complex), [[None] * 16] * 16,
                                       [[1.0, 2.0], [3.0]]],
                             ids=["strings", "complex", "objects", "ragged"])
    def test_non_real_image_rejected(self, image):
        # A ragged list leaked np.asarray's bare ValueError ("inhomogeneous shape").
        with pytest.raises(IngestionError):
            extract_patches(image, 8)


class TestTrainStep:
    def test_zero_lr_leaves_parameters_bit_identical(self, rng):
        cfg = tiny_config()
        model = build_model(cfg)
        from dualpath_cs.nn import Adam

        optimizer = Adam(model.parameters(), lr=0.0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train_step([random_image(rng).reshape(1, 1, 16, 16)], model, optimizer)
        for name, param in model.named_parameters():
            assert np.array_equal(param.data, before[name]), name

    def test_duplicated_batch_same_loss(self, rng):
        img = random_image(rng).reshape(1, 1, 16, 16)
        cfg = tiny_config()
        model = build_model(cfg)
        loss_single, _ = train_step([img], model, build_optimizer(model, cfg))
        model = build_model(cfg)
        loss_double, _ = train_step([img, img], model, build_optimizer(model, cfg))
        assert loss_single == loss_double

    @pytest.mark.parametrize("shapes,dtype,error", [
        ([], float, ContractError),
        ([(1, 16, 16)], float, DimensionError),
        ([(2, 1, 16, 16)], float, DimensionError),
        ([(1, 2, 16, 16)], float, DimensionError),
        ([(1, 1, 16, 16), (1, 1, 32, 32)], float, DimensionError),
        ([(1, 1, 16, 16), (1, 1, 16, 16)], complex, IngestionError),
        ([(1, 1, 16, 16)], str, IngestionError),
    ], ids=["empty", "rank-3", "two-samples", "two-channels", "mixed-extents", "complex", "strings"])
    def test_bad_batch_rejected_before_forward(self, rng, shapes, dtype, error):
        self._assert_rejected_before_forward([rng.uniform(0, 1, s).astype(dtype) for s in shapes], error)

    @pytest.mark.parametrize("batch,error", [
        (None, ContractError), (3, ContractError), (True, ContractError), ([[[[1.0, 2.0], [3.0]]]], IngestionError),
    ], ids=["none", "number", "bool", "ragged-patch"])
    def test_batch_not_a_list_of_arrays_rejected_before_forward(self, batch, error):
        # len(batch) raised a bare TypeError, and np.shape of a ragged patch a bare ValueError.
        self._assert_rejected_before_forward(batch, error)

    @staticmethod
    def _assert_rejected_before_forward(batch, error):
        cfg = tiny_config()
        model = build_model(cfg)
        optimizer = build_optimizer(model, cfg)
        model.forward = lambda *args: pytest.fail("forward ran on a bad batch")
        marker = np.ones(1)
        before = [param.data.copy() for param in model.parameters()]
        for param in model.parameters():
            param.grad = marker
        with pytest.raises(error):
            train_step(batch, model, optimizer)
        assert all(param.grad is marker for param in model.parameters())
        assert all(np.array_equal(param.data, b) for param, b in zip(model.parameters(), before))

    def test_each_trace_matches_its_own_forward(self, rng):
        images = [random_image(rng).reshape(1, 1, 16, 16) for _ in range(3)]
        cfg = tiny_config()
        model = build_model(cfg)
        with no_grad():
            alone = [model(tensor(img)) for img in images]
        _, traces = train_step(images, model, build_optimizer(model, cfg))
        assert len(traces) == 3
        nb = (16 // cfg.block_size) ** 2
        for trace, ref in zip(traces, alone):
            for got, expect in zip([trace.output] + trace.stages, [ref.output] + ref.stages):
                assert got.shape == (1, 1, 16, 16)
                assert np.allclose(got.data, expect.data, rtol=1e-5, atol=1e-6)
            assert np.array_equal(trace.guidance.hard_mask.data, ref.guidance.hard_mask.data)
            for y, y_ref, phi in zip(trace.measurements, ref.measurements, (model.sampler.phi1, model.sampler.phi2)):
                assert y.shape == (nb, phi.weights.shape[0])
                assert np.allclose(y.data, y_ref.data, rtol=1e-5, atol=1e-6)

    def test_batch_loss_and_gradients_are_sample_means(self, rng):
        class GradientRecorder:
            def __init__(self, params):
                self.params = params
                self.grads = None

            def step(self):
                self.grads = [p.grad.copy() for p in self.params]

        images = [random_image(rng).reshape(1, 1, 16, 16) for _ in range(3)]
        with precision("f64"):
            model = build_model(tiny_config())

            def run(batch):
                recorder = GradientRecorder(model.parameters())
                loss, _ = train_step(batch, model, recorder)
                return loss, recorder.grads

            batch_loss, batch_grads = run(images)
            single = [run([img]) for img in images]
        assert batch_loss == pytest.approx(np.mean([loss for loss, _ in single]), rel=1e-12, abs=0)
        for i, got in enumerate(batch_grads):
            mean = np.mean([grads[i] for _, grads in single], axis=0)
            assert np.max(np.abs(got - mean)) <= 1e-9 * np.max(np.abs(mean))

    def test_foreign_optimizer_rejected_before_forward(self, rng):
        cfg = tiny_config()
        model = build_model(cfg)
        foreign = build_optimizer(build_model(cfg), cfg)
        model.forward = lambda *args: pytest.fail("forward ran with a foreign optimizer")
        with pytest.raises(ContractError, match=r"sampler\.phi1\.weights is not a parameter of the model"):
            train_step([random_image(rng).reshape(1, 1, 16, 16)], model, foreign)
        for name, param in model.named_parameters():
            assert param.grad is None, name

    def test_failed_step_leaves_no_gradient(self, rng):
        from dualpath_cs.nn import Adam, Parameter

        cfg = tiny_config()
        model = build_model(cfg)
        # A parameter the model owns but the loss never reaches: Adam raises.
        model.unused = Parameter(np.zeros(1))
        optimizer = Adam(model.parameters(), lr=cfg.lr)
        with pytest.raises(ContractError, match="unused"):
            train_step([random_image(rng).reshape(1, 1, 16, 16)], model, optimizer)
        for name, param in model.named_parameters():
            assert param.grad is None, name

    def test_frozen_sampler_keeps_no_gradient(self, rng):
        cfg = tiny_config(freeze_sampler=True)
        model = build_model(cfg)
        optimizer = build_optimizer(model, cfg)
        img = random_image(rng).reshape(1, 1, 16, 16)
        for _ in range(2):
            train_step([img], model, optimizer)
        for param in model.sampler_parameters():
            assert param.grad is None, param.name

    def test_frozen_sampler_is_constant_to_the_tape(self, rng):
        cfg = tiny_config(freeze_sampler=True)
        model = build_model(cfg)
        frozen = {id(p) for p in model.sampler_parameters()}
        assert all(not p.requires_grad for p in model.sampler_parameters())
        optimizer = build_optimizer(model, cfg)
        assert {id(p) for p in optimizer.params} == {id(p) for p in model.parameters()} - frozen
        trace = model(tensor(random_image(rng).reshape(1, 1, 16, 16)))
        assert not any(y.requires_grad for y in trace.measurements)

    def test_skipped_sampler_gradients_leave_trajectory_bit_identical(self, rng):
        # The frozen sampler's weights are constants, so no op computes their
        # gradient. Marking them trainable again outside the optimizer brings
        # back every Phi gradient gemm and must not move any loss or parameter.
        img = random_image(rng).reshape(1, 1, 16, 16)
        cfg = tiny_config(freeze_sampler=True)
        runs = []
        for computed in (False, True):
            model = build_model(cfg)
            optimizer = build_optimizer(model, cfg)
            for p in model.sampler_parameters():
                p.requires_grad = computed
            losses = [train_step([img], model, optimizer)[0] for _ in range(3)]
            runs.append((losses, [p.data.copy() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        for skipped, computed in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(skipped, computed)

    def test_divergence_detected(self, rng):
        cfg = tiny_config()
        model = build_model(cfg)
        model.fusion.weight.data = np.full_like(model.fusion.weight.data, np.nan)
        with pytest.raises(TrainingDivergenceError):
            train_step([random_image(rng).reshape(1, 1, 16, 16)], model,
                       build_optimizer(model, cfg))


class TestOverfit:
    """train_step, run again and again on one image."""

    def test_deterministic_curves(self, rng):
        img = random_image(rng)
        with precision("f64"):
            curves = [[(loss, psnr(trace.output.data[0, 0], img)) for loss, trace in train(tiny_config(), img, 4)[1]]
                      for _ in range(2)]
        assert curves[0] == curves[1]

    def test_loss_decreases_with_training(self, rng):
        _, steps = train(tiny_config(lr=1e-3), random_image(rng), 30)
        assert steps[-1][0] < steps[0][0]

    def test_frozen_sampler_untouched(self, rng):
        cfg = tiny_config(freeze_sampler=True)
        model, _ = train(cfg, random_image(rng), 3)
        fresh = build_model(cfg)
        assert np.array_equal(model.sampler.phi1.weights.data, fresh.sampler.phi1.weights.data)
        assert np.array_equal(model.sampler.phi2.weights.data, fresh.sampler.phi2.weights.data)


class TestCheckpoint:
    def _trained_model(self, rng, steps=2):
        cfg = tiny_config()
        return cfg, train(cfg, random_image(rng), steps)[0]

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        cfg, model = self._trained_model(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, epoch=3, config=cfg.to_dict())
        header, tensors = load_checkpoint(p1)
        rebuilt = restore_model(build_model(cfg), header, tensors)
        save_checkpoint(p2, rebuilt, epoch=header["epoch"], config=header["config"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_restore_reproduces_state(self, tmp_path, rng):
        cfg, model = self._trained_model(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        header, tensors = load_checkpoint(path)
        clone = restore_model(build_model(cfg), header, tensors)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), clone.named_parameters()):
            assert np.array_equal(p1.data, p2.data)
            assert np.array_equal(p1.adam_m, p2.adam_m)
            assert np.array_equal(p1.adam_v, p2.adam_v)
            assert p1.step_count == p2.step_count

    def test_round_trip_preserves_trajectory(self, tmp_path, rng):
        with precision("f64"):
            img = random_image(rng)
            cfg = tiny_config()
            warm, _ = train(cfg, img, 3)
            path = tmp_path / "warm.ckpt"
            save_checkpoint(path, warm, config=cfg.to_dict())

            arr = img.reshape(1, 1, 16, 16)
            direct_losses = []
            opt = build_optimizer(warm, cfg)
            for _ in range(3):
                loss, _ = train_step([arr], warm, opt)
                direct_losses.append(loss)

            header, tensors = load_checkpoint(path)
            resumed = restore_model(build_model(cfg), header, tensors)
            opt2 = build_optimizer(resumed, cfg)
            resumed_losses = []
            for _ in range(3):
                loss, _ = train_step([arr], resumed, opt2)
                resumed_losses.append(loss)
        assert direct_losses == resumed_losses

    @pytest.mark.parametrize("name", ["missing.ckpt", "."])
    def test_unreadable_path_rejected_with_checkpoint_error(self, tmp_path, name):
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(tmp_path / name)
        assert isinstance(err.value.__cause__, OSError)

    @pytest.mark.parametrize("path", [None, 3.5, "a\0b", "fd"], ids=["none", "float", "nul-byte", "fd"])
    @pytest.mark.parametrize("write", [False, True], ids=["load", "save"])
    def test_not_a_path_rejected_with_checkpoint_error(self, tmp_path, path, write):
        model = build_model(tiny_config())
        if path == "fd":  # open() would take an int as a descriptor, and close it
            save_checkpoint(tmp_path / "model.ckpt", model)
            path = os.open(tmp_path / "model.ckpt", os.O_RDWR)
        with pytest.raises(CheckpointError, match="cannot"):
            if write:
                save_checkpoint(path, model)
            else:
                load_checkpoint(path)
        if isinstance(path, int):
            os.close(path)  # raises EBADF had the call closed it

    def test_bad_magic(self, tmp_path):
        # Not a zip: no end record closes the file.
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_mismatch_names_both(self, tmp_path, rng):
        cfg, model = self._trained_model(rng, steps=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        header, _ = read_members(path)
        rewrite(path, header={**header, "version": 99})
        with pytest.raises(CheckpointVersionError) as err:
            load_checkpoint(path)
        assert "99" in str(err.value) and "2" in str(err.value)

    def test_truncation_detected(self, tmp_path, rng):
        cfg, model = self._trained_model(rng, steps=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


class TestCheckpointFormat:
    """A header that does not decode or is not the expected object, a corrupt
    byte, a parameter name that appears twice or bytes after the zip's end raise a
    CheckpointError subclass; the config may be given as a TrainConfig, and
    anything unserializable is refused before writing."""

    HEADER_AT = 30 + len("header.json")  # header.json's first byte: after the zip's first local header

    @staticmethod
    def _saved_blob(path):
        cfg = tiny_config()
        save_checkpoint(path, build_model(cfg), config=cfg)
        return path.read_bytes()

    def test_config_object_stored_as_dict(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self._saved_blob(path)
        header, _ = load_checkpoint(path)
        assert TrainConfig.from_dict(header["config"]) == tiny_config()

    @pytest.mark.parametrize("kwargs", [
        {"config": object()}, {"config": {"lr": object()}}, {"config": [1]}, {"epoch": -1},
    ], ids=["object", "dict-of-object", "list", "negative-epoch"])
    def test_bad_header_refused_before_writing(self, tmp_path, kwargs):
        path = tmp_path / "m.ckpt"
        with pytest.raises(ContractError):
            save_checkpoint(path, build_model(tiny_config()), **kwargs)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["missing/m.ckpt", "."], ids=["missing-parent", "directory"])
    def test_unwritable_path_rejected_with_checkpoint_error(self, tmp_path, name):
        with pytest.raises(CheckpointError) as err:
            save_checkpoint(tmp_path / name, build_model(tiny_config()))
        assert isinstance(err.value.__cause__, OSError)

    @pytest.mark.parametrize("first", [0x7B ^ 0x80, ord("x")], ids=["flipped-bit", "not-json"])
    def test_corrupt_header_byte(self, tmp_path, first):
        # The member's CRC-32 no longer holds.
        path = tmp_path / "m.ckpt"
        blob = bytearray(self._saved_blob(path))
        assert blob[self.HEADER_AT] == 0x7B
        blob[self.HEADER_AT] = first
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="CRC"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: [1], lambda h: {k: v for k, v in h.items() if k != "steps"}, lambda h: {**h, "config": []},
        lambda h: {**h, "epoch": -1}, lambda h: {**h, "steps": {**h["steps"], "fusion.weight": "x"}},
        lambda h: b"[" * 100000, lambda h: b"{x", lambda h: b"\xff",
    ], ids=["list", "no-steps", "config-not-object", "negative-epoch", "step-not-integer", "deep-nesting",
            "not-json", "not-utf8"])
    def test_header_must_be_the_expected_object(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        self._saved_blob(path)
        rewrite(path, header=edit(read_members(path)[0]))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_bytes_after_last_tensor(self, tmp_path):
        # zipfile itself reads past them.
        path = tmp_path / "m.ckpt"
        blob = self._saved_blob(path)
        path.write_bytes(blob + b"\x00")
        assert zipfile.ZipFile(path).namelist() == ["header.json", "state.npy"]
        with pytest.raises(CheckpointFormatError, match="zip end record"):
            load_checkpoint(path)

    def test_duplicated_tensor_name(self, tmp_path):
        # The first parameter listed again, with its values and moments: last-wins parsing would
        # hand restore_model a complete, plausible state.
        path = tmp_path / "m.ckpt"
        self._saved_blob(path)
        header, state = load_checkpoint(path)
        first = math.prod(header["shapes"][0][1])
        state = np.concatenate([state, state[:, :first]], axis=1)
        rewrite(path, header={**header, "shapes": header["shapes"] + header["shapes"][:1]},
                state=npy_bytes(state.shape, state.tobytes()))
        with pytest.raises(CheckpointFormatError, match="appears twice"):
            load_checkpoint(path)


class TestRestoreValidation:
    """restore_model rejects a header or state that does not fit the model before writing anything."""

    @pytest.fixture
    def trained(self, tmp_path, rng):
        cfg = tiny_config()
        model, _ = train(cfg, random_image(rng), 1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        return load_checkpoint(path)

    @staticmethod
    def _layout_edit(header, shapes, columns):
        """A header listing `shapes`, and a state of the given columns, with steps to match, so that
        only the layout disagrees with the model."""
        steps = {name: header["steps"].get(name, 1) for name, _ in shapes}
        return {**header, "shapes": shapes, "steps": steps}, np.concatenate(columns, axis=1)

    def test_missing_adam_moment(self, trained):
        header, state = trained
        _assert_rejected_untouched(build_model(tiny_config()), header, state[:2])

    def test_missing_last_parameter_found_before_first_write(self, trained):
        header, state = trained
        last = math.prod(header["shapes"][-1][1])
        edited = self._layout_edit(header, header["shapes"][:-1], [state[:, :-last]])
        _assert_rejected_untouched(build_model(tiny_config()), *edited)

    def test_unexpected_entry(self, trained):
        header, state = trained
        edited = self._layout_edit(header, header["shapes"] + [["stages.9.out.weight", [1]]],
                                   [state, state[:, :1]])
        _assert_rejected_untouched(build_model(tiny_config()), *edited)

    @pytest.mark.parametrize("edit", ["renamed", "reordered", "reshaped"])
    def test_shapes_must_be_the_model_layout(self, trained, edit):
        # Each edit keeps the value count, so only the names, order or extents disagree.
        header, state = trained
        shapes = [[name, list(extents)] for name, extents in header["shapes"]]
        if edit == "renamed":
            shapes[0][0] = "sampler.phi0.weights"
        elif edit == "reordered":
            shapes[:2] = shapes[1::-1]
        else:
            shapes[0][1] = [math.prod(shapes[0][1])]
        _assert_rejected_untouched(build_model(tiny_config()), *self._layout_edit(header, shapes, [state]))

    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_steps_table_must_name_exactly_the_parameters(self, trained, edit):
        # A missing name restored step_count 0, silently resetting Adam's bias correction.
        header, state = trained
        if edit == "missing":
            del header["steps"]["fusion.weight"]
        else:
            header["steps"]["stages.9.out.weight"] = 3
        _assert_rejected_untouched(build_model(tiny_config()), header, state)

    @pytest.mark.parametrize("steps", ["x", -1, None])
    def test_malformed_step_count_found_before_first_write(self, trained, steps):
        # int("x") raised a bare ValueError after the first parameters had been written.
        header, state = trained
        header["steps"][list(header["steps"])[-1]] = steps
        _assert_rejected_untouched(build_model(tiny_config()), header, state, CheckpointFormatError)

    def test_array_version_refused(self, trained):
        # An array compared to the version elementwise, and its truth value raised a bare ValueError.
        header, state = trained
        _assert_rejected_untouched(build_model(tiny_config()), {**header, "version": np.array([2, 2])}, state,
                                   CheckpointVersionError)

    @pytest.mark.parametrize("extra", [None, {1: 0, "x": 0}], ids=["list", "name-not-text"])
    def test_malformed_steps_table(self, trained, extra):
        # Names of two types raised a bare TypeError from sorting the unknown ones.
        header, state = trained
        steps = list(header["steps"]) if extra is None else {**header["steps"], **extra}
        _assert_rejected_untouched(build_model(tiny_config()), {**header, "steps": steps}, state, CheckpointFormatError)

    def test_wider_model_checkpoint(self, tmp_path, rng):
        wide = tiny_config(channels=16)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(path, build_model(wide), config=wide.to_dict())
        header, state = load_checkpoint(path)
        _assert_rejected_untouched(build_model(tiny_config()), header, state)

    @pytest.mark.parametrize("kind", ["list", "dict", "none"])
    def test_state_not_an_ndarray(self, trained, kind):
        # Only the ndarray load_checkpoint returns is restored; anything else is the caller's error.
        header, state = trained
        state = {"list": state.tolist(), "dict": dict(enumerate(state)), "none": None}[kind]
        _assert_rejected_untouched(build_model(tiny_config()), header, state, ContractError)

    @pytest.mark.parametrize("edit", ["short", "long", "transposed", "flat", "zero-d", "empty"])
    def test_wrong_state_shape(self, trained, edit):
        header, state = trained
        state = {"short": state[:, 1:], "long": np.concatenate([state, state[:, :1]], axis=1), "transposed": state.T,
                 "flat": state.ravel(), "zero-d": state[0, 0, ...], "empty": state[:, :0]}[edit]
        _assert_rejected_untouched(build_model(tiny_config()), header, state)

    def test_wrong_dtype(self, trained):
        header, state = trained
        _assert_rejected_untouched(build_model(tiny_config()), header, state.astype(np.float64))

    def test_unsupported_dtype_rejected_at_save(self, tmp_path):
        model = build_model(tiny_config())
        model.fusion.weight.data = model.fusion.weight.data.astype(np.float16)
        path = tmp_path / "half.ckpt"
        with pytest.raises(ContractError, match="float16"):
            save_checkpoint(path, model)
        assert not path.exists()
