"""Training loop mechanics, determinism, and checkpoint persistence."""

import struct
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
    CheckpointMagicError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    DimensionError,
    IngestionError,
    TrainingDivergenceError,
)
from dualpath_cs.metrics import psnr
from dualpath_cs.training import (
    TrainConfig,
    build_model,
    build_optimizer,
    extract_patches,
    overfit_single_image,
    train_step,
)

TINY = dict(gamma=0.5, split=(1, 2), block_size=4, stages=2, channels=8,
            patch_size=16, batch_size=1, seed=7)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return TrainConfig(**params)


def random_image(rng, size=16):
    return rng.uniform(0, 1, (size, size))


class TestTrainConfig:
    def test_patch_alignment_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(patch_size=40, block_size=8)

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
        ("lr", float("nan")), ("betas", (1.5, 0.999)), ("batch_size", 2.5), ("patch_size", 0),
        ("stages", 0), ("channels", 0), ("channels", -3), ("split", (1,)), ("seed", -1),
        ("gamma", "0.5"), ("block_size", 4.0), ("rho", float("nan")), ("betas", None),
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
        patches = extract_patches(rng.uniform(0, 1, (256, 256)), 128, stride=128)
        assert len(patches) == 4

    def test_determinism(self, rng):
        img = rng.uniform(0, 1, (64, 64))
        a = extract_patches(img, 32, augment=True, seed=5)
        b = extract_patches(img, 32, augment=True, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_small_rejected(self, rng):
        with pytest.raises(IngestionError):
            extract_patches(rng.uniform(0, 1, (16, 16)), 32)

    @pytest.mark.parametrize("patch,stride", [
        (-4, None), (0, None), (4.0, None), (True, None), ("4", None),
        (4, 0), (4, -4), (4, 2.5), (4, False),
    ])
    def test_bad_patch_or_stride_rejected(self, rng, patch, stride):
        with pytest.raises(ContractError):
            extract_patches(rng.uniform(0, 1, (16, 16)), patch, stride=stride)

    def test_explicit_stride_overlaps(self, rng):
        assert len(extract_patches(rng.uniform(0, 1, (16, 16)), 8, stride=4)) == 9

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("seed", [-1, 1.5, "5", None])
    def test_bad_seed_rejected(self, rng, seed, augment):
        with pytest.raises(ContractError):
            extract_patches(rng.uniform(0, 1, (16, 16)), 8, augment=augment, seed=seed)


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

    @pytest.mark.parametrize("shapes,error", [
        ([], ContractError),
        ([(1, 16, 16)], DimensionError),
        ([(2, 1, 16, 16)], DimensionError),
        ([(1, 2, 16, 16)], DimensionError),
        ([(1, 1, 16, 16), (1, 1, 32, 32)], DimensionError),
    ], ids=["empty", "rank-3", "two-samples", "two-channels", "mixed-extents"])
    def test_bad_batch_rejected_before_forward(self, rng, shapes, error):
        cfg = tiny_config()
        model = build_model(cfg)
        optimizer = build_optimizer(model, cfg)
        model.forward = lambda *args: pytest.fail("forward ran on a bad batch")
        marker = np.ones(1)
        for param in model.parameters():
            param.grad = marker
        with pytest.raises(error):
            train_step([rng.uniform(0, 1, s) for s in shapes], model, optimizer)
        assert all(param.grad is marker for param in model.parameters())

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
                assert y.shape == (nb, phi.rows)
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
    def test_zero_steps_noop(self, rng):
        cfg = tiny_config()
        result = overfit_single_image(random_image(rng), cfg, steps=0)
        assert result.losses == [] and result.psnrs == []
        fresh = build_model(cfg)
        for (n1, p1), (n2, p2) in zip(result.model.named_parameters(), fresh.named_parameters()):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)

    def test_deterministic_curves(self, rng):
        img = random_image(rng)
        with precision("f64"):
            r1 = overfit_single_image(img, tiny_config(), steps=4)
            r2 = overfit_single_image(img, tiny_config(), steps=4)
        assert r1.losses == r2.losses
        assert r1.psnrs == r2.psnrs

    def test_loss_decreases_with_training(self, rng):
        img = random_image(rng)
        result = overfit_single_image(img, tiny_config(lr=1e-3), steps=30)
        assert result.losses[-1] < result.losses[0]

    def test_initial_x0_psnr_measured_before_training(self, rng):
        img = random_image(rng)
        cfg = tiny_config(lr=1e-3)
        result = overfit_single_image(img, cfg, steps=3)
        with no_grad():
            fresh = build_model(cfg)(tensor(img.reshape(1, 1, 16, 16)))
        assert result.initial_psnr_x0 == psnr(fresh.stages[0].data[0, 0], img)
        assert result.final_psnr_x0 != result.initial_psnr_x0

    def test_frozen_sampler_untouched(self, rng):
        cfg = tiny_config(freeze_sampler=True)
        result = overfit_single_image(random_image(rng), cfg, steps=3)
        fresh = build_model(cfg)
        assert np.array_equal(result.model.sampler.phi1.weights.data,
                              fresh.sampler.phi1.weights.data)
        assert np.array_equal(result.model.sampler.phi2.weights.data,
                              fresh.sampler.phi2.weights.data)


class TestCheckpoint:
    def _trained_model(self, rng, steps=2):
        cfg = tiny_config()
        result = overfit_single_image(random_image(rng), cfg, steps=steps)
        return cfg, result.model

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
            warm = overfit_single_image(img, cfg, steps=3)
            path = tmp_path / "warm.ckpt"
            save_checkpoint(path, warm.model, config=cfg.to_dict())

            arr = img.reshape(1, 1, 16, 16)
            direct_losses = []
            opt = build_optimizer(warm.model, cfg)
            for _ in range(3):
                loss, _ = train_step([arr], warm.model, opt)
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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_version_mismatch_names_both(self, tmp_path, rng):
        cfg, model = self._trained_model(rng, steps=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError) as err:
            load_checkpoint(path)
        assert "99" in str(err.value) and "1" in str(err.value)

    def test_truncation_detected(self, tmp_path, rng):
        cfg, model = self._trained_model(rng, steps=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)


class TestCheckpointFormat:
    """A header or tensor name that does not decode, a header that is not the
    expected object, a tensor name that appears twice or bytes after the last
    tensor raise a CheckpointError subclass; the config may be given
    as a TrainConfig, and anything unserializable is refused before writing."""

    @staticmethod
    def _saved_blob(path):
        cfg = tiny_config()
        save_checkpoint(path, build_model(cfg), config=cfg)
        blob = path.read_bytes()
        return blob, struct.unpack_from("<I", blob, 12)[0]

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

    @pytest.mark.parametrize("first", [0x7B ^ 0x80, ord("x")], ids=["flipped-bit", "not-json"])
    def test_corrupt_header_byte(self, tmp_path, first):
        path = tmp_path / "m.ckpt"
        blob = bytearray(self._saved_blob(path)[0])
        assert blob[16] == 0x7B
        blob[16] = first
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"[1]", b'{"config":{},"epoch":0}', b'{"config":[],"epoch":0,"steps":{}}',
        b'{"config":{},"epoch":-1,"steps":{}}', b'{"config":{},"epoch":0,"steps":{"fusion.weight":"x"}}',
        b"[" * 100000,
    ], ids=["list", "no-steps", "config-not-object", "negative-epoch", "step-not-integer", "deep-nesting"])
    def test_header_must_be_the_expected_object(self, tmp_path, header):
        path = tmp_path / "m.ckpt"
        blob, length = self._saved_blob(path)
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + length:])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @staticmethod
    def _one_tensor_file(path, rank, code, extents):
        """A checkpoint with one tensor entry and no payload after its extents."""
        header, name = b'{"config":{},"epoch":0,"steps":{}}', b"w"
        path.write_bytes(b"DPHDUNCK" + struct.pack("<II", 1, len(header)) + header
                         + struct.pack("<II", 1, len(name)) + name
                         + struct.pack(f"<BB{rank}I", rank, code, *extents))

    def test_oversized_extents_are_truncation(self, tmp_path):
        # Their byte count exceeds int64 and must not wrap to a negative read length.
        path = tmp_path / "m.ckpt"
        self._one_tensor_file(path, 2, 0, (0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_unknown_dtype_code_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self._one_tensor_file(path, 1, 7, (1,))
        with pytest.raises(CheckpointFormatError, match="dtype code 7"):
            load_checkpoint(path)

    def test_tensor_name_not_utf8(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob, length = self._saved_blob(path)
        blob = bytearray(blob)
        blob[16 + length + 8] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_bytes_after_last_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob, _ = self._saved_blob(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointFormatError, match="1 bytes after the last tensor"):
            load_checkpoint(path)

    def test_duplicated_tensor_name(self, tmp_path):
        # A second entry of the first tensor, counted in the tensor count: last-wins parsing would
        # hand restore_model a complete, plausible set of tensors.
        path = tmp_path / "m.ckpt"
        blob, length = self._saved_blob(path)
        count_at = 16 + length
        first = count_at + 4
        name_len = struct.unpack_from("<I", blob, first)[0]
        rank = blob[first + 4 + name_len]
        extents = struct.unpack_from(f"<{rank}I", blob, first + 6 + name_len)
        end = first + 6 + name_len + 4 * rank + 4 * int(np.prod(extents))  # float32 values
        count = struct.unpack_from("<I", blob, count_at)[0]
        path.write_bytes(blob[:count_at] + struct.pack("<I", count + 1) + blob[first:] + blob[first:end])
        with pytest.raises(CheckpointFormatError, match="appears twice"):
            load_checkpoint(path)


class TestRestoreValidation:
    """restore_model rejects a mismatched checkpoint before writing anything."""

    @pytest.fixture
    def saved(self, tmp_path, rng):
        cfg = tiny_config()
        model = overfit_single_image(random_image(rng), cfg, steps=1).model
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, config=cfg.to_dict())
        return load_checkpoint(path)

    @staticmethod
    def _assert_rejected_untouched(model, header, tensors, error=CheckpointMismatchError):
        before = [(p.data.copy(), p.adam_m.copy(), p.adam_v.copy(), p.step_count) for p in model.parameters()]
        with pytest.raises(error):
            restore_model(model, header, tensors)
        for p, (data, m, v, steps) in zip(model.parameters(), before):
            assert np.array_equal(p.data, data) and np.array_equal(p.adam_m, m)
            assert np.array_equal(p.adam_v, v) and p.step_count == steps

    def test_missing_adam_moment(self, saved):
        header, tensors = saved
        del tensors["stages.1.soft_unet.out.bias#adam_m"]
        self._assert_rejected_untouched(build_model(tiny_config()), header, tensors)

    def test_missing_last_parameter_found_before_first_write(self, saved):
        header, tensors = saved
        model = build_model(tiny_config())
        last = model.parameters()[-1].name
        del tensors[last]
        self._assert_rejected_untouched(model, header, tensors)

    def test_unexpected_entry(self, saved):
        header, tensors = saved
        tensors["stages.9.out.weight"] = np.zeros(1, dtype=np.float32)
        self._assert_rejected_untouched(build_model(tiny_config()), header, tensors)

    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_steps_table_must_name_exactly_the_parameters(self, saved, edit):
        # A missing name restored step_count 0, silently resetting Adam's bias correction.
        header, tensors = saved
        if edit == "missing":
            del header["steps"]["fusion.weight"]
        else:
            header["steps"]["stages.9.out.weight"] = 3
        self._assert_rejected_untouched(build_model(tiny_config()), header, tensors)

    @pytest.mark.parametrize("steps", ["x", -1, None])
    def test_malformed_step_count_found_before_first_write(self, saved, steps):
        # int("x") raised a bare ValueError after the first parameters had been written.
        header, tensors = saved
        header["steps"][list(header["steps"])[-1]] = steps
        self._assert_rejected_untouched(build_model(tiny_config()), header, tensors, CheckpointFormatError)

    def test_wider_model_checkpoint(self, tmp_path, rng):
        wide = tiny_config(channels=16)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(path, build_model(wide), config=wide.to_dict())
        header, tensors = load_checkpoint(path)
        self._assert_rejected_untouched(build_model(tiny_config()), header, tensors)

    def test_wrong_dtype(self, saved):
        header, tensors = saved
        name = "fusion.weight"
        tensors[name] = tensors[name].astype(np.float64)
        self._assert_rejected_untouched(build_model(tiny_config()), header, tensors)

    def test_unsupported_dtype_rejected_at_save(self, tmp_path):
        model = build_model(tiny_config())
        model.fusion.weight.data = model.fusion.weight.data.astype(np.float16)
        path = tmp_path / "half.ckpt"
        with pytest.raises(ContractError, match="float16"):
            save_checkpoint(path, model)
        assert not path.exists()
