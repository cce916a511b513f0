"""The benchmark's workloads, each a closed loop with one client.

train64    train_step on single 64x64 patches. Pixel-token attention over
           4096 tokens dominates the step.
train32x4  train_step on batches of four 32x32 patches. Attention is small;
           convolution and the per-sample Python loop (four tapes a step)
           dominate.
eval64     restore a checkpoint, read a 256x256 scene back from PGM and
           reconstruct each of its 64x64 tiles under no_grad, then score it.
           Forward only, no tape; the only workload that runs checkpoint,
           pgm and metrics.

Every workload starts from the same fixture state: the weights and Adam
moments after a short, fixed-seed pre-training on 32x32 patches, whose cost
is not timed. From a random initialisation x^K has negative PSNR and an SSIM
near zero, so the quality guards would measure noise. Training resumes with
the fixture's Adam moments, as from a checkpoint; from fresh moments the
first single-patch Adam step is a sign step whose effect on later losses
varies widely from seed to seed.
"""

import gc
import hashlib
import math
import os
import statistics
import tempfile
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dualpath_cs import checkpoint, metrics, no_grad, ops, pgm, tensor, training

import calibration
import checks
from environment import source_digest
from scenes import scene
from tracing import STEP, instrument, per_layer, span

FIXTURE_SEED = 20260517
FIXTURE_PATCH = 32
FIXTURE_LR = 3e-3


@dataclass(frozen=True)
class Spec:
    kind: str             # "train" or "eval"
    scene: int            # side of each generated scene
    patch: int            # side of the tiles cut from it
    channels: int = 16
    stages: int = 4
    episode: int = 12     # train steps from the fixture state before it is restored
    setup_reps: int = 9   # set-ups per run; setup_s is their median
    fixture_steps: int = 30

    @property
    def tiles(self):
        return (self.scene // self.patch) ** 2


# A train step takes every tile of one scene as its batch; eval64
# reconstructs the tiles of one scene one at a time.
SPECS = {
    "train64": Spec("train", scene=64, patch=64),
    # 24 steps of four 32x32 patches: SSIM on small patches varies by scene,
    # and 96 scored patches keep its mean steady across seeds.
    "train32x4": Spec("train", scene=64, patch=32, episode=24),
    "eval64": Spec("eval", scene=256, patch=64),
}


@dataclass
class Step:
    seconds: float
    problems: list
    loss: float = math.nan
    psnr: list = field(default_factory=list)
    ssim: list = field(default_factory=list)
    output: np.ndarray = None


@dataclass
class Result:
    metrics: dict          # name -> (value, unit)
    attempted: int
    failures: list         # one message per failed operation
    notes: list            # human-readable remarks printed with the result


def tiles(image, patch):
    """Row-major [1,1,patch,patch] tiles of an [H,W] image."""
    h, w = image.shape
    return [np.ascontiguousarray(image[i:i + patch, j:j + patch]).reshape(1, 1, patch, patch)
            for i in range(0, h, patch) for j in range(0, w, patch)]


def load_state(model, state):
    """Set every parameter and its Adam moments to a `fixture_state`."""
    step_count = int(state["#step_count"])
    for name, p in model.named_parameters():
        p.data = state[name].copy()
        p.adam_m = state[f"{name}#adam_m"].copy()
        p.adam_v = state[f"{name}#adam_v"].copy()
        p.step_count = step_count
        p.value.grad = None


def fixture_state(spec):
    config = training.TrainConfig(patch_size=FIXTURE_PATCH, batch_size=1, lr=FIXTURE_LR,
                                  channels=spec.channels, stages=spec.stages)
    model = training.build_model(config)
    optimizer = training.build_optimizer(model, config)
    rng = np.random.default_rng(FIXTURE_SEED)
    for _ in range(spec.fixture_steps):
        patch = scene(rng, FIXTURE_PATCH).reshape(1, 1, FIXTURE_PATCH, FIXTURE_PATCH)
        training.train_step([patch], model, optimizer)
    state = {"#step_count": np.array(spec.fixture_steps)}
    for name, p in model.named_parameters():
        state[name] = p.data.copy()
        state[f"{name}#adam_m"] = p.adam_m.copy()
        state[f"{name}#adam_v"] = p.adam_v.copy()
    return state


def cached_fixture_state(spec, workdir):
    """`fixture_state`, kept in `workdir` under a key of every source file it
    depends on, so repeated runs of one checkout train the fixture once."""
    key = hashlib.sha256(repr(spec).encode())
    for directory in (Path(training.__file__).parent, Path(__file__).parent):
        key.update(source_digest(str(directory)).encode())
    path = workdir / f"fixture-{key.hexdigest()[:16]}.npz"
    if path.is_file():
        with np.load(path) as saved:
            return {name: saved[name] for name in saved.files}
    state = fixture_state(spec)
    partial = workdir / f"{path.stem}.{os.getpid()}.npz"
    np.savez(partial, **state)
    os.replace(partial, path)
    return state


@contextmanager
def peak_memory(box):
    """Append the tracemalloc peak, in bytes, of the block to `box`."""
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        box.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


@contextmanager
def traced_step(tracer):
    with instrument(tracer), tracer.span(STEP):
        yield


class Bench:
    """One run of one workload: set-up, warm-up, timed loop, extra passes."""

    def __init__(self, spec, seed, seconds, workdir, tracer=None):
        self.spec = spec
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.config = training.TrainConfig(patch_size=spec.patch, batch_size=spec.tiles,
                                           channels=spec.channels, stages=spec.stages)
        self.attempted = 0
        self.failures = []
        self.setup_times = []
        self.kernel_times = []  # calibration kernel before the first timed step and after each
        self.tmp = None
        workdir.mkdir(parents=True, exist_ok=True)
        self.fixture = cached_fixture_state(spec, workdir)

    # -- operations -------------------------------------------------------

    def attempt(self, label, op, *args, **kwargs):
        """Run one operation; a raise or any failed check marks it failed."""
        self.attempted += 1
        try:
            step = op(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the loop must go on and report it
            step = Step(math.nan, [traceback.format_exc()])
        if step.problems:
            self.failures.append(f"{label}: " + "; ".join(step.problems))
        return step

    def _context(self, traced, peak):
        if peak is not None:
            return peak_memory(peak)
        return traced_step(self.tracer) if traced else nullcontext()

    def _score(self, output, target):
        with span(self.tracer, "metrics.psnr"):
            p = metrics.psnr(output, target)
        with span(self.tracer, "metrics.ssim"):
            s = metrics.ssim(output, target)
        return p, s, checks.psnr(p, output, target)

    def _check_trace(self, trace, target, w1, w2):
        cfg = self.config
        return (checks.measurements(trace, target, w1, w2, cfg.block_size)
                + checks.trace_shape(trace, cfg.stages, cfg.rho, cfg.block_size))

    def train_op(self, model, optimizer, batch, traced=False, score=False, peak=None):
        w1 = model.sampler.phi1.weights.data.copy()
        w2 = model.sampler.phi2.weights.data.copy()
        start = perf_counter()
        with self._context(traced, peak):
            loss, traces = training.train_step(batch, model, optimizer)
        seconds = perf_counter() - start
        targets = [item[0, 0] for item in batch]
        outputs = [t.output.data[0, 0] for t in traces]
        problems = checks.mse(loss, outputs, targets)
        for trace, target in zip(traces, targets):
            problems += self._check_trace(trace, target, w1, w2)
        del traces  # drop the tape before the next step builds one
        problems += checks.finite("loss and parameters", [loss] + [p.data for p in model.parameters()])
        step = Step(seconds, problems, loss)
        for output, target in zip(outputs, targets) if score else ():
            p, s, bad = self._score(output, target)
            step.psnr.append(p)
            step.ssim.append(s)
            step.problems += bad
        return step

    def eval_op(self, model, tile, traced=False, peak=None):
        start = perf_counter()
        with self._context(traced, peak), no_grad():
            trace = model(tensor(tile))
        seconds = perf_counter() - start
        target = tile[0, 0]
        output = trace.output.data[0, 0]
        problems = self._check_trace(trace, target, model.sampler.phi1.weights.data,
                                     model.sampler.phi2.weights.data)
        loss = ops.mse(trace.output, tensor(tile)).item()
        problems += checks.mse(loss, [output], [target])
        p, s, bad = self._score(output, target)
        return Step(seconds, problems + bad, loss, [p], [s], output)

    def taped_matches_no_grad(self, model, item, untaped=None):
        taped = model(tensor(item)).output.data[0, 0]
        if untaped is None:
            with no_grad():
                untaped = model(tensor(item)).output.data[0, 0]
        return Step(math.nan, checks.same_output(taped, untaped))

    # -- set-up -------------------------------------------------------------

    def setup_train(self, workdir):
        model = training.build_model(self.config)
        load_state(model, self.fixture)
        optimizer = training.build_optimizer(model, self.config)
        rng = np.random.default_rng(self.seed)
        batches = [tiles(scene(rng, self.spec.scene), self.spec.patch) for _ in range(self.spec.episode)]
        return model, optimizer, batches

    def setup_eval(self, workdir):
        tr = self.tracer
        model = training.build_model(self.config)
        load_state(model, self.fixture)
        ckpt = workdir / "model.ckpt"
        with span(tr, "checkpoint.save"):
            checkpoint.save_checkpoint(ckpt, model, config=self.config.to_dict())
        if tr is not None:
            tr.add("checkpoint.bytes", ckpt.stat().st_size)
        with span(tr, "checkpoint.load"):
            header, tensors = checkpoint.load_checkpoint(ckpt)
        restored = training.build_model(training.TrainConfig.from_dict(header["config"]))
        with span(tr, "checkpoint.restore"):
            checkpoint.restore_model(restored, header, tensors)
        generated = scene(np.random.default_rng(self.seed), self.spec.scene)
        image = workdir / "scene.pgm"
        with span(tr, "pgm.write"):
            pgm.write_pgm(image, generated)
        with span(tr, "pgm.read"):
            pixels = pgm.read_pgm(image)
        return restored, tiles(pixels, self.spec.patch)

    def setup(self):
        make = self.setup_train if self.spec.kind == "train" else self.setup_eval
        start = perf_counter()
        state = make(self.tmp)
        self.setup_times.append(perf_counter() - start)
        return state

    def calibrate(self):
        self.kernel_times.append(calibration.kernel_seconds())

    def setup_between_steps(self, start):
        """Repeat the set-up between timed steps, spread over the run, so that
        setup_s is a median over the machine's states during the run rather
        than over one moment of it."""
        due = start + len(self.setup_times) * self.seconds / self.spec.setup_reps
        if len(self.setup_times) < self.spec.setup_reps and perf_counter() >= due:
            self.setup()

    # -- timed loops ----------------------------------------------------------

    def _traced(self, i):
        """In a traced run, every other step is traced; the rest give the baseline."""
        return self.tracer is not None and i % 2 == 0

    def loop_train(self, model, optimizer, batches):
        self.attempt("warm-up step", self.train_op, model, optimizer, batches[0])
        load_state(model, self.fixture)
        steps = []
        self.calibrate()
        i, start = 0, perf_counter()
        while i < self.spec.episode or perf_counter() - start < self.seconds:
            pos = i % self.spec.episode
            if i and pos == 0:
                load_state(model, self.fixture)
            steps.append(self.attempt(f"step {i}", self.train_op, model, optimizer, batches[pos],
                                      traced=self._traced(i), score=i < self.spec.episode))
            self.calibrate()
            self.setup_between_steps(start)
            i += 1
        peak = []
        if self.tracer is None:
            self.attempt("peak-memory step", self.train_op, model, optimizer, batches[0], peak=peak)
        self.attempt("taped vs no_grad forward", self.taped_matches_no_grad, model, batches[0][0])
        return steps, steps[:self.spec.episode], peak

    def loop_eval(self, model, tile_list):
        self.attempt("warm-up reconstruction", self.eval_op, model, tile_list[0])
        steps = []
        self.calibrate()
        i, start = 0, perf_counter()
        while i < len(tile_list) or perf_counter() - start < self.seconds:
            steps.append(self.attempt(f"tile {i}", self.eval_op, model, tile_list[i % len(tile_list)],
                                      traced=self._traced(i)))
            self.calibrate()
            self.setup_between_steps(start)
            i += 1
        peak = []
        if self.tracer is None:
            self.attempt("peak-memory reconstruction", self.eval_op, model, tile_list[0], peak=peak)
        self.attempt("taped vs no_grad forward", self.taped_matches_no_grad, model, tile_list[0],
                     steps[0].output)
        return steps, steps[:len(tile_list)], peak

    # -- the run --------------------------------------------------------------

    def run(self):
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            self.tmp = Path(tmp)
            model, *rest = self.setup()
            if self.spec.kind == "train":
                steps, scored, peak = self.loop_train(model, *rest)
            else:
                steps, scored, peak = self.loop_eval(model, *rest)
            while len(self.setup_times) < self.spec.setup_reps:
                self.setup()
        if self.tracer is not None:
            traced = [s.seconds for i, s in enumerate(steps) if self._traced(i)]
            untraced = [s.seconds for i, s in enumerate(steps) if not self._traced(i)]
            table = per_layer(self.tracer, traced, untraced)
            notes = [f"per-layer figures from {len(traced)} traced steps, "
                     f"overhead against {len(untraced)} untraced steps"]
        else:
            table, notes = self.end_to_end(steps, scored, peak, self.setup_times)
        return Result(table, self.attempted, self.failures, notes)

    def end_to_end(self, steps, scored, peak, setup_times):
        """Time metrics are scaled to the reference host speed (see
        calibration.py): each step by the mean of the kernel times just
        before and after it, set-ups by the run's median kernel time."""
        times = [s.seconds for s in steps]
        kernel = self.kernel_times
        scaled = [calibration.REFERENCE_S * t * 2 / (a + b) for t, a, b in zip(times, kernel, kernel[1:])]
        speed = calibration.REFERENCE_S / statistics.median(kernel)
        pixels = self.spec.scene ** 2 if self.spec.kind == "train" else self.spec.patch ** 2
        table = {
            "setup_s": (statistics.median(setup_times) * speed, "s"),
            "step_s": (statistics.median(scaled), "s"),
            "pixels_per_s": (pixels * len(scaled) / math.fsum(scaled), "1/s"),
            "peak_mb": (peak[0] / 1e6 if peak else math.nan, "MB"),
            "final_loss": (statistics.fmean(s.loss for s in scored), "mse"),
            "psnr_db": (statistics.fmean(p for s in scored for p in s.psnr), "dB"),
            "ssim": (statistics.fmean(v for s in scored for v in s.ssim), "score"),
        }
        notes = [
            f"step_s is the median of {len(times)} steps; their raw wall times: "
            + " ".join(f"{t:.4f}" for t in times),
            f"raw medians: step {statistics.median(times):.4f} s, set-up {statistics.median(setup_times):.4f} s "
            f"({len(setup_times)} set-ups); calibration kernel {statistics.median(kernel):.4f} s "
            f"(reference {calibration.REFERENCE_S} s, {len(kernel)} passes)",
            f"final_loss, psnr_db and ssim cover {len(scored)} steps from the fixture state",
        ]
        return table, notes
