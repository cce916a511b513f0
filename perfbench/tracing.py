"""Span recording around the package's public callables.

A `Tracer` keeps spans (name, start, end, parent) in memory; `instrument`
swaps each traced callable, at the name its callers look up, for a wrapper
that opens a span around the call. For a differentiable op the wrapper also
replaces the `_backward_fn` of the returned tensor with a timed copy, so the
backward pass shows up op by op under `autograd.backward`. Nothing inside
the package changes, and leaving `instrument` restores every original.

A span's self time is its duration minus the time its direct children cover.
"""

import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

import numpy as np

from dualpath_cs import autograd, conv, hyperprior, model, nn, ops, reconstruction, training

# Op groups: each op's forward span is "<group>.fwd", its backward "<group>.bwd".
OP_GROUPS = {
    "ops.attention": ("scaled_dot_attention",),
    "ops.layer_norm": ("layer_norm",),
    "ops.gelu": ("gelu",),
    "ops.elementwise": ("add", "sub", "mul", "neg", "relu", "sigmoid", "clip"),
    "ops.matmul": ("matmul",),
    "ops.other": ("concat", "reshape", "transpose", "softmax", "reduce_sum", "reduce_mean",
                  "reduce_max", "global_avg_pool", "bilinear_resize", "mse"),
}
CONV_OPS = {"conv.conv2d": "conv2d", "conv.conv_transpose2x": "conv_transpose2x"}

# Leaf work: op spans plus the optimizer update. Their summed self time over
# the step time is the trace coverage.
LEAF_PREFIXES = ("ops.", "conv.", "nn.adam_step")

STEP = "bench.step"


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name, value):
        self.counters[name] += value

    def durations(self, name):
        return [(end - start) / 1e9 for n, start, end, _ in self.spans if n == name]

    def summary(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        if not self.spans:
            return {}
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans], dtype=np.int64)
        end = np.array([s[2] for s in self.spans], dtype=np.int64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        out = {}
        for i, name in enumerate(names):
            calls, total, self_ns = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + int(dur[i]), self_ns + int(own[i]))
        return {n: (c, t / 1e9, s / 1e9) for n, (c, t, s) in out.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def span(tracer, name):
    """A span on `tracer`, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def _timed(tracer, fn, name):
    def timed(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return timed


def _op(tracer, fn, group, count=None):
    fwd, bwd = group + ".fwd", group + ".bwd"

    def wrapped(*args, **kwargs):
        index = tracer.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if out._backward_fn is not None:
            out._backward_fn = _timed(tracer, out._backward_fn, bwd)
            tracer.add("autograd.tape_nodes", 1)
        if count is not None:
            count(tracer, out, *args, **kwargs)
        return out
    return wrapped


def _with_count(tracer, fn, name, count):
    timed = _timed(tracer, fn, name)

    def wrapped(*args, **kwargs):
        out = timed(*args, **kwargs)
        count(tracer, out, *args, **kwargs)
        return out
    return wrapped


def _count_attention(tracer, out, q, k, v, chunk=512):
    if out._backward_fn is not None:
        t, d = q.shape
        # The backward closure keeps the T x T probabilities plus q, k and v.
        tracer.add("ops.attention.saved_bytes", (t * t + 3 * t * d) * q.data.itemsize)


def _count_conv2d(tracer, out, x, w, b=None, stride=1, padding=0):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = out.shape[2], out.shape[3]
    cols = n * ho * wo * cin * kh * kw
    if out._backward_fn is not None:
        cols += n * h * wd * cout * kh * kw  # input-gradient im2col in backward
    tracer.add("conv.conv2d.im2col_bytes", cols * x.data.itemsize)


def _count_hard_att(tracer, out, module, r, hard_mask):
    tracer.add("ops.attention.useful_v", float(np.mean(hard_mask.data)))
    tracer.add("ops.attention.useful_v_calls", 1)


def _count_branch(tracer, out, module, y1, sampler, hw):
    tracer.add("hyperprior.mask_coverage", float(np.mean(out[1].hard_mask.data)))
    tracer.add("hyperprior.branch_calls", 1)


def _targets(tracer):
    """(owner, attribute, replacement) for every traced callable."""
    targets = []
    for group, names in OP_GROUPS.items():
        count = _count_attention if group == "ops.attention" else None
        for name in names:
            targets.append((ops, name, _op(tracer, getattr(ops, name), group, count)))
    for group, name in CONV_OPS.items():
        count = _count_conv2d if name == "conv2d" else None
        # nn.py calls the conv functions through its own module namespace.
        targets.append((nn, name, _op(tracer, getattr(conv, name), group, count)))
    spans = [
        (training, "train_step", "training.train_step"),
        (model.DualPathModel, "forward", "model.forward"),
        (autograd, "backward", "autograd.backward"),
        (nn.Adam, "step", "nn.adam_step"),
        (model, "sample", "sampling.sample"),
        (model, "initial_recon", "sampling.initial_recon"),
        (hyperprior, "data_grad", "sampling.data_grad"),
        (reconstruction, "data_grad", "sampling.data_grad"),
        (reconstruction.StepSizeGenerator, "forward", "reconstruction.step_gen"),
        (reconstruction, "hgdm_step", "reconstruction.hgdm"),
        (reconstruction.SoftGuidedUNet, "forward", "reconstruction.soft_unet"),
    ]
    targets += [(owner, attr, _timed(tracer, getattr(owner, attr), name)) for owner, attr, name in spans]
    targets.append((reconstruction.HardMaskedAttention, "forward",
                    _with_count(tracer, reconstruction.HardMaskedAttention.forward,
                                "reconstruction.hard_att", _count_hard_att)))
    targets.append((hyperprior.HyperpriorBranch, "forward",
                    _with_count(tracer, hyperprior.HyperpriorBranch.forward,
                                "hyperprior.branch", _count_branch)))
    return targets


@contextmanager
def instrument(tracer):
    """Route the package's traced callables through `tracer` for the block."""
    targets = _targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# Inclusive forward time per step of each module-level span.
MODULE_METRICS = {
    "training.train_step_s": "training.train_step",
    "model.forward_s": "model.forward",
    "autograd.backward_s": "autograd.backward",
    "nn.adam_step_s": "nn.adam_step",
    "hyperprior.branch_s": "hyperprior.branch",
    "reconstruction.step_gen_s": "reconstruction.step_gen",
    "reconstruction.hgdm_s": "reconstruction.hgdm",
    "reconstruction.hard_att_s": "reconstruction.hard_att",
    "reconstruction.soft_unet_s": "reconstruction.soft_unet",
    "sampling.sample_s": "sampling.sample",
    "sampling.initial_recon_s": "sampling.initial_recon",
    "sampling.data_grad_s": "sampling.data_grad",
}
# Set-up calls, reported as the median of their spans.
SETUP_METRICS = {
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.restore_s": "checkpoint.restore",
    "pgm.write_s": "pgm.write",
    "pgm.read_s": "pgm.read",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced):
    """Per-layer metrics: per-step figures over the traced steps, whose wall
    times are `traced`; `untraced` are the untraced steps of the same run."""
    summary = tracer.summary()
    counters = tracer.counters
    n = len(traced)

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    table = {}
    for group in list(OP_GROUPS) + list(CONV_OPS):
        table[f"{group}.fwd_s"] = (_ratio(own(group + ".fwd"), n), "s")
        table[f"{group}.bwd_s"] = (_ratio(own(group + ".bwd"), n), "s")
    table["ops.attention.calls"] = (_ratio(calls("ops.attention.fwd"), n), "count")
    table["conv.conv2d.calls"] = (_ratio(calls("conv.conv2d.fwd"), n), "count")
    table["ops.attention.saved_bytes"] = (_ratio(counters["ops.attention.saved_bytes"], n), "bytes")
    table["conv.conv2d.im2col_bytes"] = (_ratio(counters["conv.conv2d.im2col_bytes"], n), "bytes")
    table["autograd.tape_nodes"] = (_ratio(counters["autograd.tape_nodes"], n), "count")
    table["ops.attention.useful_v_ratio"] = (
        _ratio(counters["ops.attention.useful_v"], counters["ops.attention.useful_v_calls"]), "ratio")
    table["hyperprior.mask_coverage"] = (
        _ratio(counters["hyperprior.mask_coverage"], counters["hyperprior.branch_calls"]), "ratio")
    for metric, name in MODULE_METRICS.items():
        table[metric] = (_ratio(inclusive(name), n), "s")
    table["autograd.engine_s"] = (_ratio(own("autograd.backward"), n), "s")
    for metric, name in SETUP_METRICS.items():
        durations = tracer.durations(name)
        table[metric] = (statistics.median(durations) if durations else 0.0, "s")
    table["checkpoint.bytes"] = (_ratio(counters["checkpoint.bytes"], calls("checkpoint.save")), "bytes")
    table["metrics.psnr_s"] = (_ratio(inclusive("metrics.psnr"), calls("metrics.psnr")), "s")
    table["metrics.ssim_s"] = (_ratio(inclusive("metrics.ssim"), calls("metrics.ssim")), "s")
    leaf = sum(s for name, (_, _, s) in summary.items() if name.startswith(LEAF_PREFIXES))
    table["trace.coverage"] = (_ratio(leaf, inclusive(STEP)), "ratio")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1 if n and untraced else 0.0
    table["trace.overhead"] = (overhead, "ratio")
    return table
