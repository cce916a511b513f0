"""Parameters and the small layer zoo the reconstructor is built from.

A Parameter is a named leaf Tensor that carries its own Adam state, so layers
hand it to the ops as it is and the tape records it as a parent.
"""

import numpy as np

from . import ops
from .autograd import Tensor, default_dtype
from .conv import conv2d, conv_transpose2x
from .errors import ConfigError, ContractError, as_real_array, is_finite_real

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Parameter(Tensor):
    """Learnable leaf tensor plus its Adam state.

    `name` is a dotted path ("stages.2.step_gen.out.weight") assigned when the
    owning module tree is walked; a checkpoint's `shapes` and `steps` list it. An array
    that is not bool, integer or real float raises ContractError.
    """

    __slots__ = ("name", "adam_m", "adam_v", "step_count")

    def __init__(self, array):
        super().__init__(as_real_array(array, ContractError), requires_grad=True)
        self.name = ""
        self.adam_m = np.zeros_like(self.data)
        self.adam_v = np.zeros_like(self.data)
        self.step_count = 0

    @property
    def value(self):
        # Kept for its one caller, perfbench/workloads.py:110 (load_state), which clears gradients through it.
        return self

    def __repr__(self):
        return f"Parameter({self.name or '?'}, shape={self.shape})"


class Module:
    """Minimal parameter-tree container with dotted-name traversal."""

    def _children(self):
        for key, value in vars(self).items():
            if isinstance(value, (Parameter, Module)):
                yield key, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Parameter, Module)):
                        yield f"{key}.{i}", item

    def named_parameters(self, prefix=""):
        for key, child in self._children():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(child, Parameter):
                child.name = name
                yield name, child
            else:
                yield from child.named_parameters(name)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def uniform_fan_in(rng, shape, fan_in):
    """Zero-mean uniform init scaled by 1/sqrt(fan_in); the conv/linear default."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype())


class Conv2d(Module):
    """Biased conv with an odd square kernel; `conv2d` zero-pads by kernel // 2, a "same" conv."""

    def __init__(self, cin, cout, kernel, rng, stride=1):
        self.stride = stride
        self.weight = Parameter(uniform_fan_in(rng, (cout, cin, kernel, kernel), cin * kernel * kernel))
        self.bias = Parameter(np.zeros(cout, dtype=default_dtype()))

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, stride=self.stride)


class ConvTranspose2x(Module):
    """Biased stride-2 transposed conv with 2x2 kernel: exact spatial doubling."""

    def __init__(self, cin, cout, rng):
        self.weight = Parameter(uniform_fan_in(rng, (cin, cout, 2, 2), cin))
        self.bias = Parameter(np.zeros(cout, dtype=default_dtype()))

    def forward(self, x):
        return conv_transpose2x(x, self.weight, self.bias)


class LayerNormChannels(Module):
    """LayerNorm over the channel axis of an [N,C,H,W] map: one `ops.layer_norm` node (eps `ops.LAYER_NORM_EPS`)."""

    def __init__(self, channels):
        self.gain = Parameter(np.ones(channels, dtype=default_dtype()))
        self.shift = Parameter(np.zeros(channels, dtype=default_dtype()))

    def forward(self, x):
        return ops.layer_norm(x, self.gain, self.shift)


class SpatialGate(Module):
    """Spatial attention: gate by a 7x7 conv over channel-max and channel-mean maps."""

    def __init__(self, rng):
        self.conv = Conv2d(2, 1, 7, rng)

    def forward(self, x):
        mx = ops.reduce_max(x, axis=1)
        mn = ops.reduce_mean(x, axis=1)
        gate = ops.sigmoid(self.conv(ops.concat([mx, mn], axis=1)))
        return ops.mul(x, gate)


class ChannelGate(Module):
    """Squeeze-excite channel attention with reduction 4 and a sigmoid gate. Its 1x1 convs run as
    [N,1,1,C] @ [C,h] matmuls, one product per sample: as `Conv2d` calls they give the same forward
    bits at any N at about the same cost (each is one channel gemm), but change training's bits."""

    def __init__(self, channels, rng):
        hidden = max(1, channels // 4)
        self.down = Conv2d(channels, hidden, 1, rng)
        self.up = Conv2d(hidden, channels, 1, rng)

    def forward(self, x):
        gate = ops.transpose(ops.global_avg_pool(x), (0, 2, 3, 1))
        for conv, act in ((self.down, ops.gelu), (self.up, ops.sigmoid)):
            gate = act(ops.add(ops.matmul(gate, ops.transpose(conv.weight, (2, 3, 1, 0))), conv.bias))
        return ops.mul(x, ops.transpose(gate, (0, 3, 1, 2)))


def adam_settings(lr):
    """lr as a float; ConfigError unless it is a finite number >= 0 as a float."""
    if not (is_finite_real(lr) and float(lr) >= 0.0):
        raise ConfigError(f"lr must be a finite number >= 0, got {lr!r}")
    return float(lr)


class Adam:
    """Adam with bias correction and betas `ADAM_BETA1`, `ADAM_BETA2`; clears gradients after
    each step. lr=0 updates nothing."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = adam_settings(lr)

    def step(self):
        """Update every parameter, or none: a missing gradient raises before any update.

        The moments `adam_m` and `adam_v` are updated in place; `data` is bound to a new array,
        because a taped op's backward reads the array its forward saw.
        """
        for p in self.params:
            if p.grad is None:
                raise ContractError(f"parameter {p.name or '?'} has no gradient; run backward first")
        for p in self.params:
            g = p.grad
            p.step_count += 1
            t = p.step_count
            p.adam_m *= ADAM_BETA1
            p.adam_m += (1.0 - ADAM_BETA1) * g
            p.adam_v *= ADAM_BETA2
            p.adam_v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = p.adam_m / (1.0 - ADAM_BETA1 ** t)
            v_hat = p.adam_v / (1.0 - ADAM_BETA2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.grad = None
