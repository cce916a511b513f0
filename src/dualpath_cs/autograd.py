"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Tensors are immutable after creation except for gradient accumulation, which
happens only inside :func:`backward`. Each differentiable op records its
parents, a closure that maps the output gradient to per-parent gradients, and
a creation number. Backward consumes this tape: each node drops its closure,
and with it every array the closure saved, once it has run.

The tape rule: a backward closure may keep its parents' arrays, its output and
per-pixel statistics (layer_norm's channel means and inverse deviations), and nothing
else the forward derives from them. A parent's array is alive on the tape
anyway, through the node's parents, so a buffer built from it (conv2d's padded
phase buffer and tap-ordered weights, conv_transpose2x's input rows,
layer_norm's normalised input) is rebuilt in the backward, not stored. A
closure captures the arrays themselves, never `t.data` at backward time:
`Adam.step` rebinds a parameter's `.data`.

Precision is a process-global switch: float32 for training/inference and a
float64 mode for gradient verification (finite differences in float32 are too
noisy to check against).
"""

import heapq
from contextlib import contextmanager
from itertools import count

import numpy as np

from .errors import ContractError, NumericsError

_DTYPES = {"f32": np.float32, "f64": np.float64}

_default_dtype = np.float32
_grad_enabled = True
_check_finite = False
_creation = count()


def set_default_dtype(mode):
    """Set the global precision, 'f32' or 'f64'."""
    global _default_dtype
    if mode not in _DTYPES:
        raise ContractError(f"unknown precision {mode!r}, expected 'f32' or 'f64'")
    _default_dtype = _DTYPES[mode]


def default_dtype():
    return _default_dtype


@contextmanager
def precision(mode):
    """Temporarily switch the global precision."""
    global _default_dtype
    saved = _default_dtype
    set_default_dtype(mode)
    try:
        yield
    finally:
        _default_dtype = saved


@contextmanager
def no_grad():
    """Disable tape recording (evaluation fast path)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


@contextmanager
def finite_checks(enabled=True):
    """Check every op output and backward gradient for NaN/Inf (slow; meant for tests)."""
    global _check_finite
    saved = _check_finite
    _check_finite = enabled
    try:
        yield
    finally:
        _check_finite = saved


class Tensor:
    """Dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad=False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=_default_dtype)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=None):
    """Create a leaf tensor, cast to the global (or given) precision."""
    arr = np.asarray(data, dtype=dtype or _default_dtype)
    return Tensor(arr, requires_grad=requires_grad)


def _op_name(backward_fn):
    """The op that defined a backward closure, e.g. 'mul' for 'mul.<locals>.bwd'."""
    return backward_fn.__qualname__.split(".")[0]


def make(data, parents, backward_fn):
    """Wrap an op result, recording tape structure when gradients are on.

    `backward_fn(grad_out) -> tuple` must return one gradient array (or None)
    per parent, aligned with `parents`.
    """
    if _check_finite and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite value in the forward of {_op_name(backward_fn)}")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._seq = next(_creation)
    return out


def _consumed(grad_out):
    raise ContractError("backward through a graph that an earlier backward consumed")


def _send(queue, node, g):
    if node._backward_fn is _consumed:
        _consumed(g)
    if node.grad is None and node._backward_fn is not None:
        heapq.heappush(queue, (-node._seq, node))
    node.grad = g if node.grad is None else node.grad + g


def backward(loss):
    """Accumulate d(loss)/d(t) into t.grad for every reachable requires_grad tensor.

    Nodes run newest first, after all of their consumers. The pass consumes the
    graph, even if it raises: intermediates keep their .grad, but a later pass
    that reaches one raises ContractError. Leaves accumulate across calls.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    queue = []
    _send(queue, loss, np.ones_like(loss.data))
    try:
        while queue:
            node = heapq.heappop(queue)[1]
            fn, parents = node._backward_fn, node._parents
            node._backward_fn, node._parents = _consumed, ()
            grads = fn(node.grad)
            if _check_finite and not all(g is None or np.all(np.isfinite(g)) for g in grads):
                raise NumericsError(f"non-finite gradient in the backward of {_op_name(fn)}")
            for parent, g in zip(parents, grads):
                if g is not None and parent.requires_grad:
                    _send(queue, parent, g)
    finally:
        for _, node in queue:
            node._backward_fn, node._parents = _consumed, ()
