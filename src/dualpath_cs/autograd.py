"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Tensors are immutable after creation except for gradient accumulation, which
happens only inside :func:`backward`. Each differentiable op records a `Node`:
its parents' nodes, a closure that maps the output gradient to per-parent
gradients, and a creation number. Backward consumes this tape: each node drops
its closure, and with it every array the closure saved, once it has run.

The graph links nodes, not tensors. A recorded op's output Tensor holds its
array and its node; a leaf Tensor (a parameter or an input) stands as its own
node. So the tape reaches an op's output array only through a closure that
captured it, and an output no backward reads is freed with its Tensor.

The tape rule: a backward closure captures arrays, shapes and dtypes, never a
Tensor. It may keep its parents' arrays, its output and per-pixel statistics
(layer_norm's channel means and inverse deviations), and nothing else the
forward derives from them; it keeps an operand's array only when a gradient
that needs it is enabled. An elementwise op may keep its local derivative in
place of its input (gelu's slope, computed only when its output is taped), or
read it off its own output (relu's mask, sigmoid's s(1 - s)), which the next
op usually keeps anyway. A buffer built from a kept array (conv2d's padded
phase buffer, its lowered blocks and its row-ordered weights, a strided 1x1
conv's strided input, layer_norm's normalised input, reduce_max's argmax) is
rebuilt in the backward, not stored. A concatenation is kept as its parts and
rebuilt where a backward reads it: a taped `ops.concat` output records its
parts' arrays (`parts`), which the op that reads it keeps in place of the copy
(conv2d fills its phase buffer part by part; a 1x1 conv and mul rebuild the
concatenation with `joined`).
A closure captures the arrays themselves, never `t.data` at backward time:
`Adam.step` rebinds a parameter's `.data`.

Precision is process-global: float32 for training and inference, and float64
inside `precision("f64")`, the one way to switch it, for gradient verification
(finite differences in float32 are too noisy to check against).
"""

import heapq
from contextlib import contextmanager
from itertools import count

import numpy as np

from .errors import ContractError, NumericsError, as_real_array

_DTYPES = {"f32": np.float32, "f64": np.float64}

_default_dtype = np.float32
_grad_enabled = True
_check_finite = False
_creation = count()


def default_dtype():
    return _default_dtype


@contextmanager
def precision(mode):
    """Temporarily switch the global precision to 'f32' or 'f64'."""
    global _default_dtype
    if not (isinstance(mode, str) and mode in _DTYPES):  # a dict or list mode is unhashable
        raise ContractError(f"unknown precision {mode!r}, expected 'f32' or 'f64'")
    saved = _default_dtype
    _default_dtype = _DTYPES[mode]
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
def finite_checks():
    """Check every op output and backward gradient for NaN/Inf inside the block (slow; meant for tests)."""
    global _check_finite
    saved = _check_finite
    _check_finite = True
    try:
        yield
    finally:
        _check_finite = saved


class Node:
    """One recorded op on the tape: its gradient, its parents' nodes, its backward closure."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, parents, backward_fn):
        self.grad = None
        self.requires_grad = True
        self._parents = parents
        self._backward_fn = backward_fn
        self._seq = next(_creation)


class Tensor:
    """Dense n-dimensional array with optional gradient tracking.

    A recorded op's output reads its gradient and tape links through `_node`;
    a leaf has no node, keeps its own gradient and stands as its own node. A
    taped concatenation's `_parts` holds its parts' arrays and the axis that
    joins them. An ndarray is kept as it is; other data is cast to the global
    precision, and raises ContractError unless it is a real-valued array.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_node", "_parts")

    def __init__(self, data, requires_grad=False):
        if not isinstance(data, np.ndarray):
            data = as_real_array(data, ContractError).astype(_default_dtype, copy=False)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self._node = None
        self._parts = None

    @property
    def grad(self):
        return self._grad if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is None:
            self._grad = value
        else:
            self._node.grad = value

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node._backward_fn = fn  # only a recorded op has a closure to replace

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
    """Create a leaf tensor, cast to the global (or given) precision; an array already of that
    dtype is taken as it is, and data that is not a real-valued array raises ContractError."""
    return Tensor(as_real_array(data, ContractError).astype(dtype or _default_dtype, copy=False),
                  requires_grad=requires_grad)


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
        out._node = Node(tuple(_node_of(p) for p in parents), backward_fn)
    return out


def parts(t):
    """(arrays, axis): what a backward closure keeps in place of `t`'s array. A taped
    concatenation gives its parts and the axis that joins them, any other tensor its array
    alone and no axis."""
    return t._parts or ((t.data,), None)


def joined(arrays, axis):
    """The array that `parts` gave as (arrays, axis), rebuilt when there are several."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _node_of(t):
    """A recorded op's node, or the leaf tensor itself."""
    return t if t._node is None else t._node


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
    _send(queue, _node_of(loss), np.ones_like(loss.data))
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
