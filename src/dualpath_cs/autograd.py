"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Tensors are immutable after creation except for gradient accumulation, which
happens only inside :func:`backward`. Each differentiable op records its
parents and a closure that maps the output gradient to per-parent gradients.

Precision is a process-global switch: float32 for training/inference and a
float64 mode for gradient verification (finite differences in float32 are too
noisy to check against).
"""

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericsError

_DTYPES = {"f32": np.float32, "f64": np.float64}

_default_dtype = np.float32
_grad_enabled = True
_check_finite = False


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
    """Check every op output for NaN/Inf (slow; meant for tests)."""
    global _check_finite
    saved = _check_finite
    _check_finite = enabled
    try:
        yield
    finally:
        _check_finite = saved


class Tensor:
    """Dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

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

    def detach(self):
        """Same data, severed from the tape (constant in any backward pass)."""
        return Tensor(self.data, requires_grad=False)

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=None):
    """Create a leaf tensor, cast to the global (or given) precision."""
    arr = np.asarray(data, dtype=dtype or _default_dtype)
    return Tensor(arr, requires_grad=requires_grad)


def make(data, parents, backward_fn):
    """Wrap an op result, recording tape structure when gradients are on.

    `backward_fn(grad_out) -> tuple` must return one gradient array (or None)
    per parent, aligned with `parents`.
    """
    if _check_finite and not np.all(np.isfinite(data)):
        raise NumericsError("non-finite value in forward op output")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(t) into t.grad for every reachable requires_grad tensor.

    Gradients of tensors not reachable from `loss` are left untouched. Repeated
    calls accumulate (a sum of two losses equals two separate backward passes).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
