"""Bytes of the arrays the tape keeps after one training forward, by op.

This script builds the default f32 `TrainConfig` model, runs one taped forward
and the MSE loss of `train_step` on seeded random patches, once on a single
64x64 patch and once on a batch of four 32x32 patches, and walks the tape from
the loss. It counts every array that a node's backward closure reaches: through
closure cells, nested functions, lists and tuples. A view is counted as the
array that owns its memory, and each array once, under the oldest node whose
closure reaches it. Arrays of model parameters, which are alive anyway, are
listed apart. Run it as

    PYTHONPATH=src python tools/tape_bytes.py
"""

import types

import numpy as np

from dualpath_cs import ops, training
from dualpath_cs.autograd import _op_name, tensor

SHAPES = (("64x64x1", 64, 1), ("32x32x4", 32, 4))
DATA_SEED = 0
PARAMETERS = "parameters"


def _owner(array):
    """The array that owns `array`'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _closure_values(fn):
    """Every value that `fn` reaches through closure cells, nested functions, lists and tuples."""
    stack, seen = [fn], set()
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, types.FunctionType):
            stack.extend(cell.cell_contents for cell in value.__closure__ or ())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)


def _closure_arrays(fn):
    """The ndarrays among `_closure_values(fn)`."""
    return (value for value in _closure_values(fn) if isinstance(value, np.ndarray))


def _tape_nodes(out):
    """The recorded nodes reachable from `out`, oldest first."""
    seen, stack, nodes = set(), [out._node], []
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward_fn is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return sorted(nodes, key=lambda node: node._seq)


def tape_bytes(loss, params):
    """({op name or PARAMETERS: bytes}, node count) of the arrays the tape from `loss` keeps."""
    param_ids = {id(_owner(p.data)) for p in params}
    counted, by_op = set(), {}
    nodes = _tape_nodes(loss)
    for node in nodes:
        name = _op_name(node._backward_fn)
        for array in _closure_arrays(node._backward_fn):
            owner = _owner(array)
            if id(owner) in counted:
                continue
            counted.add(id(owner))
            key = PARAMETERS if id(owner) in param_ids else name
            by_op[key] = by_op.get(key, 0) + owner.nbytes
    return by_op, len(nodes)


def taped_loss(patch, batch):
    """(loss, parameters) of one default-config forward and MSE on `batch` random
    [1,1,patch,patch] patches."""
    config = training.TrainConfig(patch_size=patch, batch_size=batch)
    model = training.build_model(config)
    rng = np.random.default_rng(DATA_SEED)
    target = tensor(rng.uniform(0.0, 1.0, (batch, 1, patch, patch)))
    return ops.mse(model(target).output, target), model.parameters()


def measure(patch, batch):
    """Tape bytes by op, and the node count, of `taped_loss(patch, batch)`."""
    return tape_bytes(*taped_loss(patch, batch))


def main():
    for label, patch, batch in SHAPES:
        by_op, nodes = measure(patch, batch)
        params = by_op.pop(PARAMETERS, 0)
        print(f"{label} nodes={nodes} arrays_mb={sum(by_op.values()) / 1e6:.2f} parameters_mb={params / 1e6:.2f}")
        for name, size in sorted(by_op.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {name} {size / 1e6:.2f}")


if __name__ == "__main__":
    main()
