"""Tape mechanics: backward contract, accumulation, precision, Adam."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dualpath_cs import ops
from dualpath_cs.autograd import backward, finite_checks, no_grad, precision, tensor
from dualpath_cs.errors import ConfigError, ContractError, NumericsError
from dualpath_cs.nn import Adam, Conv2d, LayerNormChannels, Parameter


class TestBackward:
    def test_linear_map_gradient(self):
        x = tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = ops.reduce_sum(ops.mul(x, 2.0))
        backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_hand_differentiated_mse(self):
        # loss = (w*x - t)^2 at w=1, x=2, t=0 -> dL/dw = 2*(wx-t)*x = 8
        w = tensor([1.0], requires_grad=True)
        x = tensor([2.0])
        t = tensor([0.0])
        loss = ops.mse(ops.mul(w, x), t)
        backward(loss)
        assert np.allclose(w.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(ops.mul(x, 3.0))

    def test_accumulation_matches_sum_of_losses(self):
        base = np.array([0.3, -1.2, 0.7])
        x1 = tensor(base, requires_grad=True)
        backward(ops.reduce_sum(ops.mul(x1, x1)))
        backward(ops.reduce_sum(ops.mul(x1, 3.0)))

        x2 = tensor(base, requires_grad=True)
        total = ops.add(ops.reduce_sum(ops.mul(x2, x2)), ops.reduce_sum(ops.mul(x2, 3.0)))
        backward(total)
        assert np.allclose(x1.grad, x2.grad)

    def test_unreached_tensor_untouched(self):
        x = tensor([1.0], requires_grad=True)
        other = tensor([5.0], requires_grad=True)
        other.grad = np.array([42.0])
        backward(ops.reduce_sum(ops.mul(x, x)))
        assert np.array_equal(other.grad, [42.0])

    def test_intermediates_receive_gradients(self):
        x = tensor([2.0], requires_grad=True)
        mid = ops.mul(x, 3.0)
        backward(ops.reduce_sum(ops.mul(mid, mid)))
        assert mid.grad is not None
        assert np.allclose(mid.grad, 2.0 * mid.data)

    def test_second_backward_through_a_graph_raises(self):
        x = tensor([2.0], requires_grad=True)
        loss = ops.reduce_sum(ops.mul(x, x))
        backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(loss)
        assert np.allclose(x.grad, [4.0])

    def test_new_loss_on_a_consumed_intermediate_raises(self):
        x = tensor([2.0], requires_grad=True)
        mid = ops.mul(x, 3.0)
        backward(ops.reduce_sum(ops.mul(mid, mid)))
        with pytest.raises(ContractError, match="consumed"):
            backward(ops.reduce_sum(ops.mul(mid, 2.0)))

    def test_early_node_feeding_a_late_op_gets_every_contribution(self):
        # a = x^2 feeds both the start of a chain and its last op, so it must
        # run after the whole chain: L = sum((2a + 1)^2 * a).
        with precision("f64"):
            x = tensor([0.5, -1.5, 2.0], requires_grad=True)
            a = ops.mul(x, x)
            chain = ops.add(ops.mul(a, 2.0), 1.0)
            backward(ops.reduce_sum(ops.mul(ops.mul(chain, chain), a)))
        ad = x.data * x.data
        da = (2 * ad + 1) * (6 * ad + 1)
        assert np.allclose(a.grad, da, rtol=1e-12)
        assert np.allclose(x.grad, da * 2 * x.data, rtol=1e-12)

    def test_backward_frees_the_tape_as_it_runs(self):
        def chain_loss(x):
            y = x
            for _ in range(16):
                y = ops.mul(y, 1.0)
            return ops.reduce_sum(y)

        x = tensor(np.ones(1 << 18), requires_grad=True)  # 1 MB of float32
        tracemalloc.start()
        try:
            loss = chain_loss(x)
            tracemalloc.reset_peak()
            after_forward = tracemalloc.get_traced_memory()[0]
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - after_forward < 4 * x.data.nbytes


class TestModes:
    def test_no_grad_suppresses_tape(self):
        x = tensor([1.0], requires_grad=True)
        with no_grad():
            out = ops.mul(x, 2.0)
        assert not out.requires_grad

    def test_precision_context(self):
        with precision("f64"):
            assert tensor([1.0]).dtype == np.float64
        assert tensor([1.0]).dtype == np.float32

    def test_finite_check_raises(self):
        x = tensor([1e38], dtype=np.float32)
        with np.errstate(over="ignore"), finite_checks():
            with pytest.raises(NumericsError):
                ops.mul(x, 1e10)

    @pytest.mark.parametrize("name, apply", [
        ("add", lambda x: ops.add(x, 1.0)),
        ("mul", lambda x: ops.mul(x, 2.0)),
        ("gelu", ops.gelu),
    ], ids=["add", "mul", "gelu"])
    def test_forward_finite_check_names_the_op(self, name, apply):
        with finite_checks(), pytest.raises(NumericsError, match=f"forward of {name}$"):
            apply(tensor([1.0, np.inf], dtype=np.float32))

    @staticmethod
    def _overflowing_gradient_loss():
        # Finite forward values (a*b = 1, then 1e30), but dL/da = 1e30 * b is inf in float32.
        a = tensor([1e-30], requires_grad=True)
        b = tensor([1e30], requires_grad=True)
        return a, ops.reduce_sum(ops.mul(ops.mul(a, b), 1e30))

    def test_finite_check_covers_backward_and_names_the_op(self):
        with np.errstate(over="ignore"), finite_checks():
            early = ops.mul(tensor([2.0], requires_grad=True), 3.0)
            _, loss = self._overflowing_gradient_loss()
            with pytest.raises(NumericsError, match="backward of mul"):
                backward(ops.add(loss, ops.reduce_sum(early)))
        # `early` was still queued when the pass raised; the pass consumed it too.
        with pytest.raises(ContractError, match="consumed"):
            backward(ops.reduce_sum(early))

    def test_backward_gradients_unchecked_when_switched_off(self):
        a, loss = self._overflowing_gradient_loss()
        with np.errstate(over="ignore"):
            backward(loss)
        assert np.isinf(a.grad).all()


class TestAdam:
    def test_zero_gradient_leaves_values(self):
        p = Parameter(np.array([1.0, -2.0], dtype=np.float32))
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        assert np.array_equal(p.data, before)

    def test_first_step_is_bias_corrected_unit(self):
        # g=1, defaults: m_hat = v_hat = 1, update = -lr/(1+eps) ~ -0.1
        p = Parameter(np.array([1.0], dtype=np.float64))
        p.grad = np.array([1.0])
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, 1.0 - 0.1, atol=1e-6)
        assert p.grad is None
        assert p.step_count == 1

    def test_repeated_steps_follow_negative_gradient_sign(self):
        p = Parameter(np.array([0.0], dtype=np.float64))
        opt = Adam([p], lr=0.05)
        values = [p.data.copy()]
        for _ in range(3):
            p.grad = np.array([2.5])
            opt.step()
            values.append(p.data.copy())
        deltas = np.diff(np.concatenate(values))
        assert np.all(deltas < 0)

    def test_missing_gradient_rejected(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ContractError):
            Adam([p], lr=0.1).step()

    def test_missing_gradient_rejected_before_any_update(self):
        a = Parameter(np.array([1.0]))
        b = Parameter(np.array([1.0]))
        a.grad = np.array([1.0])
        with pytest.raises(ContractError):
            Adam([a, b], lr=0.1).step()
        assert np.array_equal(a.data, [1.0])
        assert np.array_equal(a.adam_m, [0.0]) and np.array_equal(a.adam_v, [0.0])
        assert a.step_count == 0

    @pytest.mark.parametrize("lr", [10**400, -1.0, float("nan")], ids=["1e400", "negative", "nan"])
    def test_lr_that_cannot_train_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            Adam([Parameter(np.array([1.0]))], lr=lr)

    @pytest.mark.parametrize("betas", [(1.0, 0.999), (0.9, -0.5), (0.9, Fraction(10**400 - 1, 10**400))],
                             ids=["one", "negative", "rounds-to-one"])
    def test_beta_outside_unit_interval_rejected(self, betas):
        with pytest.raises(ConfigError, match="betas"):
            Adam([Parameter(np.array([1.0]))], lr=0.1, beta1=betas[0], beta2=betas[1])


def _count_tape_nodes(out):
    """How many nodes reachable from `out` record a backward closure."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward_fn is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class TestLayersOnTheTape:
    def test_conv_records_its_parameters_as_parents(self, rng):
        conv = Conv2d(2, 3, 3, rng)
        x = tensor(rng.standard_normal((1, 2, 5, 5)))
        parents = conv(x)._parents
        assert len(parents) == 3
        assert parents[0] is x and parents[1] is conv.weight and parents[2] is conv.bias

    def test_layer_norm_channels_is_one_tape_node(self, rng):
        norm = LayerNormChannels(4)
        x = tensor(rng.standard_normal((2, 4, 3, 5)), requires_grad=True)
        out = norm(x)
        assert _count_tape_nodes(out) == 1
        assert len(out._parents) == 3
        assert out._parents[0] is x and out._parents[1] is norm.gain and out._parents[2] is norm.shift
