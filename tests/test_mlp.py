import copy
import math
import pickle

import numpy as np
import pytest

from sharp.errors import ShapeMismatch
from sharp.mlp import (Adam, Mlp, MlpStack, init_mlp, mlp_backward, mlp_forward,
                       mlp_forward_cached, mlp_input_grad)

from helpers import layer_arrays


def reference_forward(net, x):
    """Independent plain-loop re-implementation of the forward map."""
    h = list(x)
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            out.append(acc)
        h = [math.tanh(v) for v in out] if layer < 2 else out
    return np.array(h)


def finite_difference_grads(net, x, upstream, h=1e-5):
    """Central differences of sum(upstream * output) w.r.t. every parameter."""
    grads = []
    for p in layer_arrays(net):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            hi = float(np.sum(upstream * mlp_forward(net, x)))
            p[idx] = orig - h
            lo = float(np.sum(upstream * mlp_forward(net, x)))
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def max_relative_error(a_list, b_list):
    worst = 0.0
    for a, b in zip(a_list, b_list):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


class TestForward:
    def test_zero_net_zero_output(self):
        net = init_mlp(3, (4, 4), 2, np.random.default_rng(0))
        net.params[...] = 0.0
        assert np.allclose(mlp_forward(net, np.ones(3)), 0.0)

    def test_identity_chain_reproduces_tanh(self):
        net = init_mlp(1, (1, 1), 1, np.random.default_rng(0))
        net.weights[0][...] = 1.0
        net.weights[1][...] = 1.0
        net.weights[2][...] = 1.0
        for b in net.biases:
            b[...] = 0.0
        for x in (-1.3, 0.0, 0.4, 2.0):
            expected = math.tanh(math.tanh(x))
            assert mlp_forward(net, np.array([x]))[0] == pytest.approx(expected,
                                                                       abs=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(5)
        net = init_mlp(4, (6, 5), 3, rng)
        for _ in range(20):
            x = rng.normal(size=4)
            assert np.allclose(mlp_forward(net, x), reference_forward(net, x),
                               atol=1e-10)

    def test_shape_mismatch(self):
        net = init_mlp(3, (4, 4), 2, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            mlp_forward(net, np.ones(5))


    def test_stack_rows_match_batched_forward_bitwise(self):
        # rows of five nets in shuffled order, one net with a lone row and
        # one with none: each row has the bits of its net's forward of two
        # or more rows, the lone one repeated
        rng = np.random.default_rng(5)
        nets = [init_mlp(6, (16, 16), 4, rng) for _ in range(5)]
        which = rng.permutation([0] * 7 + [1] * 3 + [3] + [4] * 12)
        x = rng.normal(size=(len(which), 6))
        stack = MlpStack(nets)
        out = stack.forward(stack.layout(which), x)
        assert out.shape == (len(which), 4)
        for k, net in enumerate(nets):
            rows = x[which == k]
            alone = mlp_forward(net, np.concatenate([rows, rows]))[:len(rows)]
            assert out[which == k].tobytes() == alone.tobytes()


class TestBackward:
    def test_gradcheck_random_shapes(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            n_in = int(rng.integers(1, 5))
            h1, h2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            n_out = int(rng.integers(1, 4))
            net = init_mlp(n_in, (h1, h2), n_out, rng)
            net.weights[-1] *= 100.0  # undo the small output init for signal
            x = rng.normal(size=(3, n_in))
            upstream = rng.normal(size=(3, n_out))
            _, cache = mlp_forward_cached(net, x)
            grads, _ = mlp_backward(net, cache, upstream)
            fd = finite_difference_grads(net, x, upstream)
            assert max_relative_error(grads, fd) < 1e-4

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(2)
        net = init_mlp(3, (4, 4), 2, rng)
        x = rng.normal(size=(2, 3))
        _, cache = mlp_forward_cached(net, x)
        grads, d_in = mlp_backward(net, cache, np.zeros((2, 2)))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(d_in == 0)

    def test_duplicated_batch_doubles_gradient(self):
        rng = np.random.default_rng(3)
        net = init_mlp(3, (4, 4), 2, rng)
        x = rng.normal(size=(1, 3))
        up = rng.normal(size=(1, 2))
        _, cache1 = mlp_forward_cached(net, x)
        g1, _ = mlp_backward(net, cache1, up)
        x2 = np.vstack([x, x])
        up2 = np.vstack([up, up])
        _, cache2 = mlp_forward_cached(net, x2)
        g2, _ = mlp_backward(net, cache2, up2)
        for a, b in zip(g1, g2):
            assert np.allclose(2.0 * a, b, atol=1e-12)

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        net = init_mlp(3, (5, 5), 2, rng)
        net.weights[-1] *= 100.0
        x = rng.normal(size=(1, 3))
        up = rng.normal(size=(1, 2))
        _, cache = mlp_forward_cached(net, x)
        _, d_in = mlp_backward(net, cache, up)
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            fd[i] = (np.sum(up * mlp_forward(net, xp))
                     - np.sum(up * mlp_forward(net, xm))) / (2 * h)
        assert np.allclose(d_in[0], fd, atol=1e-6)

    def test_input_grad_is_backward_d_input_bitwise(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            n_in, h1, h2, n_out = (int(k) for k in rng.integers(1, 40, size=4))
            net = init_mlp(n_in, (h1, h2), n_out, rng)
            x = rng.normal(size=(int(rng.integers(1, 200)), n_in))
            upstream = rng.normal(size=(len(x), n_out))
            _, cache = mlp_forward_cached(net, x)
            _, d_in = mlp_backward(net, cache, upstream)
            assert np.array_equal(mlp_input_grad(net, cache, upstream), d_in)

    def test_skipped_input_grad_keeps_param_grads_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            n_in, h1, h2, n_out = (int(k) for k in rng.integers(1, 40, size=4))
            net = init_mlp(n_in, (h1, h2), n_out, rng)
            x = rng.normal(size=(int(rng.integers(1, 200)), n_in))
            upstream = rng.normal(size=(len(x), n_out))
            _, cache = mlp_forward_cached(net, x)
            grads, _ = mlp_backward(net, cache, upstream)
            grads_only, d_in = mlp_backward(net, cache, upstream, input_grad=False)
            assert d_in is None
            assert all(np.array_equal(a, b) for a, b in zip(grads, grads_only))


class TestFlatAndAdam:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(6)
        net = init_mlp(3, (4, 4), 2, rng)
        vec = net.flat()
        net2 = init_mlp(3, (4, 4), 2, np.random.default_rng(7))
        net2.set_flat(vec)
        assert np.array_equal(net2.flat(), vec)

    def test_adam_descends_quadratic(self):
        rng = np.random.default_rng(8)
        net = init_mlp(2, (8, 8), 1, rng)
        opt = Adam(lr=1e-2)
        x = rng.normal(size=(64, 2))
        target = (x[:, :1] * 2.0 - x[:, 1:] * 0.5)

        def loss():
            y, cache = mlp_forward_cached(net, x)
            return float(np.mean((y - target) ** 2)), y, cache

        first, _, _ = loss()
        for _ in range(300):
            val, y, cache = loss()
            grads, _ = mlp_backward(net, cache, 2.0 * (y - target) / len(x))
            opt.step(net, grads)
        final, _, _ = loss()
        assert final < first * 0.05

    def test_adam_step_visible_through_weights(self):
        rng = np.random.default_rng(11)
        net = init_mlp(3, (4, 4), 2, rng)
        before = [w.copy() for w in net.weights]
        _, cache = mlp_forward_cached(net, rng.normal(size=(5, 3)))
        grads, _ = mlp_backward(net, cache, rng.normal(size=(5, 2)))
        Adam(lr=1e-2).step(net, grads)
        assert all(not np.array_equal(w, b) for w, b in zip(net.weights, before))
        assert np.array_equal(net.flat(), np.concatenate([p.ravel()
                                                          for p in layer_arrays(net)]))

    def test_copy_shares_no_memory(self):
        net = init_mlp(3, (4, 4), 2, np.random.default_rng(12))
        twin = net.copy()
        for a in [twin.params] + layer_arrays(twin):
            for b in [net.params] + layer_arrays(net):
                assert not np.shares_memory(a, b)
        assert np.array_equal(twin.flat(), net.flat())

    @pytest.mark.parametrize("duplicate", [
        lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy, Mlp.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_duplicate_keeps_weights_views_of_params(self, duplicate):
        net = init_mlp(3, (4, 5), 2, np.random.default_rng(14))
        twin = duplicate(net)
        assert twin.layer_sizes == net.layer_sizes
        assert twin.params.tobytes() == net.params.tobytes()
        assert not np.shares_memory(twin.params, net.params)
        twin.params[0] += 1.0
        twin.biases[-1][-1] = 7.0
        assert twin.weights[0][0, 0] == net.weights[0][0, 0] + 1.0
        assert twin.params[-1] == 7.0
        assert np.array_equal(twin.flat(), np.concatenate([p.ravel()
                                                           for p in layer_arrays(twin)]))
        assert net.params[-1] != 7.0

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_set_flat_wrong_length(self, delta):
        net = init_mlp(3, (4, 4), 2, np.random.default_rng(13))
        with pytest.raises(ShapeMismatch):
            net.set_flat(np.zeros(net.flat().size + delta))
