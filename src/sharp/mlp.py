"""Small dense network with exact reverse-mode gradients, plus Adam.

Architecture is fixed at two tanh hidden layers and a linear output layer
(which may hold several heads side by side). Each net keeps all of its
parameters in one contiguous float64 vector, `params`, laid out as W1, b1,
W2, b2, W3, b3; `weights` and `biases` are views into it, so writing through
either changes the other. Optimizer steps and target-network averaging run
once over the whole vector. Batched inputs are (B, n_in) and gradients are
summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


def param_count(layer_sizes) -> int:
    return sum(a * b + b for a, b in zip(layer_sizes, layer_sizes[1:]))


class Mlp:
    """Parameters W1, b1, W2, b2, W3, b3 for in -> h1 -> h2 -> out, held as
    views into one flat buffer; a new net is all zeros."""

    def __init__(self, layer_sizes):
        sizes = tuple(int(n) for n in layer_sizes)
        params = np.zeros(param_count(sizes))
        self.layer_sizes = sizes
        self.params = params
        self.weights: list = []  # [W1, W2, W3], each (n_prev, n_next)
        self.biases: list = []   # [b1, b2, b3]
        i = 0
        for a, b in zip(sizes, sizes[1:]):
            self.weights.append(params[i:i + a * b].reshape(a, b))
            self.biases.append(params[i + a * b:i + a * b + b])
            i += a * b + b

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    def __reduce__(self):
        # pickle and the copy module as (layer_sizes, params), so that the
        # copy's weights and biases are views of its own params again
        return from_params, (self.layer_sizes, self.params)

    def copy(self) -> "Mlp":
        return from_params(self.layer_sizes, self.params)

    def flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        if np.shape(vec) != self.params.shape:
            raise ShapeMismatch(f"flat vector has shape {np.shape(vec)}, "
                                f"net needs {self.params.shape}")
        self.params[...] = vec


def from_params(layer_sizes, params: np.ndarray) -> Mlp:
    """A net of layer_sizes holding a copy of params."""
    net = Mlp(layer_sizes)
    net.set_flat(params)
    return net


def init_mlp(n_in: int, hidden: tuple, n_out: int, rng: np.random.Generator) -> Mlp:
    """Xavier-scaled initialization; output layer starts small."""
    if len(hidden) != 2:
        raise ShapeMismatch("expected exactly two hidden layers")
    net = Mlp((n_in, *hidden, n_out))
    for w in net.weights:
        a, b = w.shape
        w[...] = rng.normal(0.0, np.sqrt(2.0 / (a + b)), size=(a, b))
    net.weights[-1] *= 0.01
    return net


def mlp_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Deterministic feed-forward value for a (B, n_in) or (n_in,) input."""
    y, _ = mlp_forward_cached(net, x)
    return y


def mlp_forward_cached(net: Mlp, x: np.ndarray):
    """Forward pass returning the activation cache needed by mlp_backward."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != net.n_in:
        raise ShapeMismatch(f"input width {x.shape[1]} != {net.n_in}")
    (w1, w2, w3), (b1, b2, b3) = net.weights, net.biases
    h1 = x @ w1
    h1 += b1
    np.tanh(h1, out=h1)
    h2 = h1 @ w2
    h2 += b2
    np.tanh(h2, out=h2)
    y = h2 @ w3
    y += b3
    cache = (x, h1, h2)
    return (y[0] if squeeze else y), cache


class MlpStack:
    """Nets of one layer shape, their weights and biases stacked on a leading
    axis, forwarded as many small batches at once. Every net must share the
    first one's layer sizes. The stack keeps no state between calls: a
    caller that forwards many inputs for one which keeps layout(which)."""

    def __init__(self, nets):
        self.n_out = nets[0].n_out
        self.weights = [np.stack([net.weights[i] for net in nets]) for i in range(3)]
        self.biases = [np.stack([net.biases[i] for net in nets])[:, None, :]
                       for i in range(3)]

    def layout(self, which: np.ndarray):
        """(at, shape, params) for rows of net which[i]: row i's flat place in
        the padded stack of the given shape, and the live nets' (weights,
        biases) per layer, as at construction."""
        # a row's place in its block: the rows of its net up to it, less one
        seen = np.cumsum(which[:, None] == np.arange(len(self.weights[0])), axis=0)
        pos = seen[np.arange(len(which)), which] - 1
        sizes = seen[-1]
        nets = np.flatnonzero(sizes)
        block = (np.cumsum(sizes > 0) - 1)[which]
        m = max(2, int(sizes.max()))
        params = [(w[nets], b[nets]) for w, b in zip(self.weights, self.biases)]
        return block * m + pos, (len(nets), m), params

    def forward(self, layout, x: np.ndarray) -> np.ndarray:
        """Row i of x (B, n_in) through net which[i], for layout =
        self.layout(which). The rows of each net in which form one block of
        a zero-padded (nets, M, n_in) stack, M the largest block and at least
        2, and each layer is one np.matmul over the stack: one product per
        block, with the operations of mlp_forward, so a row's output has the
        bits it has in mlp_forward of any two or more rows."""
        at, shape, params = layout
        h = np.zeros((*shape, x.shape[1]))
        h.reshape(-1, x.shape[1])[at] = x
        for i, (w, b) in enumerate(params):
            h = np.matmul(h, w)
            h += b
            if i < 2:
                np.tanh(h, out=h)
        return h.reshape(-1, self.n_out)[at]


def _upstream(net: Mlp, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    g = np.asarray(upstream, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != (x.shape[0], net.n_out):
        raise ShapeMismatch(f"upstream shape {g.shape} != ({x.shape[0]}, {net.n_out})")
    return g


def _through_tanh(dh: np.ndarray, h: np.ndarray) -> np.ndarray:
    """dh * (1 - h*h) in place: the gradient through a tanh whose output is h."""
    slope = h * h
    np.subtract(1.0, slope, out=slope)
    dh *= slope
    return dh


def _hidden_grads(net: Mlp, cache, g: np.ndarray):
    """Gradients at the two hidden layers' pre-activations, (dh1, dh2)."""
    _, h1, h2 = cache
    dh2 = _through_tanh(g @ net.weights[2].T, h2)
    dh1 = _through_tanh(dh2 @ net.weights[1].T, h1)
    return dh1, dh2


def mlp_backward(net: Mlp, cache, upstream: np.ndarray, input_grad: bool = True):
    """Exact gradients of the forward map.

    upstream is dLoss/dOutput, shape (B, n_out). Returns (grads, d_input)
    where grads is [W1, b1, W2, b2, W3, b3], each summed over the batch;
    d_input is None, and its product is skipped, when input_grad is False.
    """
    x, h1, h2 = cache
    g = _upstream(net, x, upstream)
    dh1, dh2 = _hidden_grads(net, cache, g)
    grads = [x.T @ dh1, dh1.sum(axis=0), h1.T @ dh2, dh2.sum(axis=0),
             h2.T @ g, g.sum(axis=0)]
    return grads, (dh1 @ net.weights[0].T if input_grad else None)


def mlp_input_grad(net: Mlp, cache, upstream: np.ndarray) -> np.ndarray:
    """d_input of mlp_backward, bit for bit, without the parameter gradients."""
    x = cache[0]
    dh1, _ = _hidden_grads(net, cache, _upstream(net, x, upstream))
    return dh1 @ net.weights[0].T


@dataclass
class Adam:
    """Standard Adam over one Mlp's flat parameter buffer."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    def step(self, net: Mlp, grads: list) -> None:
        """One update from grads in the order W1, b1, W2, b2, W3, b3."""
        g = np.concatenate([gi.ravel() for gi in grads])
        if self.m is None:
            self.m = np.zeros_like(net.params)
            self.v = np.zeros_like(net.params)
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        # params -= lr * (m/b1c) / (sqrt(v/b2c) + eps)
        # with the same operations and operands (a product's operand order
        # does not change it), in two vectors: g is reused once v is updated
        m *= self.beta1
        step = g * (1.0 - self.beta1)
        m += step
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=step)
        step *= g
        v += step
        np.divide(m, b1c, out=step)
        step *= self.lr
        np.divide(v, b2c, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        step /= g
        net.params -= step
