"""Policy/value network: a two-hidden-layer MLP with ReLU and dropout.

A shared trunk (256 then 128 units) feeds a 3-way action head and a scalar
value head. Everything is plain numpy so gradients stay analytic and
checkable against finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from .env import ACTION_COUNT

HIDDEN_SIZES = (256, 128)
DEFAULT_DROPOUT = 0.2


def param_layout(input_dim: int, hidden: tuple[int, int]) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Each parameter's name and shape, in the order they sit in the flat buffer."""
    h1, h2 = hidden
    return (
        ("w1", (input_dim, h1)), ("b1", (h1,)), ("w2", (h1, h2)), ("b2", (h2,)),
        ("w_pi", (h2, ACTION_COUNT)), ("b_pi", (ACTION_COUNT,)), ("w_v", (h2, 1)), ("b_v", (1,)),
    )


class PolicyParams:
    """The network's parameters in one contiguous float64 vector, `flat`.

    `w1 ... b_v` are reshaped views into `flat`, laid out by `param_layout`,
    so writing through either one changes both. Without `flat` the buffer
    starts at zero; a gradient is held the same way.
    """

    def __init__(self, input_dim: int, hidden_sizes: tuple[int, int], dropout_rate: float,
                 flat: np.ndarray | None = None):
        layout = param_layout(input_dim, hidden_sizes)
        size = sum(math.prod(shape) for _, shape in layout)
        self.flat = np.zeros(size) if flat is None else np.ascontiguousarray(flat, dtype=np.float64)
        if self.flat.shape != (size,):
            raise ValueError(f"flat vector has shape {self.flat.shape}, expected ({size},)")
        self.input_dim = input_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.dropout_rate = dropout_rate
        pos = 0
        for name, shape in layout:
            setattr(self, name, self.flat[pos : pos + math.prod(shape)].reshape(shape))
            pos += math.prod(shape)

    def zeros_like(self) -> "PolicyParams":
        return PolicyParams(self.input_dim, self.hidden_sizes, self.dropout_rate)

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.input_dim, self.hidden_sizes, self.dropout_rate, self.flat.copy())


def init_params(input_dim: int, hidden: tuple[int, int] = HIDDEN_SIZES, *, dropout_rate: float,
                seed: int) -> PolicyParams:
    """Seeded symmetric-uniform init: U(±sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(input_dim, hidden, dropout_rate)
    for name, shape in param_layout(input_dim, hidden):
        if len(shape) == 2:  # weights, drawn in layout order
            bound = math.sqrt(6.0 / sum(shape))
            getattr(params, name)[:] = rng.uniform(-bound, bound, size=shape)
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def draw_dropout_masks(
    rng: np.random.Generator, sizes: tuple[int, int], rate: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted-dropout masks for n rows: keep with prob 1-rate, scaled by 1/(1-rate)."""
    shape1, shape2 = (n, sizes[0]), (n, sizes[1])
    keep = 1.0 - rate
    return (
        (rng.random(shape1) < keep) / keep,
        (rng.random(shape2) < keep) / keep,
    )


def forward_cache(
    params: PolicyParams, states: np.ndarray, masks: tuple[np.ndarray, np.ndarray] | None = None
) -> dict:
    """Batched forward pass over (n, input_dim) `states`: logits, values and
    the hidden outputs backpropagation reads, each one array made in place.

    Each head output is one dot product of a row with one contiguous weight
    vector, so its bits do not depend on the batch. numpy sends a one-row
    product to gemv, which rounds otherwise than the trunk's many-row
    products, so a one-row batch is played as two copies of its row.
    """
    n = len(states)
    if n == 1:
        states = np.repeat(states, 2, axis=0)
        if masks is not None:
            masks = tuple(np.repeat(m, 2, axis=0) for m in masks)
    h1 = states @ params.w1
    h1 += params.b1
    np.maximum(h1, 0.0, out=h1)
    if masks is not None:
        h1 *= masks[0]
    h2 = h1 @ params.w2
    h2 += params.b2
    np.maximum(h2, 0.0, out=h2)
    if masks is not None:
        h2 *= masks[1]
    heads = np.vecdot(h2[:, None, :], np.vstack([params.w_pi.T, params.w_v.T]))
    logits = heads[:, :-1] + params.b_pi
    values = heads[:, -1] + params.b_v[0]
    cache = {"h1": h1, "h2": h2, "logits": logits, "values": values}
    return {name: array[:n] for name, array in cache.items()}
