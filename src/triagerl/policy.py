"""Policy/value network: a two-hidden-layer MLP with ReLU and dropout.

A shared trunk (256 then 128 units) feeds a 3-way action head and a scalar
value head. Everything is plain numpy so gradients stay analytic and
checkable against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .env import ACTION_COUNT

HIDDEN_SIZES = (256, 128)
DEFAULT_DROPOUT = 0.2

_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w_pi", "b_pi", "w_v", "b_v")


@dataclass
class PolicyParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_pi: np.ndarray
    b_pi: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    dropout_rate: float
    seed: int

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_sizes(self) -> tuple[int, int]:
        return (self.w1.shape[1], self.w2.shape[1])

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _PARAM_ORDER]

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            *[a.copy() for a in self.arrays()], dropout_rate=self.dropout_rate, seed=self.seed
        )


def init_params(
    input_dim: int,
    hidden: tuple[int, int] = HIDDEN_SIZES,
    dropout_rate: float = DEFAULT_DROPOUT,
    seed: int = 0,
) -> PolicyParams:
    """Seeded symmetric-uniform init: U(±sqrt(6/(fan_in+fan_out))), zero biases."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0,1), got {dropout_rate}")
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    h1, h2 = hidden
    return PolicyParams(
        w1=layer(input_dim, h1),
        b1=np.zeros(h1),
        w2=layer(h1, h2),
        b2=np.zeros(h2),
        w_pi=layer(h2, ACTION_COUNT),
        b_pi=np.zeros(ACTION_COUNT),
        w_v=layer(h2, 1),
        b_v=np.zeros(1),
        dropout_rate=dropout_rate,
        seed=seed,
    )


class SelectMode(Enum):
    SAMPLE = "sample"
    GREEDY = "greedy"


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def draw_dropout_masks(
    rng: np.random.Generator, sizes: tuple[int, int], rate: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted-dropout masks for n rows: keep with prob 1-rate, scaled by 1/(1-rate)."""
    shape1, shape2 = (n, sizes[0]), (n, sizes[1])
    if rate == 0.0:
        return np.ones(shape1), np.ones(shape2)
    keep = 1.0 - rate
    return (
        (rng.random(shape1) < keep) / keep,
        (rng.random(shape2) < keep) / keep,
    )


def forward_cache(
    params: PolicyParams, states: np.ndarray, masks: tuple[np.ndarray, np.ndarray] | None = None
) -> dict:
    """Batched forward pass keeping intermediates for backpropagation."""
    states = np.atleast_2d(states)
    if states.shape[1] != params.input_dim:
        raise DimensionMismatch(
            f"state length {states.shape[1]} != network input {params.input_dim}"
        )
    z1 = states @ params.w1 + params.b1
    a1 = np.maximum(z1, 0.0)
    h1 = a1 * masks[0] if masks is not None else a1
    z2 = h1 @ params.w2 + params.b2
    a2 = np.maximum(z2, 0.0)
    h2 = a2 * masks[1] if masks is not None else a2
    logits = h2 @ params.w_pi + params.b_pi
    probs = softmax(logits)
    values = (h2 @ params.w_v).ravel() + params.b_v[0]
    return {
        "states": states, "z1": z1, "h1": h1, "z2": z2, "h2": h2,
        "logits": logits, "probs": probs, "values": values, "masks": masks,
    }


def flatten_params(params: PolicyParams) -> np.ndarray:
    """Row-major float64 flattening in fixed parameter order."""
    return np.concatenate([a.ravel() for a in params.arrays()])


def unflatten_params(
    flat: np.ndarray,
    input_dim: int,
    hidden: tuple[int, int],
    dropout_rate: float,
    seed: int,
) -> PolicyParams:
    h1, h2 = hidden
    shapes = [
        (input_dim, h1), (h1,), (h1, h2), (h2,),
        (h2, ACTION_COUNT), (ACTION_COUNT,), (h2, 1), (1,),
    ]
    expected = sum(int(np.prod(shape)) for shape in shapes)
    if len(flat) != expected:
        raise DimensionMismatch(f"flat vector has {len(flat)} values, expected {expected}")
    arrays = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(np.asarray(flat[pos : pos + size], dtype=np.float64).reshape(shape))
        pos += size
    return PolicyParams(*arrays, dropout_rate=dropout_rate, seed=seed)
