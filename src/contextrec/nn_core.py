"""Minimal dense-network kernel: layers, dropout, backprop, Adam.

Everything runs in float64 so finite-difference gradient checks are
meaningful. No hidden global state; randomness always comes from an
explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "identity")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def check_range(name: str, value, low, high=math.inf, bounds="[)", integer=False) -> None:
    """Raise ValueError unless value is an int >= low (integer) or an int or
    float from low to high, each end closed or open as bounds says; a bool
    never passes, and an infinite high asks for a finite number."""
    if integer:
        ok, want = type(value) is int and value >= low, f"an integer >= {low}"
    else:
        ok = (type(value) in (int, float) and (low <= value if bounds[0] == "[" else low < value)
              and (value <= high if bounds[1] == "]" else value < high))
        want = (f"a number in {bounds[0]}{low}, {high}{bounds[1]}" if high < math.inf
                else f"a finite number {'>=' if bounds[0] == '[' else '>'} {low}")
    if not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")


class ShapeError(ValueError):
    """Raised when array dimensions do not chain; never silently broadcast."""


@dataclass
class LayerParams:
    """One dense layer: y = activation(W @ x + b), W is (out, in)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ShapeError("weights must be 2-D and biases 1-D")
        if self.biases.shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"bias length {self.biases.shape[0]} != output dim {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


def xavier_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier weight matrix of shape (fan_out, fan_in).

    Entries drawn from U[-b, b] with b = sqrt(6 / (fan_in + fan_out)).
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be >= 1")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_layers(widths: list[int], rng: np.random.Generator) -> list[LayerParams]:
    """Build a chain of layers from a width list [in, h1, ..., out].

    Hidden layers are relu, the final layer identity (linear readout).
    Biases start at zero.
    """
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    return [
        LayerParams(
            weights=xavier_init(widths[i], widths[i + 1], rng),
            biases=np.zeros(widths[i + 1]),
            activation="identity" if i == len(widths) - 2 else "relu",
        )
        for i in range(len(widths) - 1)
    ]


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: survivors scaled by 1/(1-rate).

    Returns (output, mask) where mask already carries the scale factor so
    the backward pass is a plain elementwise multiply.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * mask, mask


@dataclass
class ForwardTape:
    """Intermediate values from encoder_forward needed for exact replay."""

    inputs: list[np.ndarray]  # input to each layer (post-dropout of previous)
    pre_activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]  # mask applied after each hidden layer
    layers: list[LayerParams]


def encoder_forward(
    layers: list[LayerParams],
    x: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> tuple[np.ndarray, ForwardTape]:
    """Run a vector or (N, in) batch through the layer stack.

    Dropout is applied to hidden-layer outputs only, never to the final
    linear embedding. Returns the embedding and a tape for the backward
    pass.
    """
    if training and dropout_rate > 0.0 and rng is None:
        raise ValueError("training dropout requires an rng")
    h = np.asarray(x, dtype=np.float64)
    inputs, pre_acts, masks = [], [], []
    for i, layer in enumerate(layers):
        if h.shape[-1] != layer.fan_in:
            raise ShapeError(
                f"layer {i}: input width {h.shape[-1]} != fan_in {layer.fan_in}"
            )
        inputs.append(h)
        z = h @ layer.weights.T + layer.biases
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if i < len(layers) - 1 and dropout_rate > 0.0 and training:
            h, mask = dropout(h, dropout_rate, rng)
            masks.append(mask)
        else:
            masks.append(None)
    return h, ForwardTape(inputs, pre_acts, masks, layers)


def encoder_backward(tape: ForwardTape, grad_wrt_embedding: np.ndarray) -> list[np.ndarray]:
    """Exact reverse-mode parameter gradients through the taped forward pass
    of an (N, in) batch.

    Returns [dW0, db0, dW1, db1, ...], the order of the layers' weights and
    biases in TwoTowerModel.parameters(). ReLU passes zero gradient where
    the pre-activation is <= 0.
    """
    g = np.asarray(grad_wrt_embedding, dtype=np.float64)
    if g.ndim != 2 or g.shape != tape.pre_activations[-1].shape:
        raise ShapeError("gradient must be an (N, E) batch matching the taped embedding")
    grads: list[np.ndarray] = []  # built from the last layer back, reversed at the end
    for i in range(len(tape.layers) - 1, -1, -1):
        layer = tape.layers[i]
        if tape.dropout_masks[i] is not None:
            g = g * tape.dropout_masks[i]
        if layer.activation == "relu":
            g = g * (tape.pre_activations[i] > 0.0)
        grads += [g.sum(axis=0), g.T @ tape.inputs[i]]
        if i:
            g = g @ layer.weights
    return grads[::-1]


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators and step counter."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    """Standard bias-corrected Adam update, in place."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the standard settings (Kingma & Ba, ICLR 2015)
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params/grads/state length mismatch")
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ShapeError("gradient shape does not match parameter")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
