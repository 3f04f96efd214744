"""Minimal dense-network kernel: layers, dropout, backprop, Adam.

Everything runs in float64 so finite-difference gradient checks are
meaningful. No hidden global state; randomness always comes from an
explicit numpy Generator. A wide one-hot input may reach the first layer
as Cells, its nonzero (row, column, value) cells: the forward pass then
sums the cells' weight columns per row and the backward pass builds the
weight gradient per column, so neither multiplies the zeros.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"  # a wheel's bundled BLAS


def one_blas_thread() -> bool:
    """Set NumPy's bundled OpenBLAS to one thread, so its sums keep one order
    whatever thread count was asked for; False, changing nothing, if no setter is found."""
    for lib in sorted(NUMPY_LIBS.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
            if hasattr(dll, name):
                setter = getattr(dll, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    return False


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


def check_finite(what: str, *arrays) -> None:
    """FloatingPointError unless every array is all finite: the one test of usable numbers."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError(f"non-finite {what}")


def finite_row_norms(what: str, x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) with warnings off, then check_finite(what, norms)."""
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(x, axis=1)
    check_finite(what, norms)
    return norms


ZERO_NORM = 1e-12  # a smaller norm is zero: an embedding with no direction has no cosine


class DegenerateMeasure(ValueError):
    """Raised when a measure is undefined on the given sample."""


def check_nonzero_norms(norms: np.ndarray) -> None:
    """DegenerateMeasure if a finite norm, of rows or 0-d, is below ZERO_NORM: no cosine."""
    below = norms < ZERO_NORM
    if below.any() if below.ndim else below:  # a 0-d norm is one scalar compare
        raise DegenerateMeasure("zero-norm embedding rows are not allowed")


class ShapeError(ValueError):
    """Raised when array dimensions do not chain; never silently broadcast."""


@dataclass(frozen=True, eq=False)
class Cells:
    """The nonzero cells of an (N, width) sparse input, in place of its
    dense array. Cells are sorted by row, then column, with at most one
    cell per (row, column); a cell not listed is zero.
    """

    shape: tuple
    rows: np.ndarray  # intp
    cols: np.ndarray  # intp
    values: np.ndarray  # float64


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


def chain_activations(n_layers: int) -> list[str]:
    """Hidden layers relu, the last identity (a linear readout)."""
    return ["relu"] * (n_layers - 1) + ["identity"]


def chain_layers(arrays: list[np.ndarray]) -> list[LayerParams]:
    """The layers of [W0, b0, W1, b1, ...], activations by chain_activations."""
    activations = chain_activations(len(arrays) // 2)
    return [LayerParams(w, b, a) for w, b, a in zip(arrays[::2], arrays[1::2], activations)]


def init_layers(widths: list[int], rng: np.random.Generator) -> list[LayerParams]:
    """A chain of layers from a width list [in, h1, ..., out], biases zero."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    return chain_layers([a for n_in, n_out in zip(widths, widths[1:])
                         for a in (xavier_init(n_in, n_out, rng), np.zeros(n_out))])


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: survivors scaled by 1/(1-rate).

    Returns (output, mask) where mask already carries the scale factor so
    the backward pass is a plain elementwise multiply.
    """
    x = np.asarray(x, dtype=np.float64)
    check_range("dropout_rate", rate, 0, 1)
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
) -> tuple[np.ndarray, ForwardTape | None]:
    """Run a vector or (N, in) batch through the layer stack.

    x may be Cells, which only the first layer reads. Dropout is applied to
    hidden-layer outputs only, never to the final linear embedding.
    Returns the embedding and, when training, a tape for the backward pass;
    a serving pass returns None for it and applies ReLU in place.
    """
    if training and dropout_rate > 0.0 and rng is None:
        raise ValueError("training dropout requires an rng")
    h = x if isinstance(x, Cells) else np.asarray(x, dtype=np.float64)
    tape = ForwardTape([], [], [], layers) if training else None
    for i, layer in enumerate(layers):
        if h.shape[-1] != layer.fan_in:
            raise ShapeError(f"layer {i}: input width {h.shape[-1]} != fan_in {layer.fan_in}")
        if isinstance(h, Cells):
            z = _cells_affine(h, layer)
        else:
            z = h @ layer.weights.T
            z += layer.biases
        if training:
            tape.inputs.append(h)
            tape.pre_activations.append(z)
            tape.dropout_masks.append(None)
        # only the tape reads z again, so serving overwrites it
        h = np.maximum(z, 0.0, out=None if training else z) if layer.activation == "relu" else z
        if training and i < len(layers) - 1 and dropout_rate > 0.0:
            h, tape.dropout_masks[-1] = dropout(h, dropout_rate, rng)
    return h, tape


# Cells per row block of the Cells first layer: a block's gathered weight
# columns take 16 MB at 250 outputs (README, "Cells over row blocks").
CELLS_BLOCK = 8192


def _cells_affine(x: Cells, layer: LayerParams) -> np.ndarray:
    """x @ W.T + b from the cells: each row sums its cells' weight columns.

    A row with one cell gives the dense product's bits. A row with none
    sums to 0, as its dense product does, and so gives the bias: it gets
    no reduceat segment, since an empty one would return the next cell.
    Past CELLS_BLOCK cells, whole rows go a block of about CELLS_BLOCK cells
    at a time, so each row keeps its reduceat segment and its bits.
    """
    sums = np.zeros((x.shape[0], layer.weights.shape[0]))
    blocks = [(x.rows, x.cols, x.values)]
    if x.rows.size > CELLS_BLOCK:  # cut at the last row start up to each multiple
        starts = _run_starts(x.rows)
        multiples = np.arange(0, x.rows.size, CELLS_BLOCK)
        cuts = starts[np.unique(np.searchsorted(starts, multiples, "right") - 1)]
        blocks = [(x.rows[lo:hi], x.cols[lo:hi], x.values[lo:hi])
                  for lo, hi in zip(cuts.tolist(), [*cuts[1:].tolist(), None])]
    for rows, cols, values in blocks:
        if rows.size:
            starts = _run_starts(rows)
            gathered = np.take(layer.weights, cols, axis=1)
            gathered *= values
            sums[rows[starts]] = np.add.reduceat(gathered, starts, axis=1).T
    sums += layer.biases
    return sums


def _cells_weight_grad(x: Cells, g: np.ndarray) -> np.ndarray:
    """g.T @ x from the cells: each column sums its cells' g rows times
    their values, over the cells sorted by column."""
    order = np.argsort(x.cols, kind="stable")
    cols = x.cols[order]
    dw = np.zeros((g.shape[1], x.shape[1]))
    if cols.size:
        starts = _run_starts(cols)
        contrib = g[x.rows[order]]
        contrib *= x.values[order, None]
        dw[:, cols[starts]] = np.add.reduceat(contrib, starts, axis=0).T
    return dw


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted,
    nonempty array."""
    first = np.empty(keys.size, dtype=bool)  # one array: serve calls this once per catalog item
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


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
        x = tape.inputs[i]
        grads += [g.sum(axis=0), _cells_weight_grad(x, g) if isinstance(x, Cells) else g.T @ x]
        if i:
            g = g @ layer.weights
    return grads[::-1]


# Elements per slice of an Adam update: the slices of a parameter, its
# gradient, its moments and two scratch buffers (768 KB) fit a core's L2
# cache, where a whole-array update streams a large array through memory
# about ten times (README, "Adam over slices").
ADAM_SLICE = 16384


def _scratch() -> list[np.ndarray]:
    return [np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)]


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators, step counter, and the
    two scratch buffers of an update's slices."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    scratch: list[np.ndarray] = field(default_factory=_scratch, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    """Standard bias-corrected Adam update, in place.

    Runs over ADAM_SLICE-element slices of each flattened array, so each
    slice stays in cache for all of its operations. Every operation is
    elementwise and keeps the whole-array update's order, so the bits are
    that update's.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the standard settings (Kingma & Ba, ICLR 2015)
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params/grads/state length mismatch")
    state.step_count += 1
    t = state.step_count
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t  # the bias corrections
    a_buf, b_buf = state.scratch
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ShapeError("gradient shape does not match parameter")
        pf, gf, mf, vf = flats = [x.reshape(-1) for x in (p, g, m, v)]
        for s in range(0, p.size, ADAM_SLICE):
            ps, gs, ms, vs = (f[s:s + ADAM_SLICE] for f in flats)
            a, b = a_buf[:ps.size], b_buf[:ps.size]
            ms *= beta1  # m = beta1 * m + (1 - beta1) * g
            np.multiply(gs, 1.0 - beta1, out=a)
            ms += a
            vs *= beta2  # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(gs, 1.0 - beta2, out=a)
            a *= gs
            vs += a
            np.divide(ms, c1, out=a)  # p -= lr * m_hat / (sqrt(v_hat) + eps)
            a *= lr
            np.divide(vs, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            ps -= a
        for x, flat in ((p, pf), (m, mf), (v, vf)):
            if not x.flags.c_contiguous:  # reshape gave a copy: write it back
                x[...] = flat.reshape(x.shape)
