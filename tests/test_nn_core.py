import math
import warnings

import numpy as np
import pytest

from contextrec import nn_core
from contextrec.nn_core import (
    ADAM_SLICE,
    AdamState,
    ZERO_NORM,
    Cells,
    DegenerateMeasure,
    LayerParams,
    ShapeError,
    adam_step,
    check_nonzero_norms,
    check_range,
    dropout,
    encoder_backward,
    encoder_forward,
    finite_row_norms,
    init_layers,
    make_rng,
    xavier_init,
)

from conftest import cells_of, finite_difference, relative_error, sparse_rows


# id: (check_range arguments, message): the three wordings, each refusing
# bools, strings, NaN and infinity
INTEGER = (math.inf, "[)", True)
RANGE_REFUSALS = {
    "integer_below": (("n", 0, 1, *INTEGER), "n must be an integer >= 1, got 0"),
    "integer_float": (("n", 2.0, 1, *INTEGER), "n must be an integer >= 1, got 2.0"),
    "integer_bool": (("n", True, 1, *INTEGER), "n must be an integer >= 1, got True"),
    "integer_text": (("n", "3", 1, *INTEGER), "n must be an integer >= 1, got '3'"),
    "integer_nan": (("n", math.nan, 0, *INTEGER), "n must be an integer >= 0, got nan"),
    "integer_inf": (("n", math.inf, 0, *INTEGER), "n must be an integer >= 0, got inf"),
    "finite_below": (("x", -0.5, 0), "x must be a finite number >= 0, got -0.5"),
    "finite_open_low": (("x", 0, 0, math.inf, "()"), "x must be a finite number > 0, got 0"),
    "finite_inf": (("x", math.inf, 0), "x must be a finite number >= 0, got inf"),
    "finite_nan": (("x", math.nan, 0), "x must be a finite number >= 0, got nan"),
    "finite_bool": (("x", False, 0), "x must be a finite number >= 0, got False"),
    "finite_text": (("x", "1", 0), "x must be a finite number >= 0, got '1'"),
    "interval_above": (("p", 1.5, 0, 1, "[]"), "p must be a number in [0, 1], got 1.5"),
    "interval_open_high": (("p", 1, 0, 1, "[)"), "p must be a number in [0, 1), got 1"),
    "interval_open_low": (("p", 0, 0, 0.5, "()"), "p must be a number in (0, 0.5), got 0"),
    "interval_bool": (("p", True, 0, 1, "[]"), "p must be a number in [0, 1], got True"),
    "interval_text": (("p", "0.5", 0, 1, "[]"), "p must be a number in [0, 1], got '0.5'"),
    "interval_nan": (("p", math.nan, 0, 1, "[]"), "p must be a number in [0, 1], got nan"),
    "interval_inf": (("p", -math.inf, 0, 1, "[]"), "p must be a number in [0, 1], got -inf"),
}


class TestCheckRange:
    @pytest.mark.parametrize("case", RANGE_REFUSALS.values(), ids=RANGE_REFUSALS.keys())
    def test_refusal_wording(self, case):
        args, message = case
        with pytest.raises(ValueError) as exc:
            check_range(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "args",
        [
            ("n", 1, 1, *INTEGER),
            ("n", 10**30, 0, *INTEGER),
            ("x", 0, 0),
            ("x", 0.0, 0),
            ("x", 1e308, 0, math.inf, "()"),
            ("p", 0, 0, 1, "[]"),
            ("p", 1.0, 0, 1, "[]"),
            ("p", 0.499, 0, 0.5, "()"),
        ],
    )
    def test_accepted(self, args):
        assert check_range(*args) is None


class TestFiniteRowNorms:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 2), (40, 50), (3, 1000)])
    def test_bits_of_numpy_row_norms(self, shape):
        rng = make_rng(sum(shape))
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=(shape[0], 1))
        norms = finite_row_norms("rows", x)
        assert np.array_equal(norms, np.linalg.norm(x, axis=1))
        # the keepdims form analysis used to call has the same bits
        assert np.array_equal(norms, np.linalg.norm(x, axis=1, keepdims=True)[:, 0])

    @pytest.mark.parametrize("row", [[1e200, 1e200], [1e308, 1e308], [np.inf, 0.0], [np.nan, 1.0]])
    def test_non_finite_norm_refused_without_warning(self, row):
        # finite rows whose norms overflow are refused like non-finite ones
        x = np.array([[3.0, 4.0], row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^non-finite content embedding norms$"):
                finite_row_norms("content embedding norms", x)


class TestCheckNonzeroNorms:
    @pytest.mark.parametrize("norms", [
        np.array([1.0, 0.0, 2.0]),
        np.array([1.0, np.nextafter(ZERO_NORM, 0.0)]),
        np.float64(0.0),
        np.array(ZERO_NORM / 2),
    ], ids=["zero_row", "just_below", "zero_scalar", "below_0d"])
    def test_below_zero_norm_refused(self, norms):
        with pytest.raises(DegenerateMeasure, match="^zero-norm embedding rows are not allowed$"):
            check_nonzero_norms(norms)

    @pytest.mark.parametrize("norms", [
        np.array([1.0, ZERO_NORM]),
        np.array([np.nextafter(ZERO_NORM, 1.0)]),
        np.float64(ZERO_NORM),
        np.zeros(0),
    ], ids=["at", "just_above", "at_scalar", "no_rows"])
    def test_from_zero_norm_up_accepted(self, norms):
        assert check_nonzero_norms(norms) is None


class TestXavierInit:
    def test_bound_for_equal_fans(self, rng):
        # b = sqrt(6/6) = 1
        w = xavier_init(3, 3, rng)
        assert np.all(np.abs(w) <= 1.0)

    def test_moments(self):
        # uniform on [-b, b]: mean 0, variance b^2/3
        rng = make_rng(7)
        w = xavier_init(400, 500, rng).ravel()
        b = np.sqrt(6.0 / 900.0)
        assert w.size >= 1e5
        assert abs(w.mean()) < 0.02 * b
        assert abs(w.var() - b * b / 3.0) < 0.02 * b * b / 3.0

    def test_zero_fan_rejected(self, rng):
        with pytest.raises(ValueError):
            xavier_init(0, 3, rng)

    def test_biases_start_zero(self, rng):
        layers = init_layers([5, 4, 3], rng)
        for layer in layers:
            assert np.all(layer.biases == 0.0)

    @pytest.mark.parametrize("widths", [[5, 3], [5, 4, 3], [5, 4, 6, 3]])
    def test_chain_rule_and_draw_order(self, widths):
        # hidden layers relu, the last identity; one Xavier draw per layer,
        # first layer first, as before the layers were chained by rule
        layers = init_layers(widths, make_rng(8))
        rng = make_rng(8)
        for i, layer in enumerate(layers):
            assert layer.weights.tobytes() == xavier_init(widths[i], widths[i + 1], rng).tobytes()
            assert layer.activation == ("identity" if i == len(widths) - 2 else "relu")


class TestDenseForward:
    """A single layer through encoder_forward, the one forward pass."""

    def test_relu_clamps(self):
        layer = LayerParams(np.eye(2), np.zeros(2), "relu")
        assert np.allclose(encoder_forward([layer], np.array([-2.0, 3.0]))[0], [0.0, 3.0])

    def test_identity_passthrough(self, rng):
        layer = LayerParams(np.eye(4), np.zeros(4), "identity")
        x = rng.normal(size=4)
        assert np.allclose(encoder_forward([layer], x)[0], x)

    def test_hand_product(self):
        layer = LayerParams(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.5, 0.0]), "identity")
        assert np.allclose(encoder_forward([layer], np.array([1.0, 2.0]))[0], [3.5, -1.0])

    def test_shape_mismatch(self):
        layer = LayerParams(np.eye(2), np.zeros(2), "relu")
        with pytest.raises(ShapeError):
            encoder_forward([layer], np.zeros(3))


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = rng.normal(size=100)
        out, mask = dropout(x, 0.0, rng)
        assert np.array_equal(out, x)
        assert np.all(mask == 1.0)

    def test_serving_passthrough(self, rng):
        # serving mode applies no dropout, whatever the rate
        layers = init_layers([5, 6, 3], rng)
        x = rng.normal(size=(4, 5))
        out, tape = encoder_forward(layers, x, 0.7, rng, training=False)
        assert np.array_equal(out, encoder_forward(layers, x)[0])
        assert tape is None

    def test_kept_fraction_and_expectation(self):
        rng = make_rng(11)
        x = np.ones(100_000)
        out, mask = dropout(x, 0.5, rng)
        kept = np.count_nonzero(out) / x.size
        assert abs(kept - 0.5) < 0.01
        # inverted scaling keeps the expectation at the input
        assert abs(out.mean() - 1.0) < 0.02

    def test_rate_one_rejected(self, rng):
        with pytest.raises(ValueError):
            dropout(np.zeros(3), 1.0, rng)


class TestEncoderForwardBackward:
    def test_single_identity_layer(self, rng):
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        layers = [LayerParams(w, b, "identity")]
        x = rng.normal(size=5)
        emb, _ = encoder_forward(layers, x)
        assert np.allclose(emb, w @ x + b)

    def test_output_width(self, rng):
        layers = init_layers([30, 250, 250, 50], rng)
        emb, _ = encoder_forward(layers, rng.normal(size=30))
        assert emb.shape == (50,)

    def test_linear_layer_grads(self, rng):
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        layers = [LayerParams(w, b, "identity")]
        x = rng.normal(size=(2, 4))
        g = rng.normal(size=(2, 3))
        _, tape = encoder_forward(layers, x, training=True)
        dW, db = encoder_backward(tape, g)
        assert np.allclose(dW, np.outer(g[0], x[0]) + np.outer(g[1], x[1]))
        assert np.allclose(db, g[0] + g[1])

    def test_dead_relu_blocks_gradient(self):
        layers = [LayerParams(np.array([[1.0]]), np.array([0.0]), "relu")]
        x = np.array([[-1.0]])
        _, tape = encoder_forward(layers, x, training=True)
        grads = encoder_backward(tape, np.array([[1.0]]))
        assert grads[0][0, 0] == 0.0

    def test_vector_gradient_rejected(self, rng):
        # the backward pass takes (N, E) batches only, never a single vector
        layers = init_layers([4, 3], rng)
        _, tape = encoder_forward(layers, rng.normal(size=4), training=True)
        with pytest.raises(ShapeError):
            encoder_backward(tape, np.ones(3))

    def test_gradient_vs_finite_differences(self, rng):
        # a dense input, then cells fed to the first layer
        for x in (rng.normal(size=(2, 5)), cells_of(sparse_rows(rng, 4, 9))):
            layers = init_layers([x.shape[1], 6, 4, 3], rng)
            target = rng.normal(size=(x.shape[0], 3))

            params = []
            for layer in layers:
                params.extend([layer.weights, layer.biases])

            def loss(_):
                emb, _ = encoder_forward(layers, x)
                return 0.5 * float(np.sum((emb - target) ** 2))

            emb, tape = encoder_forward(layers, x, training=True)
            analytic = encoder_backward(tape, emb - target)
            numeric = finite_difference(loss, params)
            assert relative_error(analytic, numeric) < 1e-4

    def test_dropout_gradient_with_fixed_mask(self):
        # identical seed per forward replays the same mask, so FD is exact
        layers = init_layers([4, 6, 3], make_rng(5))
        x = make_rng(6).normal(size=(2, 4))
        target = make_rng(7).normal(size=(2, 3))
        params = []
        for layer in layers:
            params.extend([layer.weights, layer.biases])

        def loss(_):
            emb, _ = encoder_forward(layers, x, dropout_rate=0.4, rng=make_rng(42), training=True)
            return 0.5 * float(np.sum((emb - target) ** 2))

        emb, tape = encoder_forward(layers, x, dropout_rate=0.4, rng=make_rng(42), training=True)
        analytic = encoder_backward(tape, emb - target)
        numeric = finite_difference(loss, params)
        assert relative_error(analytic, numeric) < 1e-4

    def test_shape_mismatch_rejected(self, rng):
        layers = init_layers([5, 4], rng)
        with pytest.raises(ShapeError):
            encoder_forward(layers, rng.normal(size=6))


class TestServingPass:
    """A serving pass keeps no tape, gives a training pass's bits at dropout 0,
    and overwrites only the arrays it made."""

    @pytest.mark.parametrize("form", ["vector", "batch", "cells"])
    @pytest.mark.parametrize("widths", [[40, 3], [40, 7, 5, 3]], ids=["linear", "mlp"])
    def test_no_tape_and_training_bits(self, rng, form, widths):
        layers = init_layers(widths, rng)
        for layer in layers:  # nonzero biases, so each layer adds one
            layer.biases[:] = rng.normal(size=layer.biases.shape)
        if form == "vector":
            x = rng.normal(size=40)
        elif form == "batch":
            x = rng.normal(size=(6, 40))
        else:
            dense = sparse_rows(rng, 8, 40, max_cells=5)
            dense[[0, 3, 7]] = 0.0  # rows with no cell, first, inside and last
            x = cells_of(dense)
        arrays = [x] if form != "cells" else [x.rows, x.cols, x.values]
        arrays += [a for layer in layers for a in (layer.weights, layer.biases)]
        before = [a.copy() for a in arrays]
        emb, tape = encoder_forward(layers, x)
        assert tape is None
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
        want, tape = encoder_forward(layers, x, 0.0, None, True)
        assert len(tape.pre_activations) == len(layers)
        assert emb.shape == want.shape and emb.tobytes() == want.tobytes()


def close(a, b, rel=1e-12):
    """a matches b to within rel of b's largest magnitude."""
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestCellsLayer:
    """The first layer fed cells against the same input as a dense matrix."""

    @pytest.fixture
    def layers(self, rng):
        layers = init_layers([40, 7, 3], rng)
        for layer in layers:  # nonzero biases, so an empty row shows the bias
            layer.biases[:] = rng.normal(size=layer.biases.shape)
        return layers

    def test_one_cell_rows_bit_identical(self, layers, rng):
        x = np.zeros((30, 40))
        x[np.arange(30), rng.integers(40, size=30)] = [1.0] * 15 + list(rng.random(15))
        x[[0, 11, 29]] = 0.0  # rows with no cell, first, inside and last
        dense, dense_tape = encoder_forward(layers, x, training=True)
        cells, cells_tape = encoder_forward(layers, cells_of(x), training=True)
        assert np.array_equal(cells_tape.pre_activations[0], dense_tape.pre_activations[0])
        assert np.array_equal(cells, dense)

    def test_one_row_vector_bit_identical(self, layers, rng):
        # a one-row batch of cells, as serving embeds one item or context,
        # gives the bits of the dense vector and of the dense one-row batch
        x = np.zeros((5, 40))
        x[np.arange(4), rng.integers(40, size=4)] = rng.random(4)
        for row in x:
            emb = encoder_forward(layers, cells_of(row[None]))[0]
            assert emb.shape == (1, 3)
            assert np.array_equal(emb[0], encoder_forward(layers, row)[0])
            assert np.array_equal(emb, encoder_forward(layers, row[None])[0])

    def test_multi_cell_rows_close(self, layers, rng):
        x = sparse_rows(rng, 50, 40, max_cells=6)
        dense, dense_tape = encoder_forward(layers, x, training=True)
        cells, cells_tape = encoder_forward(layers, cells_of(x), training=True)
        assert close(cells, dense)
        g = rng.normal(size=dense.shape)
        dense_grads = encoder_backward(dense_tape, g)
        cells_grads = encoder_backward(cells_tape, g)
        assert cells_grads[0].shape == (7, 40)
        for a, b in zip(cells_grads, dense_grads):
            assert close(a, b)

    def test_empty_rows_give_the_bias(self, layers, rng):
        x = sparse_rows(rng, 8, 40)
        x[[0, 3, 4, 7]] = 0.0
        _, tape = encoder_forward(layers, cells_of(x), training=True)
        z = tape.pre_activations[0]
        for r in (0, 3, 4, 7):
            assert np.array_equal(z[r], layers[0].biases)
        empty = Cells((3, 40), np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
        _, tape = encoder_forward(layers, empty, training=True)
        assert np.array_equal(tape.pre_activations[0], np.tile(layers[0].biases, (3, 1)))
        g = rng.normal(size=(3, 3))
        assert np.array_equal(encoder_backward(tape, g)[0], np.zeros((7, 40)))

    def test_row_blocks_keep_the_bits(self, layers, rng, monkeypatch):
        # every block size from one cell to all of them cuts next to empty
        # rows and many-cell rows, gives three or more blocks with a partial
        # last one, and from 11 cells down leaves the 12-cell row longer
        # than a block
        counts = [0, 4, 0, 0, 6, 1, 0, 12, 2, 0, 3, 1, 1, 5, 0]
        x = np.zeros((len(counts), 40))
        for r, k in enumerate(counts):
            x[r, rng.choice(40, size=k, replace=False)] = rng.uniform(0.05, 1.0, size=k)
        cells = cells_of(x)
        n = cells.rows.size
        monkeypatch.setattr(nn_core, "CELLS_BLOCK", n)
        whole = nn_core._cells_affine(cells, layers[0])
        for block in range(1, n + 1):
            monkeypatch.setattr(nn_core, "CELLS_BLOCK", block)
            assert nn_core._cells_affine(cells, layers[0]).tobytes() == whole.tobytes(), block
        assert close(whole, x @ layers[0].weights.T + layers[0].biases)

    def test_width_mismatch_rejected(self, layers, rng):
        wide = cells_of(sparse_rows(rng, 4, 41))
        with pytest.raises(ShapeError):
            encoder_forward(layers, wide)


def whole_array_adam(params, grads, state, lr):
    """adam_step as one pass of each operation over every whole array."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_zero_gradient_no_move(self, rng):
        p = rng.normal(size=(3, 2))
        orig = p.copy()
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros_like(p)], state, 1e-3)
        assert np.array_equal(p, orig)
        assert np.all(state.first_moment[0] == 0.0)

    def test_first_step_magnitude(self):
        # m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps) ~ lr
        p = np.array([1.0])
        state = AdamState.for_params([p])
        adam_step([p], [np.array([0.5])], state, lr=1e-3)
        assert abs((1.0 - p[0]) - 1e-3) < 1e-8

    def test_two_steps_match_recurrence(self):
        b1, b2 = 0.9, 0.999  # Adam's standard settings
        g = 0.3
        p = np.array([2.0])
        state = AdamState.for_params([p])
        adam_step([p], [np.array([g])], state, 1e-3)
        adam_step([p], [np.array([g])], state, 1e-3)
        assert state.step_count == 2
        # hand-unrolled moment recurrences with constant gradient
        m = (1 - b1) * g * (1 + b1)
        v = (1 - b2) * g * g * (1 + b2)
        assert np.isclose(state.first_moment[0][0], m)
        assert np.isclose(state.second_moment[0][0], v)

    def test_slices_keep_the_whole_array_bits(self, rng):
        # one array over a slice and not a multiple of it, one transposed
        # (not C-contiguous, so updated through a copy), one smaller than a slice
        shapes = [(3, ADAM_SLICE // 2 + 7), (ADAM_SLICE // 3 + 1, 5), (11,)]
        params = [rng.normal(size=s) for s in shapes]
        params[1] = params[1].T
        ref = [p.copy() for p in params]
        state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
        for _ in range(5):
            grads = [rng.normal(size=p.shape) for p in params]
            adam_step(params, grads, state, lr=1e-2)
            whole_array_adam(ref, grads, ref_state, lr=1e-2)
        for got, want in zip(params + state.first_moment + state.second_moment,
                             ref + ref_state.first_moment + ref_state.second_moment):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.zeros(4)], state, 1e-3)


def test_determinism_identical_streams():
    a = make_rng(99).normal(size=10)
    b = make_rng(99).normal(size=10)
    assert np.array_equal(a, b)
