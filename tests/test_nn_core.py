import numpy as np
import pytest

from contextrec.nn_core import (
    AdamState,
    LayerParams,
    ShapeError,
    adam_step,
    dropout,
    encoder_backward,
    encoder_forward,
    init_layers,
    make_rng,
    xavier_init,
)

from conftest import finite_difference, relative_error


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
        assert tape.dropout_masks == [None, None]

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
        x = rng.normal(size=4)
        g = rng.normal(size=3)
        _, tape = encoder_forward(layers, x)
        dW, db = encoder_backward(tape, g)[0]
        assert np.allclose(dW, np.outer(g, x))
        assert np.allclose(db, g)

    def test_dead_relu_blocks_gradient(self):
        layers = [LayerParams(np.array([[1.0]]), np.array([0.0]), "relu")]
        x = np.array([-1.0])
        _, tape = encoder_forward(layers, x)
        grads = encoder_backward(tape, np.array([1.0]))
        assert grads[0][0][0, 0] == 0.0

    def test_gradient_vs_finite_differences(self, rng):
        layers = init_layers([5, 6, 4, 3], rng)
        x = rng.normal(size=5)
        target = rng.normal(size=3)

        params = []
        for layer in layers:
            params.extend([layer.weights, layer.biases])

        def loss(_):
            emb, _ = encoder_forward(layers, x)
            return 0.5 * float(np.sum((emb - target) ** 2))

        emb, tape = encoder_forward(layers, x)
        analytic = encoder_backward(tape, emb - target)
        flat = [a for pair in analytic for a in pair]
        numeric = finite_difference(loss, params)
        assert relative_error(flat, numeric) < 1e-4

    def test_dropout_gradient_with_fixed_mask(self):
        # identical seed per forward replays the same mask, so FD is exact
        layers = init_layers([4, 6, 3], make_rng(5))
        x = make_rng(6).normal(size=4)
        target = make_rng(7).normal(size=3)
        params = []
        for layer in layers:
            params.extend([layer.weights, layer.biases])

        def loss(_):
            emb, _ = encoder_forward(layers, x, dropout_rate=0.4, rng=make_rng(42), training=True)
            return 0.5 * float(np.sum((emb - target) ** 2))

        emb, tape = encoder_forward(layers, x, dropout_rate=0.4, rng=make_rng(42), training=True)
        analytic = encoder_backward(tape, emb - target)
        flat = [a for pair in analytic for a in pair]
        numeric = finite_difference(loss, params)
        assert relative_error(flat, numeric) < 1e-4

    def test_shape_mismatch_rejected(self, rng):
        layers = init_layers([5, 4], rng)
        with pytest.raises(ShapeError):
            encoder_forward(layers, rng.normal(size=6))


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

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.zeros(4)], state, 1e-3)


def test_determinism_identical_streams():
    a = make_rng(99).normal(size=10)
    b = make_rng(99).normal(size=10)
    assert np.array_equal(a, b)
