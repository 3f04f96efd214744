import numpy as np
import pytest

from contextrec.losses import (
    LossResult,
    bpr_loss,
    jcce_objective,
    l2_reg,
    npairs_loss,
    relaxed_npairs_loss,
    rjcce_objective,
)
from contextrec.nn_core import ShapeError

from conftest import finite_difference, relative_error


def distinct_ids(n):
    return np.arange(n)


def check_grads(fn, a, p, tol=1e-4, extra=()):
    res = fn(a, p, *extra)
    numeric = finite_difference(lambda arrs: fn(arrs[0], arrs[1], *extra).value, [a, p])
    assert relative_error([res.grad_anchors, res.grad_positives], numeric) < tol


class TestNpairsLoss:
    def test_single_pair_is_zero(self, rng):
        a = rng.normal(size=(1, 4))
        p = rng.normal(size=(1, 4))
        assert npairs_loss(a, p).value == pytest.approx(0.0, abs=1e-14)

    def test_uniform_logits_give_log_n(self):
        # all dot products equal -> softmax uniform -> loss log N
        n, e = 5, 3
        a = np.zeros((n, e))
        p = np.tile(np.ones(e), (n, 1))
        assert npairs_loss(a, p).value == pytest.approx(np.log(n), abs=1e-12)

    def test_gradients(self, rng):
        a = rng.normal(size=(6, 4))
        p = rng.normal(size=(6, 4))
        check_grads(npairs_loss, a, p)

    def test_finite_at_large_magnitude(self, rng):
        # stabilized log-sum-exp: norms up to 50 stay finite
        a = rng.normal(size=(4, 3))
        a *= 50.0 / np.linalg.norm(a, axis=1, keepdims=True)
        p = rng.normal(size=(4, 3))
        p *= 50.0 / np.linalg.norm(p, axis=1, keepdims=True)
        res = npairs_loss(a, p)
        assert np.isfinite(res.value)
        assert np.isfinite(res.grad_anchors).all()

    def test_nonnegative_when_diagonal_dominates(self, rng):
        a = np.eye(4) * 10.0
        p = np.eye(4) * 10.0
        assert npairs_loss(a, p).value >= 0.0

    def test_rejects_nonfinite(self):
        a = np.full((2, 2), np.nan)
        with pytest.raises(FloatingPointError, match="^non-finite embeddings$"):
            npairs_loss(a, np.zeros((2, 2)))


class TestRelaxedNpairsLoss:
    def test_singleton_groups_reduce_to_npairs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            e = int(rng.integers(2, 6))
            a = rng.normal(size=(n, e))
            p = rng.normal(size=(n, e))
            strict = npairs_loss(a, p)
            relaxed = relaxed_npairs_loss(a, p, distinct_ids(n))
            assert abs(strict.value - relaxed.value) <= 1e-12
            assert np.max(np.abs(strict.grad_anchors - relaxed.grad_anchors)) <= 1e-12
            assert np.max(np.abs(strict.grad_positives - relaxed.grad_positives)) <= 1e-12

    def test_all_same_content_is_zero(self, rng):
        n = 5
        a = rng.normal(size=(n, 3))
        p = rng.normal(size=(n, 3))
        res = relaxed_npairs_loss(a, p, np.zeros(n, dtype=int))
        assert res.value == 0.0
        assert np.allclose(res.grad_anchors, 0.0, atol=1e-15)

    def test_gradients_with_mixed_groups(self, rng):
        a = rng.normal(size=(6, 4))
        p = rng.normal(size=(6, 4))
        ids = np.array([7, 1, 7, 4, 4, 4])
        check_grads(lambda x, y: relaxed_npairs_loss(x, y, ids), a, p)

    def test_finite_when_positive_trails_row_max(self):
        # row 0's only positive sits 800 below its max logit: exp(-800)
        # underflows, so a ratio of shifted exponentials gives inf
        a = np.array([[40.0, 0.0], [0.0, 1.0]])
        p = np.array([[-10.0, 0.0], [10.0, 0.0]])
        strict = npairs_loss(a, p)
        relaxed = relaxed_npairs_loss(a, p, distinct_ids(2))
        assert strict.value == pytest.approx(400.0 + np.log(2.0) / 2.0, rel=1e-12)
        assert relaxed.value == pytest.approx(strict.value, rel=1e-12)
        assert np.allclose(relaxed.grad_anchors, strict.grad_anchors, rtol=0, atol=1e-12)
        assert np.allclose(relaxed.grad_positives, strict.grad_positives, rtol=0, atol=1e-12)

    def test_ids_not_one_per_row_rejected(self, rng):
        a = rng.normal(size=(2, 2))
        for ids in (np.arange(3), np.arange(1), np.zeros((2, 1)), np.int64(0)):
            with pytest.raises(ShapeError, match="one content id per row"):
                relaxed_npairs_loss(a, a, ids)
            with pytest.raises(ShapeError, match="one content id per row"):
                rjcce_objective(a, a, ids, 0.0)

    def test_relabelled_ids_give_identical_bits(self, rng):
        # positives depend on id equality only, so any injective relabelling
        # leaves every bit of the value and the gradients unchanged
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, 3))
            p = rng.normal(size=(n, 3))
            ids = rng.integers(0, 4, size=n)
            relabel = rng.permutation(1000)[:4] - 500  # injective, negatives too
            for fn in (
                lambda i: relaxed_npairs_loss(a, p, i),
                lambda i: rjcce_objective(a, p, i, 1e-3),
            ):
                x, y = fn(ids), fn(relabel[ids])
                assert x.value == y.value
                assert np.array_equal(x.grad_anchors, y.grad_anchors)
                assert np.array_equal(x.grad_positives, y.grad_positives)


class TestL2Reg:
    def test_disabled(self, rng):
        a = rng.normal(size=(3, 2))
        res = l2_reg(a, a, 0.0)
        assert res.value == 0.0
        assert np.all(res.grad_anchors == 0.0)

    def test_hand_value(self):
        a = np.array([[1.0, 0.0]])
        p = np.array([[0.0, 2.0]])
        assert l2_reg(a, p, 0.5).value == pytest.approx(2.5)

    def test_gradients(self, rng):
        a = rng.normal(size=(4, 3))
        p = rng.normal(size=(4, 3))
        check_grads(lambda x, y: l2_reg(x, y, 0.3), a, p)

    def test_negative_lambda_rejected(self, rng):
        a = rng.normal(size=(2, 2))
        with pytest.raises(ValueError):
            l2_reg(a, a, -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_lambda_rejected(self, rng, lam):
        a = rng.normal(size=(2, 2))
        with pytest.raises(ValueError, match=f"^lam must be a finite number >= 0, got {lam!r}$"):
            l2_reg(a, a, lam)


class TestComposites:
    def test_symmetric_batch_directions_equal(self, rng):
        a = rng.normal(size=(4, 3))
        fwd = npairs_loss(a, a)
        # with identical anchor/positive sets the two directions coincide
        assert jcce_objective(a, a, 0.0).value == pytest.approx(2 * fwd.value, abs=1e-12)

    def test_sum_of_parts(self, rng):
        c = rng.normal(size=(5, 3))
        it = rng.normal(size=(5, 3))
        lam = 1e-3
        total = jcce_objective(c, it, lam).value
        parts = (
            npairs_loss(it, c).value + npairs_loss(c, it).value + l2_reg(c, it, lam).value
        )
        assert abs(total - parts) <= 1e-12

    def test_jcce_gradients(self, rng):
        c = rng.normal(size=(5, 4))
        it = rng.normal(size=(5, 4))
        check_grads(lambda x, y: jcce_objective(x, y, 1e-3), c, it)

    def test_rjcce_distinct_contents_equals_jcce(self, rng):
        c = rng.normal(size=(5, 3))
        it = rng.normal(size=(5, 3))
        a = jcce_objective(c, it, 1e-3)
        b = rjcce_objective(c, it, distinct_ids(5), 1e-3)
        assert abs(a.value - b.value) <= 1e-12
        assert np.max(np.abs(a.grad_anchors - b.grad_anchors)) <= 1e-12

    def test_rjcce_all_same_content_is_reg_only(self, rng):
        n = 4
        c = rng.normal(size=(n, 3))
        it = rng.normal(size=(n, 3))
        lam = 1e-2
        assert rjcce_objective(c, it, np.zeros(n, dtype=int), lam).value == pytest.approx(
            l2_reg(c, it, lam).value, abs=1e-12
        )

    def test_rjcce_gradients(self, rng):
        c = rng.normal(size=(6, 3))
        it = rng.normal(size=(6, 3))
        ids = np.array([0, 0, 2, 3, 4, 5])
        check_grads(lambda x, y: rjcce_objective(x, y, ids, 1e-3), c, it)


class TestBprLoss:
    def test_equal_scores_give_log2(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        it = np.zeros((2, 2))  # all scores 0 -> z = 0 per row
        res = bpr_loss(c, it, np.array([1, 0]), 0.0)
        assert res.value == pytest.approx(2 * np.log(2.0))

    def test_monotone_decrease_in_margin(self):
        it = np.array([[1.0, 0.0], [0.0, 0.0]])
        vals = []
        for scale in (0.0, 1.0, 2.0):
            c = np.array([[scale, 0.0], [0.0, 1.0]])
            vals.append(bpr_loss(c, it, np.array([1, 0]), 0.0).value)
        assert vals[0] > vals[1] > vals[2]

    def test_gradients(self, rng):
        c = rng.normal(size=(6, 4))
        it = rng.normal(size=(6, 4))
        neg = np.array([1, 2, 3, 4, 5, 0])
        check_grads(lambda x, y: bpr_loss(x, y, neg, 1e-3), c, it)

    def test_self_negative_rejected(self, rng):
        c = rng.normal(size=(3, 2))
        with pytest.raises(ValueError):
            bpr_loss(c, c, np.array([0, 2, 1]), 0.0)


# every public loss as a function of one (anchors, positives) pair of (3, 2) batches
PUBLIC_LOSSES = {
    "npairs_loss": npairs_loss,
    "relaxed_npairs_loss": lambda a, p: relaxed_npairs_loss(a, p, distinct_ids(3)),
    "l2_reg": lambda a, p: l2_reg(a, p, 0.1),
    "jcce_objective": lambda a, p: jcce_objective(a, p, 0.1),
    "rjcce_objective": lambda a, p: rjcce_objective(a, p, distinct_ids(3), 0.1),
    "bpr_loss": lambda a, p: bpr_loss(a, p, np.array([1, 2, 0]), 0.1),
}


@pytest.mark.parametrize("loss", PUBLIC_LOSSES.values(), ids=PUBLIC_LOSSES.keys())
@pytest.mark.parametrize("side", ["anchors", "positives"])
def test_nan_batch_is_a_floating_point_error(rng, loss, side):
    # nn_core.check_finite's type: the trainer stops a diverging run on it
    batches = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
    batches[side == "positives"][1, 0] = np.nan
    with pytest.raises(FloatingPointError, match="^non-finite embeddings$"):
        loss(*batches)


def test_loss_result_shapes(rng):
    a = rng.normal(size=(4, 3))
    p = rng.normal(size=(4, 3))
    for res in (
        npairs_loss(a, p),
        relaxed_npairs_loss(a, p, distinct_ids(4)),
        l2_reg(a, p, 0.1),
    ):
        assert isinstance(res, LossResult)
        assert res.grad_anchors.shape == a.shape
        assert res.grad_positives.shape == p.shape
        assert np.isfinite(res.grad_anchors).all()
