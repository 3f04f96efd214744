import numpy as np
import pytest

from contextrec import losses
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


# Out-of-place copies of the losses' formulas, each step into a new array:
# the in-place code must give their bits.
def softmax_parts_oracle(logits):
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=1, keepdims=True)
    return (top + np.log(total))[:, 0], e / total


def npairs_oracle(a, p):
    n = a.shape[0]
    logits = a @ p.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    value = -(shifted - np.log(total)).diagonal().mean()
    g = (e / total - np.eye(n)) / n
    return float(value), g @ p, g.T @ a


def relaxed_oracle(a, p, member):
    n = a.shape[0]
    inv_size = 1.0 / member.sum(axis=1)
    logits = a @ p.T
    lse_all, soft = softmax_parts_oracle(logits)
    lse_pos, pos_soft = softmax_parts_oracle(np.where(member, logits, -np.inf))
    value = float(np.mean(inv_size * (lse_all - lse_pos)))
    g = (inv_size / n)[:, None] * (soft - pos_soft)
    return value, g @ p, g.T @ a


def two_way_oracle(fwd, rev, c, it, lam):
    reg = lam * float((c * c).sum() + (it * it).sum())
    return (fwd[0] + rev[0] + reg, fwd[2] + rev[1] + 2.0 * lam * c,
            fwd[1] + rev[2] + 2.0 * lam * it)


def bpr_oracle(c, it, neg, lam):
    z = np.einsum("ie,ie->i", c, it) - np.einsum("ie,ie->i", c, it[neg])
    value = float(np.logaddexp(0.0, -z).sum()) + lam * float((c * c).sum() + (it * it).sum())
    dz = -np.exp(-np.logaddexp(0.0, z))
    grad_c = dz[:, None] * (it - it[neg]) + 2.0 * lam * c
    grad_it = dz[:, None] * c + 2.0 * lam * it
    np.subtract.at(grad_it, neg, dz[:, None] * c)
    return value, grad_c, grad_it


def result_bytes(res):
    if isinstance(res, LossResult):
        res = (res.value, res.grad_anchors, res.grad_positives)
    return (np.float64(res[0]).tobytes(), res[1].tobytes(), res[2].tobytes())


IDS = {  # content ids of a 24-row batch
    "distinct": lambda rng: np.arange(24),
    "one_id": lambda rng: np.zeros(24, dtype=int),
    "groups": lambda rng: rng.integers(5, size=24),
}


class TestInPlaceBits:
    """The losses write into arrays they allocated, with the oracles' bits,
    and compute their gradients when first read."""

    @pytest.mark.parametrize("masked", ["none", "some", "all_but_one"])
    def test_softmax_parts(self, rng, masked):
        x = rng.normal(size=(24, 24)) * 10.0
        if masked != "none":  # -inf outside each row's joint positives, the diagonal kept
            cut = rng.random(x.shape) < 0.5 if masked == "some" else np.ones(x.shape, dtype=bool)
            cut[np.arange(24), np.arange(24)] = False
            x[cut] = -np.inf
        want = softmax_parts_oracle(x)
        lse, soft = losses._softmax_parts(x.copy())
        assert lse.tobytes() == want[0].tobytes() and soft.tobytes() == want[1].tobytes()

    def test_npairs(self, rng):
        a, p = rng.normal(size=(24, 6)), rng.normal(size=(24, 6))
        assert result_bytes(npairs_loss(a, p)) == result_bytes(npairs_oracle(a, p))

    @pytest.mark.parametrize("ids", IDS.values(), ids=IDS.keys())
    def test_relaxed(self, rng, ids):
        a, p = rng.normal(size=(24, 6)), rng.normal(size=(24, 6))
        item_ids = ids(rng)
        member = item_ids[:, None] == item_ids[None, :]
        want = relaxed_oracle(a, p, member)
        assert result_bytes(relaxed_npairs_loss(a, p, item_ids)) == result_bytes(want)

    @pytest.mark.parametrize("ids", IDS.values(), ids=IDS.keys())
    def test_objectives(self, rng, ids):
        c, it = rng.normal(size=(24, 6)), rng.normal(size=(24, 6))
        item_ids = ids(rng)
        member = item_ids[:, None] == item_ids[None, :]
        want = two_way_oracle(relaxed_oracle(it, c, member), relaxed_oracle(c, it, member),
                              c, it, 1e-3)
        assert result_bytes(rjcce_objective(c, it, item_ids, 1e-3)) == result_bytes(want)
        want = two_way_oracle(npairs_oracle(it, c), npairs_oracle(c, it), c, it, 1e-3)
        assert result_bytes(jcce_objective(c, it, 1e-3)) == result_bytes(want)
        neg = (np.arange(24) + 1 + rng.integers(23, size=24)) % 24
        assert result_bytes(bpr_loss(c, it, neg, 1e-3)) == result_bytes(bpr_oracle(c, it, neg, 1e-3))

    @pytest.mark.parametrize("loss", PUBLIC_LOSSES.values(), ids=PUBLIC_LOSSES.keys())
    def test_arguments_never_written(self, rng, loss):
        a, p = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        before = a.tobytes(), p.tobytes()
        res = loss(a, p)
        res.grad_anchors, res.grad_positives
        assert (a.tobytes(), p.tobytes()) == before

    @pytest.mark.parametrize("loss", PUBLIC_LOSSES.values(), ids=PUBLIC_LOSSES.keys())
    def test_lazy_gradients_read_once_in_either_order(self, rng, loss):
        a, p = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        first, second = loss(a, p), loss(a, p)
        assert "_pair" not in vars(first)  # the value alone computed no gradient
        pos = second.grad_positives
        assert result_bytes(first) == result_bytes(second)
        assert second.grad_positives is pos and first.grad_anchors is first.grad_anchors
