"""Training objectives with analytic gradients.

All losses operate on embedding batches (N, E) and return the scalar
value together with exact gradients w.r.t. both embedding sets. Softmax
terms use dot products (not cosine) and are stabilized with a per-row
max shift, so values stay finite for any realistic magnitudes. The input
checks are nn_core's: check_finite for the embeddings, check_range for lam.
Gradients are computed on their first read, so validation pays for none,
and a loss writes only into arrays it allocated, never into its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .nn_core import ShapeError, check_finite, check_range


@dataclass
class LossResult:
    """Scalar loss plus gradients w.r.t. the two embedding arguments.

    For the directed losses grad_anchors/grad_positives match the
    (anchors, positives) arguments; for the composite objectives they are
    the gradients w.r.t. (context_emb, item_emb) in that order.
    """

    value: float
    _grads: object = field(repr=False)  # () -> both gradients: the first read calls it, once
    _pair = cached_property(lambda self: self._grads())
    grad_anchors = property(lambda self: self._pair[0])
    grad_positives = property(lambda self: self._pair[1])


def _check_batch(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if a.ndim != 2 or p.ndim != 2 or a.shape != p.shape:
        raise ShapeError(f"embedding batches must share shape (N, E); got {a.shape} vs {p.shape}")
    if a.shape[0] < 1:
        raise ShapeError("empty batch")
    check_finite("embeddings", a, p)
    return a, p


def npairs_loss(anchors: np.ndarray, positives: np.ndarray) -> LossResult:
    """Softmax cross-entropy over one positive and N-1 in-batch negatives.

    value = (1/N) sum_i -log( exp(a_i.p_i) / sum_j exp(a_i.p_j) )
    """
    a, p = _check_batch(anchors, positives)
    n = a.shape[0]
    shifted = a @ p.T
    shifted -= shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    shifted -= np.log(total)
    value = -shifted.diagonal().mean()
    def grads():  # dL/dlogits = (softmax - I) / N, in e
        g = np.divide(e, total, out=e)
        g.ravel()[:: n + 1] -= 1.0
        g /= n
        return g @ p, g.T @ a
    return LossResult(float(value), grads)


def _softmax_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp and softmax, shifted by each row's max; the softmax overwrites x."""
    top = x.max(axis=1, keepdims=True)
    total = np.exp(np.subtract(x, top, out=x), out=x).sum(axis=1, keepdims=True)
    x /= total
    return (top + np.log(total))[:, 0], x


def _joint_positives(item_ids: np.ndarray, n: int) -> np.ndarray:
    """(n, n) bool mask, [i, j] true when rows i and j share a content id:
    an equivalence relation by construction."""
    ids = np.asarray(item_ids)
    if ids.shape != (n,):
        raise ShapeError(f"need one content id per row: shape {(n,)}, got {ids.shape}")
    return ids[:, None] == ids[None, :]


def _relaxed(a: np.ndarray, p: np.ndarray, member: np.ndarray) -> LossResult:
    n = a.shape[0]
    inv_size = 1.0 / member.sum(axis=1)
    logits = a @ p.T
    # -log P'_i = logsumexp(row i) - logsumexp(row i's joint positives), each
    # with its own max shift, so a positive far below the row max stays
    # finite; a group spanning the whole batch gives two identical terms
    lse_pos, pos_soft = _softmax_parts(np.where(member, logits, -np.inf))
    lse_all, soft = _softmax_parts(logits)  # last: it overwrites logits
    value = float(np.mean(inv_size * (lse_all - lse_pos)))
    def grads():  # d(-log P'_i)/dlogit_ij = softmax_ij - member_ij * positive-softmax_ij
        g = np.subtract(soft, pos_soft, out=soft)
        g *= (inv_size / n)[:, None]
        return g @ p, g.T @ a
    return LossResult(value, grads)


def relaxed_npairs_loss(
    anchors: np.ndarray, positives: np.ndarray, item_ids: np.ndarray
) -> LossResult:
    """N-pairs generalization where same-content rows are joint positives.

    item_ids[i] is row i's content id; rows with equal ids are each other's
    joint positives. With all-distinct ids this reduces exactly to
    npairs_loss; with one id for every row the loss is zero.
    """
    a, p = _check_batch(anchors, positives)
    return _relaxed(a, p, _joint_positives(item_ids, a.shape[0]))


def l2_reg(anchors: np.ndarray, positives: np.ndarray, lam: float) -> LossResult:
    """Embedding-magnitude penalty: lam * sum_i (|a_i|^2 + |p_i|^2), lam a finite number >= 0."""
    a, p = _check_batch(anchors, positives)
    check_range("lam", lam, 0)
    value = lam * float((a * a).sum() + (p * p).sum())
    return LossResult(value, lambda: (2.0 * lam * a, 2.0 * lam * p))


def _two_way(fwd: LossResult, rev: LossResult, reg: LossResult) -> LossResult:
    """Sum of the item-anchored (fwd) and context-anchored (rev) directions
    and the regularizer, with gradients w.r.t. (context_emb, item_emb)."""
    return LossResult(fwd.value + rev.value + reg.value, lambda: (
        fwd.grad_positives + rev.grad_anchors + reg.grad_anchors,
        fwd.grad_anchors + rev.grad_positives + reg.grad_positives,
    ))


def jcce_objective(
    context_emb: np.ndarray, item_emb: np.ndarray, lam: float
) -> LossResult:
    """Two-way N-pairs loss plus the magnitude regularizer.

    Both softmax directions are included (items as anchors and contexts
    as anchors); gradients are returned w.r.t. (context_emb, item_emb).
    """
    c, it = _check_batch(context_emb, item_emb)
    return _two_way(npairs_loss(it, c), npairs_loss(c, it), l2_reg(c, it, lam))


def rjcce_objective(
    context_emb: np.ndarray, item_emb: np.ndarray, item_ids: np.ndarray, lam: float
) -> LossResult:
    """Two-way relaxed N-pairs loss plus the magnitude regularizer.

    The same joint positives apply in both directions since they are
    defined by content identity.
    """
    c, it = _check_batch(context_emb, item_emb)
    member = _joint_positives(item_ids, c.shape[0])  # symmetric: fits both directions
    return _two_way(_relaxed(it, c, member), _relaxed(c, it, member), l2_reg(c, it, lam))


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow
    return np.logaddexp(0.0, z)


def bpr_loss(
    context_emb: np.ndarray,
    item_emb: np.ndarray,
    negative_index_per_row: np.ndarray,
    lam: float,
) -> LossResult:
    """Pairwise log-sigmoid ranking loss over in-batch negatives.

    value = sum_i -log sigmoid(S(i,i) - S(i,j_i)) + l2_reg, where
    S(x, y) = context_x . item_y and j_i is a batch row whose item is not
    observed with context i.
    """
    c, it = _check_batch(context_emb, item_emb)
    n = c.shape[0]
    neg = np.asarray(negative_index_per_row, dtype=np.intp)
    if neg.shape != (n,):
        raise ShapeError("need one negative index per row")
    if np.any(neg == np.arange(n)):
        raise ValueError("a negative index equals its own positive row")
    if np.any((neg < 0) | (neg >= n)):
        raise ValueError("negative index out of range")

    z = np.einsum("ie,ie->i", c, it) - np.einsum("ie,ie->i", c, it[neg])
    reg = l2_reg(c, it, lam)
    value = float(_softplus(-z).sum()) + reg.value
    def grads():  # d(-log sigmoid(z_i))/dz_i = -sigmoid(-z_i), computed overflow-free
        dz = -np.exp(-_softplus(z))
        grad_c = dz[:, None] * (it - it[neg]) + reg.grad_anchors
        grad_it = dz[:, None] * c + reg.grad_positives
        np.subtract.at(grad_it, neg, dz[:, None] * c)
        return grad_c, grad_it
    return LossResult(value, grads)
