"""Training loop: sample, embed, loss, Adam, with early stopping.

Supports the four objectives (two-way N-pairs, its relaxed variant, the
linear-encoder variant, and BPR) over a temporally split fit/validation
portion of the training log. Returns the best-validation checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses
from .features import FeatureSchema, ViewingEvent
from .model import EncoderConfig, TwoTowerModel
from .nn_core import AdamState, adam_step, encoder_backward, encoder_forward, make_rng
from .sampling import (
    MiniBatch,
    NoAdmissibleNegative,
    PairIndex,
    SamplingError,
    bpr_negative,
    sample_npairs,
    sample_relaxed,
)

OBJECTIVES = ("jcce", "rjcce", "ljcce", "bpr")


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "rjcce"
    batch_size: int = 256
    learning_rate: float = 1e-3
    lam: float = 1e-4
    dropout_rate: float = 0.2
    max_steps: int = 5000
    eval_every: int = 200
    patience: int = 5
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 for pairwise objectives")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.validation_fraction < 0.5:
            raise ValueError("validation_fraction must be in (0, 0.5)")


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)  # (step, train_loss, val_loss)
    stopping_step: int = 0
    stopping_reason: str = ""
    best_step: int = 0
    best_validation_loss: float = float("inf")


def _next_batch(log, config, schema, rng, n_distinct, pair_index, max_tries=100):
    """Draw one batch and, given a BPR pair index, one negative per row.

    With a pair index, batches are redrawn until every row has an
    admissible negative. Returns (batch, negatives or None).
    """
    for _ in range(max_tries):
        if config.objective in ("jcce", "ljcce"):  # strict N-pairs sampling
            batch = sample_npairs(log, min(config.batch_size, n_distinct), rng, schema)
        else:
            batch = sample_relaxed(log, config.batch_size, rng, schema)
        if pair_index is None:
            return batch, None
        try:
            negatives = [
                bpr_negative(batch, i, pair_index, rng) for i in range(batch.size)
            ]
        except NoAdmissibleNegative:
            continue
        return batch, np.array(negatives, dtype=np.intp)
    raise SamplingError("could not find admissible BPR negatives")


def _objective_on_embeddings(
    config: TrainConfig, ctx_emb, item_emb, batch: MiniBatch, negatives
) -> losses.LossResult:
    if config.objective == "rjcce":
        return losses.rjcce_objective(ctx_emb, item_emb, batch.groups, config.lam)
    if config.objective == "bpr":
        return losses.bpr_loss(ctx_emb, item_emb, negatives, config.lam)
    return losses.jcce_objective(ctx_emb, item_emb, config.lam)


def _loss_and_grads(
    model: TwoTowerModel,
    batch: MiniBatch,
    config: TrainConfig,
    rng: np.random.Generator,
    training: bool,
    negatives=None,
):
    dr = config.dropout_rate if training else 0.0
    ctx_emb, ctx_tape = encoder_forward(
        model.context_encoder, batch.context_vectors, dr, rng, training
    )
    item_emb, item_tape = encoder_forward(
        model.item_encoder, batch.item_vectors, dr, rng, training
    )
    res = _objective_on_embeddings(config, ctx_emb, item_emb, batch, negatives)
    if not training:
        return res.value, None
    ctx_grads, _ = encoder_backward(ctx_tape, res.grad_anchors)
    item_grads, _ = encoder_backward(item_tape, res.grad_positives)
    flat = []
    for dw, db in ctx_grads + item_grads:
        flat.append(dw)
        flat.append(db)
    return res.value, flat


def train(
    log: list[ViewingEvent],
    schema: FeatureSchema,
    config: TrainConfig,
    encoder_config: EncoderConfig | None = None,
) -> tuple[TwoTowerModel, TrainHistory]:
    """Fit the two-tower model with early stopping on validation loss.

    The log must be temporally ordered; the last validation_fraction of
    it becomes the validation split. Returns the parameters of the best
    validation checkpoint.
    """
    if encoder_config is None:
        arch = "linear" if config.objective == "ljcce" else "mlp"
        encoder_config = EncoderConfig(architecture=arch)
    if not log:
        raise ValueError("empty training log")

    rng = make_rng(config.seed)
    model = TwoTowerModel.initialize(schema, encoder_config, rng)
    history = TrainHistory()
    if config.max_steps == 0:
        history.stopping_reason = "max_steps"
        return model, history

    cut = int(round((1.0 - config.validation_fraction) * len(log)))
    cut = max(1, min(cut, len(log) - 1))
    fit_log, val_log = log[:cut], log[cut:]
    n_distinct = len({e.item_key() for e in fit_log})
    pair_index = PairIndex.from_log(fit_log) if config.objective == "bpr" else None

    # fixed validation batches so successive evaluations are comparable
    val_rng = make_rng(config.seed + 1)
    n_val_batches = max(1, min(10, len(val_log) // config.batch_size))
    val_distinct = len({e.item_key() for e in val_log})
    val_batches = [
        _next_batch(val_log, config, schema, val_rng, val_distinct, pair_index)
        for _ in range(n_val_batches)
    ]

    def validation_loss(m: TwoTowerModel) -> float:
        vals = [
            _loss_and_grads(m, b, config, rng=None, training=False, negatives=neg)[0]
            for b, neg in val_batches
        ]
        return float(np.mean(vals))

    params = model.parameters()
    state = AdamState.for_params(params)
    best_val = np.inf
    best_params = [p.copy() for p in params]
    best_step = 0
    bad_evals = 0
    recent: list[float] = []
    stopping_reason = "max_steps"

    for step in range(1, config.max_steps + 1):
        batch, negatives = _next_batch(
            fit_log, config, schema, rng, n_distinct, pair_index
        )
        value, grads = _loss_and_grads(
            model, batch, config, rng, training=True, negatives=negatives
        )
        adam_step(params, grads, state, lr=config.learning_rate)
        recent.append(value)

        if step % config.eval_every == 0 or step == config.max_steps:
            val = validation_loss(model)
            history.records.append((step, float(np.mean(recent)), val))
            recent = []
            if val < best_val:
                best_val = val
                best_params = [p.copy() for p in params]
                best_step = step
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= config.patience:
                    stopping_reason = "early_stopping"
                    history.stopping_step = step
                    break
    else:
        history.stopping_step = config.max_steps

    history.stopping_reason = stopping_reason
    for p, bp in zip(params, best_params):
        p[...] = bp
    history.best_step = best_step
    history.best_validation_loss = float(best_val)
    return model, history


def ablate_to_single_viewer(
    log: list[ViewingEvent], rng: np.random.Generator, viewer_feature: str = "viewer_ids"
) -> list[ViewingEvent]:
    """Collapse each co-viewing group to one uniformly chosen member."""
    out = []
    for e in log:
        viewers = e.context_attributes.get(viewer_feature)
        if viewers is None:
            raise ValueError(f"events lack the {viewer_feature!r} feature")
        viewers = tuple(sorted(viewers))
        if len(viewers) <= 1:
            out.append(e)
            continue
        keep = viewers[rng.integers(len(viewers))]
        attrs = dict(e.context_attributes)
        attrs[viewer_feature] = (keep,)
        out.append(
            ViewingEvent(
                item_attributes=e.item_attributes,
                context_attributes=attrs,
                timestamp=e.timestamp,
                duration_min=e.duration_min,
            )
        )
    return out
