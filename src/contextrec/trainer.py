"""Training loop: sample, embed, loss, Adam, with early stopping.

Supports the four objectives (two-way N-pairs, its relaxed variant, the
linear-encoder variant, and BPR) over a temporally split fit/validation
portion of the training log. Returns the best-validation checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses
from .features import (
    _MULTI_TYPES, FeatureSchema, SchemaError, ViewingEvent, _sorted_tuple, context_ids, item_ids
)
from .model import EncoderConfig, TwoTowerModel
from .nn_core import AdamState, adam_step, encoder_backward, encoder_forward, make_rng
from .sampling import (
    MiniBatch,
    NoAdmissibleNegative,
    PairIndex,
    SamplingError,
    bpr_negative,
    content_pools,
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
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not self.lam >= 0.0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
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
    stopping_reason: str = "max_steps"
    best_step: int = 0
    best_validation_loss: float = float("inf")
    bpr_redraws: int = 0  # batches redrawn for lack of an admissible BPR negative


def _batch_sampler(split, iids, cids, config, schema):
    """rng -> batch over one split, given its item ids and, for bpr, its
    context ids: strict N-pairs for jcce/ljcce, else relaxed."""
    if config.objective in ("jcce", "ljcce"):
        pools = content_pools(iids)
        n = min(config.batch_size, len(pools))
        return lambda rng: sample_npairs(split, pools, n, rng, schema, iids)
    return lambda rng: sample_relaxed(split, config.batch_size, rng, schema, iids, cids)


def _next_batch(draw, rng, pair_index, history):
    """Draw one batch and, given a BPR pair index, one negative per row.

    With a pair index, batches are redrawn, up to 100 times, until every
    row has an admissible negative; history.bpr_redraws counts the redraws.
    Returns (batch, negatives or None).
    """
    for _ in range(100):
        batch = draw(rng)
        if pair_index is None:
            return batch, None
        try:
            return batch, bpr_negative(batch, pair_index, rng)
        except NoAdmissibleNegative:
            history.bpr_redraws += 1
    raise SamplingError("could not find admissible BPR negatives")


@np.errstate(all="ignore")  # no overflow warnings: _check_finite raises instead
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
    _check_finite("embeddings", ctx_emb, item_emb)
    if config.objective == "rjcce":
        res = losses.rjcce_objective(ctx_emb, item_emb, batch.item_ids, config.lam)
    elif config.objective == "bpr":
        res = losses.bpr_loss(ctx_emb, item_emb, negatives, config.lam)
    else:
        res = losses.jcce_objective(ctx_emb, item_emb, config.lam)
    _check_finite("loss", res.value)
    if not training:
        return res.value, None
    ctx_grads = encoder_backward(ctx_tape, res.grad_anchors)
    item_grads = encoder_backward(item_tape, res.grad_positives)
    flat = []
    for dw, db in ctx_grads + item_grads:
        flat.append(dw)
        flat.append(db)
    _check_finite("gradients", *flat)
    return res.value, flat


def _check_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError(f"non-finite {what}")


def train(
    log: list[ViewingEvent],
    schema: FeatureSchema,
    config: TrainConfig,
    encoder_config: EncoderConfig | None = None,
) -> tuple[TwoTowerModel, TrainHistory]:
    """Fit the two-tower model with early stopping on validation loss.

    The log must be temporally ordered; the last validation_fraction of
    it becomes the validation split. Returns the parameters of the best
    validation checkpoint. A non-finite embedding, loss or gradient raises
    FloatingPointError naming the step.
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
        return model, history

    cut = int(round((1.0 - config.validation_fraction) * len(log)))
    cut = max(1, min(cut, len(log) - 1))
    fit_log, val_log = log[:cut], log[cut:]
    # keyed once over the whole log, so fit and validation share one id space
    iids, keys = item_ids(log)
    fit_iids, val_iids = iids[:cut], iids[cut:]
    fit_cids = val_cids = pair_index = None
    if config.objective == "bpr":
        cids = context_ids(log)
        fit_cids, val_cids = cids[:cut], cids[cut:]
        pair_index = PairIndex.from_log(fit_cids, fit_iids, len(keys))

    # fixed validation batches so successive evaluations are comparable
    val_rng = make_rng(config.seed + 1)
    n_val_batches = max(1, min(10, len(val_log) // config.batch_size))
    draw_val = _batch_sampler(val_log, val_iids, val_cids, config, schema)
    val_batches = [
        _next_batch(draw_val, val_rng, pair_index, history) for _ in range(n_val_batches)
    ]
    draw_fit = _batch_sampler(fit_log, fit_iids, fit_cids, config, schema)

    def validation_loss(m: TwoTowerModel) -> float:
        vals = [
            _loss_and_grads(m, b, config, rng=None, training=False, negatives=neg)[0]
            for b, neg in val_batches
        ]
        return float(np.mean(vals))

    params = model.parameters()
    state = AdamState.for_params(params)
    best_params = [p.copy() for p in params]
    bad_evals = 0
    recent: list[float] = []

    try:
        for step in range(1, config.max_steps + 1):
            batch, negatives = _next_batch(draw_fit, rng, pair_index, history)
            value, grads = _loss_and_grads(
                model, batch, config, rng, training=True, negatives=negatives
            )
            adam_step(params, grads, state, lr=config.learning_rate)
            recent.append(value)

            if step % config.eval_every == 0 or step == config.max_steps:
                val = validation_loss(model)
                history.records.append((step, float(np.mean(recent)), val))
                recent = []
                if val < history.best_validation_loss:
                    history.best_validation_loss = val
                    history.best_step = step
                    best_params = [p.copy() for p in params]
                    bad_evals = 0
                else:
                    bad_evals += 1
                    if bad_evals >= config.patience:
                        history.stopping_reason = "early_stopping"
                        break
    except FloatingPointError as exc:
        raise FloatingPointError(f"training diverged at step {step}: {exc}") from None

    history.stopping_step = step
    for p, bp in zip(params, best_params):
        p[...] = bp
    return model, history


def ablate_to_single_viewer(
    log: list[ViewingEvent], rng: np.random.Generator
) -> list[ViewingEvent]:
    """Collapse each viewer_ids co-viewing group to one uniformly chosen member;
    a viewer_ids that is missing or not a list raises SchemaError."""
    out = []
    for e in log:
        viewers = e.context_attributes.get("viewer_ids")
        if not isinstance(viewers, _MULTI_TYPES):  # None when an event lacks it
            raise SchemaError(
                f"attribute 'viewer_ids' takes a list, got {type(viewers).__name__} {viewers!r}"
            )
        viewers = _sorted_tuple("viewer_ids", viewers)
        if len(viewers) <= 1:
            out.append(e)
            continue
        keep = viewers[rng.integers(len(viewers))]
        attrs = dict(e.context_attributes)
        attrs["viewer_ids"] = (keep,)
        out.append(
            ViewingEvent(
                item_attributes=e.item_attributes,
                context_attributes=attrs,
                timestamp=e.timestamp,
                duration_min=e.duration_min,
            )
        )
    return out
