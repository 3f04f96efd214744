"""Training loop: sample, embed, loss, Adam, with early stopping.

Supports the four objectives (two-way N-pairs, its relaxed variant, the
linear-encoder variant, and BPR) over a temporally split fit/validation
portion of the training log. Returns the best-validation checkpoint.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .features import (
    _MULTI_TYPES, KIND_MULTI, FeatureSchema, FeatureSpec, SchemaError, ViewingEvent, _kind_error,
    _sorted_tuple, context_ids, item_ids,
)
from .model import EncoderConfig, TwoTowerModel, precompute_catalog
from .nn_core import (AdamState, DegenerateMeasure, adam_step, check_finite, check_range,
                      encoder_backward, encoder_forward, make_rng)
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

# One row per objective: its default encoder hidden widths (() is linear),
# whether its batches are strict N-pairs (else relaxed), whether each row gets
# a sampled BPR negative, and its loss(anchors, positives, batch, negatives,
# lam). Each loss looks up losses.<fn> when it runs, so a wrapper set on the
# module after import sees every call.
Objective = namedtuple("Objective", "hidden_widths strict negatives loss")
_MLP = EncoderConfig().hidden_widths
_OBJECTIVES = {
    "jcce": Objective(_MLP, True, False, lambda a, p, b, n, lam: losses.jcce_objective(a, p, lam)),
    "rjcce": Objective(_MLP, False, False,
                       lambda a, p, b, n, lam: losses.rjcce_objective(a, p, b.item_ids, lam)),
    "ljcce": Objective((), True, False, lambda a, p, b, n, lam: losses.jcce_objective(a, p, lam)),
    "bpr": Objective(_MLP, False, True, lambda a, p, b, n, lam: losses.bpr_loss(a, p, n, lam)),
}
OBJECTIVES = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "rjcce"
    batch_size: int = 256
    learning_rate: float = 1e-3
    lam: float = 1e-6
    dropout_rate: float = 0.2
    max_steps: int = 5000
    eval_every: int = 200
    patience: int = 5
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:  # a tuple, so an unhashable value is refused too
            raise ValueError(f"objective must be one of {list(OBJECTIVES)}, got {self.objective!r}")
        for name, low in (("batch_size", 2), ("max_steps", 0), ("eval_every", 1), ("patience", 1),
                          ("seed", 0)):
            check_range(name, getattr(self, name), low, integer=True)
        check_range("learning_rate", self.learning_rate, 0, bounds="()")
        check_range("lam", self.lam, 0)
        check_range("dropout_rate", self.dropout_rate, 0, 1)
        check_range("validation_fraction", self.validation_fraction, 0, 0.5, "()")


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)  # (step, train_loss, val_loss)
    stopping_step: int = 0
    stopping_reason: str = "max_steps"
    best_step: int = 0
    best_validation_loss: float = float("inf")
    bpr_redraws: int = 0  # batches redrawn for lack of an admissible BPR negative


def _batch_sampler(split, iids, cids, pair_index, config, schema, history):
    """rng -> (batch, negatives or None) over one split, given its item ids
    and, for bpr, its context ids and the fit split's pair index.

    Batches are strict N-pairs or relaxed, as the objective's row says. With
    a pair index, a batch is redrawn, up to 100 times, until every row has
    an admissible negative; history.bpr_redraws counts the redraws.
    """
    if _OBJECTIVES[config.objective].strict:
        pools = content_pools(iids)
        n = min(config.batch_size, len(pools))
        draw = lambda rng: sample_npairs(split, pools, n, rng, schema, iids)
    else:
        draw = lambda rng: sample_relaxed(split, config.batch_size, rng, schema, iids, cids)
    if pair_index is None:
        return lambda rng: (draw(rng), None)

    def draw_with_negatives(rng):
        for _ in range(100):
            batch = draw(rng)
            try:
                return batch, bpr_negative(batch, pair_index, rng)
            except NoAdmissibleNegative:
                history.bpr_redraws += 1
        raise SamplingError("could not find admissible BPR negatives")

    return draw_with_negatives


@np.errstate(all="ignore")  # no overflow warnings: check_finite raises instead
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
    check_finite("embeddings", ctx_emb, item_emb)
    res = _OBJECTIVES[config.objective].loss(ctx_emb, item_emb, batch, negatives, config.lam)
    check_finite("loss", res.value)
    if not training:  # the gradients are computed when read, so validation computes none
        return res.value, None
    grads = encoder_backward(ctx_tape, res.grad_anchors)
    grads += encoder_backward(item_tape, res.grad_positives)
    check_finite("gradients", *grads)
    return res.value, grads


def train(
    log: list[ViewingEvent],
    schema: FeatureSchema,
    config: TrainConfig,
    encoder_config: EncoderConfig | None = None,
) -> tuple[TwoTowerModel, TrainHistory]:
    """Fit the two-tower model with early stopping on validation loss.

    The log must be temporally ordered; the last validation_fraction of
    it becomes the validation split. Returns the parameters of the best
    validation checkpoint, and the log's distinct item dicts as the model's
    items. Fewer than 2 of those raise SamplingError. A non-finite embedding,
    loss or gradient, or a catalog that precompute_catalog refuses at the
    best step, is a FloatingPointError naming the step.
    """
    spec = _OBJECTIVES[config.objective]
    if encoder_config is None:
        encoder_config = EncoderConfig(hidden_widths=spec.hidden_widths)
    if not log:
        raise ValueError("empty training log")
    # keyed once over the whole log, so fit and validation share one id space
    iids, keys = item_ids(log)
    if len(keys) < 2:  # the log is not empty, so it holds one
        raise SamplingError("the training log holds 1 distinct content; a model needs at least 2")

    rng = make_rng(config.seed)
    model = TwoTowerModel.initialize(schema, encoder_config, rng)
    model.items = tuple(map(dict, keys))
    history = TrainHistory()
    if config.max_steps == 0:
        return model, history

    cut = int(round((1.0 - config.validation_fraction) * len(log)))
    cut = max(1, min(cut, len(log) - 1))
    fit_log, val_log = log[:cut], log[cut:]
    fit_iids, val_iids = iids[:cut], iids[cut:]
    fit_cids = val_cids = pair_index = None
    if spec.negatives:
        cids = context_ids(log)
        fit_cids, val_cids = cids[:cut], cids[cut:]
        pair_index = PairIndex.from_log(fit_cids, fit_iids, len(keys))

    # fixed validation batches so successive evaluations are comparable
    val_rng = make_rng(config.seed + 1)
    n_val_batches = max(1, min(10, len(val_log) // config.batch_size))
    draw_val = _batch_sampler(val_log, val_iids, val_cids, pair_index, config, schema, history)
    val_batches = [draw_val(val_rng) for _ in range(n_val_batches)]
    draw_fit = _batch_sampler(fit_log, fit_iids, fit_cids, pair_index, config, schema, history)

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
            batch, negatives = draw_fit(rng)
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
    try:  # the catalog eval would build: a dead item tower embeds every item alike
        precompute_catalog(model, model.items)
    except (SchemaError, FloatingPointError, DegenerateMeasure) as exc:
        raise FloatingPointError(f"at the best step, {history.best_step}, the item tower "
                                 f"cannot rank the catalog: {exc}") from None
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
            raise _kind_error(FeatureSpec("viewer_ids", KIND_MULTI), viewers)
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
