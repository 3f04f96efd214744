"""Mini-batch construction for the pairwise objectives.

Strict N-pairs batches contain N pairwise-distinct contents; relaxed
batches are uniform draws with replacement. BPR negatives honor the
one-to-one match condition keyed on the full (context, item) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureSchema, ViewingEvent, vectorize_context, vectorize_item


class SamplingError(ValueError):
    pass


class NoAdmissibleNegative(Exception):
    """No batch row qualifies as a BPR negative; caller should resample."""


@dataclass(frozen=True)
class PairIndex:
    """Exact membership index of observed (context, item) pairs."""

    observed: frozenset

    @classmethod
    def from_log(cls, log: list[ViewingEvent]) -> "PairIndex":
        return cls(frozenset((e.context_key(), e.item_key()) for e in log))

    def contains(self, context_key, item_key) -> bool:
        return (context_key, item_key) in self.observed


@dataclass
class MiniBatch:
    events: list[ViewingEvent]
    item_keys: list  # canonical content key per row
    context_vectors: np.ndarray  # (N, |C|)
    item_vectors: np.ndarray  # (N, |I|)
    groups: list[frozenset]  # X_i per row, indices sharing row i's content

    @property
    def size(self) -> int:
        return len(self.events)


def group_positives(item_keys: list) -> list[frozenset]:
    """X_i = indices of rows whose content key matches row i's (including i)."""
    by_item: dict = {}
    for i, k in enumerate(item_keys):
        by_item.setdefault(k, []).append(i)
    classes = {k: frozenset(v) for k, v in by_item.items()}
    return [classes[k] for k in item_keys]


def _assemble(events: list[ViewingEvent], schema: FeatureSchema) -> MiniBatch:
    item_keys = [e.item_key() for e in events]
    return MiniBatch(
        events=events,
        item_keys=item_keys,
        context_vectors=vectorize_context(events, schema),
        item_vectors=vectorize_item([e.item_attributes for e in events], schema),
        groups=group_positives(item_keys),
    )


def content_pools(log: list[ViewingEvent]) -> list[list[ViewingEvent]]:
    """The log's events grouped by content, in sorted content-key order."""
    by_item: dict = {}
    for e in log:
        by_item.setdefault(e.item_key(), []).append(e)
    return [by_item[k] for k in sorted(by_item)]


def sample_npairs(
    pools: list[list[ViewingEvent]],
    n: int,
    rng: np.random.Generator,
    schema: FeatureSchema,
) -> MiniBatch:
    """Strict N-pairs batch: N distinct contents, one event per content.

    Contents are chosen uniformly over the content pools (see
    content_pools), then one event uniformly within each pool, so every
    group is a singleton.
    """
    if n > len(pools):
        raise SamplingError(
            f"requested {n} distinct contents but the log has only {len(pools)}"
        )
    chosen = rng.choice(len(pools), size=n, replace=False)
    events = [pools[k][rng.integers(len(pools[k]))] for k in chosen]
    return _assemble(events, schema)


def sample_relaxed(
    log: list[ViewingEvent],
    n: int,
    rng: np.random.Generator,
    schema: FeatureSchema,
) -> MiniBatch:
    """Relaxed batch: N events uniform with replacement over the log."""
    if not log:
        raise SamplingError("empty log")
    events = [log[i] for i in rng.integers(len(log), size=n)]
    return _assemble(events, schema)


def bpr_negative(
    batch: MiniBatch, row_i: int, pair_index: PairIndex, rng: np.random.Generator
) -> int:
    """Uniform admissible in-batch negative for row i.

    Admissible rows carry an item that differs from row i's and is never
    observed together with row i's context. Raises NoAdmissibleNegative
    when the batch offers none (caller draws a fresh batch).
    """
    ctx_key = batch.events[row_i].context_key()
    own_item = batch.item_keys[row_i]
    admissible = [
        j
        for j, k in enumerate(batch.item_keys)
        if k != own_item and not pair_index.contains(ctx_key, k)
    ]
    if not admissible:
        raise NoAdmissibleNegative(f"row {row_i} has no admissible negative")
    return admissible[rng.integers(len(admissible))]
