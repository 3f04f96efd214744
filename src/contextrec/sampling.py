"""Mini-batch construction for the pairwise objectives.

Strict N-pairs batches contain N pairwise-distinct contents; relaxed
batches are uniform draws with replacement. BPR negatives honor the
one-to-one match condition keyed on the full (context, item) pair: the
observed pairs are stored as sorted int codes over interned context and
item ids, and a batch's negatives come from one masked draw per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureSchema, ViewingEvent, item_ids, vectorize_context, vectorize_item


class SamplingError(ValueError):
    pass


class NoAdmissibleNegative(Exception):
    """No batch row qualifies as a BPR negative; caller should resample."""


@dataclass(frozen=True, eq=False)
class PairIndex:
    """Exact membership index of observed (context, item) pairs.

    Context and item keys are interned into dense ids; a pair is stored
    as the code context_id * len(item_ids) + item_id in the sorted,
    duplicate-free int64 array codes.
    """

    context_ids: dict
    item_ids: dict
    codes: np.ndarray

    @classmethod
    def from_log(cls, log: list[ViewingEvent]) -> "PairIndex":
        context_ids: dict = {}
        cid = np.fromiter(
            (context_ids.setdefault(e.context_key(), len(context_ids)) for e in log),
            dtype=np.int64,
            count=len(log),
        )
        iid, keys = item_ids(log)
        codes = np.unique(cid * len(keys) + iid)
        return cls(context_ids, {k: j for j, k in enumerate(keys)}, codes)

    def observed(self, context_keys, item_keys) -> np.ndarray:
        """(N, M) bool matrix: context_keys[r] was observed with item_keys[c]."""
        cid = np.array([self.context_ids.get(k, -1) for k in context_keys], dtype=np.int64)
        iid = np.array([self.item_ids.get(k, -1) for k in item_keys], dtype=np.int64)
        # an unknown id is never observed; without the mask, c * M + (-1)
        # would alias the code of (c - 1, M - 1)
        known = (cid >= 0)[:, None] & (iid >= 0)[None, :]
        if self.codes.size == 0:
            return np.zeros_like(known)
        query = cid[:, None] * len(self.item_ids) + iid[None, :]
        pos = np.minimum(np.searchsorted(self.codes, query), self.codes.size - 1)
        return known & (self.codes[pos] == query)


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
    codes, keys = item_ids(events)
    item_keys = [keys[c] for c in codes.tolist()]
    return MiniBatch(
        events=events,
        item_keys=item_keys,
        context_vectors=vectorize_context(events, schema),
        item_vectors=vectorize_item([e.item_attributes for e in events], schema),
        groups=group_positives(item_keys),
    )


def content_pools(log: list[ViewingEvent]) -> list[list[ViewingEvent]]:
    """The log's events grouped by content, in sorted content-key order."""
    codes, keys = item_ids(log)
    pools: list = [[] for _ in keys]
    for e, c in zip(log, codes.tolist()):
        pools[c].append(e)
    return [pools[j] for j in sorted(range(len(keys)), key=keys.__getitem__)]


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
    batch: MiniBatch, pair_index: PairIndex, rng: np.random.Generator
) -> np.ndarray:
    """One uniform admissible in-batch negative per row, as an intp array.

    Row j is admissible for row i when its item differs from row i's and
    is never observed together with row i's context. The draws for all
    rows come from one rng.integers call, in row order. When row r has no
    admissible negative, only rows < r draw before NoAdmissibleNegative
    is raised (the caller draws a fresh batch with the same rng), so the
    rng advances exactly as a row-by-row draw stopping at row r would.
    """
    ids: dict = {}
    row_item = np.array([ids.setdefault(k, len(ids)) for k in batch.item_keys])
    admissible = (row_item[:, None] != row_item[None, :]) & ~pair_index.observed(
        [e.context_key() for e in batch.events], batch.item_keys
    )
    counts = admissible.sum(axis=1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        r = int(empty[0])
        if r:
            rng.integers(counts[:r])
        raise NoAdmissibleNegative(f"row {r} has no admissible negative")
    draws = rng.integers(counts)
    return (np.cumsum(admissible, axis=1) > draws[:, None]).argmax(axis=1)
