"""Mini-batch construction for the pairwise objectives.

A batch is rows of its split: samplers draw row indices, and the batch
gathers those rows' vectors (dense, or Cells for a wide input), dense
content ids (features.item_ids) and, for BPR, context ids
(features.context_ids). Strict N-pairs batches hold N pairwise-distinct
contents; relaxed batches are uniform draws with replacement. BPR
negatives honor the one-to-one match condition on the full (context,
item) pair: the observed pairs are stored as sorted int codes over those
ids, and a batch's negatives come from one masked draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureSchema, ViewingEvent, vectorize_context, vectorize_item
from .nn_core import Cells, _run_starts


class SamplingError(ValueError):
    pass


class NoAdmissibleNegative(Exception):
    """No batch row qualifies as a BPR negative; caller should resample."""


@dataclass(frozen=True, eq=False)
class PairIndex:
    """Exact membership index of observed (context, item) pairs.

    A pair of dense ids is stored as the code context_id * n_items + item_id
    in the sorted, duplicate-free int64 array codes. Queries must use the
    id space the index was built in, with item ids below n_items.
    """

    codes: np.ndarray
    n_items: int

    @classmethod
    def from_log(
        cls, context_ids: np.ndarray, item_ids: np.ndarray, n_items: int
    ) -> "PairIndex":
        """The index of the pairs (context_ids[i], item_ids[i]) of a log."""
        codes = np.sort(context_ids.astype(np.int64) * n_items + item_ids)  # np.unique, unhashed
        return cls(codes[_run_starts(codes)], n_items)

    def observed(self, context_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """(N, M) bool: context_ids[r] was observed with item_ids[c]; one binary search per cell."""
        query = context_ids.astype(np.int64)[:, None] * self.n_items + item_ids[None, :]
        if self.codes.size == 0:
            return np.zeros(query.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(self.codes, query), self.codes.size - 1)
        return self.codes[pos] == query


@dataclass
class MiniBatch:
    rows: np.ndarray  # the split's row index of each batch row
    item_ids: np.ndarray  # dense content id per row
    context_ids: np.ndarray | None  # dense context id per row, when the split has them
    context_vectors: np.ndarray | Cells  # (N, |C|)
    item_vectors: np.ndarray | Cells  # (N, |I|)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def groups(self) -> list[frozenset]:
        """X_i per row, the rows sharing row i's content id."""
        return group_positives(self.item_ids)


def group_positives(item_ids: np.ndarray) -> list[frozenset]:
    """X_i = indices of rows whose content id matches row i's (including i)."""
    ids = item_ids.tolist()
    classes = {k: frozenset(np.flatnonzero(item_ids == k).tolist()) for k in set(ids)}
    return [classes[k] for k in ids]


def _assemble(
    split: list[ViewingEvent],
    rows: np.ndarray,
    schema: FeatureSchema,
    item_ids: np.ndarray,
    context_ids: np.ndarray | None = None,
) -> MiniBatch:
    events = [split[i] for i in rows.tolist()]
    return MiniBatch(
        rows=rows,
        item_ids=item_ids[rows],
        context_ids=None if context_ids is None else context_ids[rows],
        context_vectors=vectorize_context(events, schema),
        item_vectors=vectorize_item([e.item_attributes for e in events], schema),
    )


def content_pools(item_ids: np.ndarray) -> list[np.ndarray]:
    """Row indices of each content id present, in id order, rows in log order."""
    order = np.argsort(item_ids, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(item_ids[order])) + 1) if order.size else []


def sample_npairs(
    split: list[ViewingEvent],
    pools: list[np.ndarray],
    n: int,
    rng: np.random.Generator,
    schema: FeatureSchema,
    item_ids: np.ndarray,
) -> MiniBatch:
    """Strict N-pairs batch: N distinct contents, one event per content.

    Contents are chosen uniformly over the split's content_pools, then
    one row uniformly within each pool.
    """
    if n > len(pools):
        raise SamplingError(
            f"requested {n} distinct contents but the log has only {len(pools)}"
        )
    chosen = rng.choice(len(pools), size=n, replace=False)
    rows = np.array([pools[k][rng.integers(len(pools[k]))] for k in chosen], dtype=np.intp)
    return _assemble(split, rows, schema, item_ids)


def sample_relaxed(
    log: list[ViewingEvent],
    n: int,
    rng: np.random.Generator,
    schema: FeatureSchema,
    item_ids: np.ndarray,
    context_ids: np.ndarray | None = None,
) -> MiniBatch:
    """Relaxed batch: N rows uniform with replacement over the log, whose
    events have the dense ids item_ids (and context_ids, if given)."""
    if not log:
        raise SamplingError("empty log")
    return _assemble(log, rng.integers(len(log), size=n), schema, item_ids, context_ids)


def bpr_negative(
    batch: MiniBatch, pair_index: PairIndex, rng: np.random.Generator
) -> np.ndarray:
    """One uniform admissible in-batch negative per row, as an intp array.

    Row j is admissible for row i when its item differs from row i's and
    is never observed together with row i's context; the pair index is
    queried once per distinct item of the batch. The draws for all rows
    come from one rng.integers call, in row order. When row r has no
    admissible negative, only rows < r draw before NoAdmissibleNegative is
    raised (the caller draws a fresh batch with the same rng), so the rng
    advances exactly as a row-by-row draw stopping at row r would.
    """
    row_item = batch.item_ids
    items, inverse = np.unique(row_item, return_inverse=True)
    observed = pair_index.observed(batch.context_ids, items)[:, inverse]
    admissible = (row_item[:, None] != row_item[None, :]) & ~observed
    counts = admissible.sum(axis=1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        r = int(empty[0])
        if r:
            rng.integers(counts[:r])
        raise NoAdmissibleNegative(f"row {r} has no admissible negative")
    draws = rng.integers(counts)
    return (np.cumsum(admissible, axis=1) > draws[:, None]).argmax(axis=1)
