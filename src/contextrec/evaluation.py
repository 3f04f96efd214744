"""Rank-position accounting, HR@K / MRR / AUC, and non-learned baselines.

A ranker is any callable mapping a ViewingEvent to a permutation of item
indices (best first) over a fixed item universe. The model-based ranker
lives in `model`; here we provide Random, Toppop, and Toppop(temp).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .features import ViewingEvent, canonical_key
from .model import rank_scores


def position(ranked_item_indices: np.ndarray, observed_item_index: int) -> int:
    """1-based rank of the observed item in the recommendation list."""
    ranked = np.asarray(ranked_item_indices)
    hits = np.nonzero(ranked == observed_item_index)[0]
    if len(hits) != 1:
        raise ValueError("observed item must appear exactly once in the ranking")
    return int(hits[0]) + 1


@dataclass
class EvalReport:
    hr: dict  # K -> hit ratio
    mrr: float
    auc: float
    mean_position: float
    count: int
    position_histogram: np.ndarray  # length M, histogram of pi over 1..M

    def as_row(self, name: str) -> dict:
        row = {"model": name}
        for k in sorted(self.hr):
            row[f"HR@{k}"] = self.hr[k]
        row["MRR"] = self.mrr
        row["AUC"] = self.auc
        row["mean_position"] = self.mean_position
        return row


def metrics(positions: list[int], m: int, ks: list[int]) -> EvalReport:
    """Aggregate rank positions into HR@K, MRR, AUC and the mean position."""
    if not positions:
        raise ValueError("no positions to aggregate")
    pi = np.asarray(positions, dtype=np.float64)
    if pi.min() < 1 or pi.max() > m:
        raise ValueError("positions must lie in [1, M]")
    hist = np.bincount(np.asarray(positions, dtype=np.intp), minlength=m + 1)[1:]
    return EvalReport(
        hr={int(k): float(np.mean(pi <= k)) for k in ks},
        mrr=float(np.mean(1.0 / pi)),
        auc=float(np.mean(m - pi) / (m - 1)),
        mean_position=float(pi.mean()),
        count=len(positions),
        position_histogram=hist,
    )


def evaluate(
    ranker,
    test_log: list[ViewingEvent],
    items: list[dict],
    ks: list[int],
) -> EvalReport:
    """One ranking per test event, aggregated over the item universe.

    Test events whose content is missing from the item universe are
    skipped (the standard protocol builds the universe from all training
    contents and filters the test log accordingly).
    """
    positions = [
        position(ranker(event), j)
        for event, j in zip(test_log, _universe_indices(test_log, items))
        if j is not None
    ]
    return metrics(positions, len(items), ks)


def _universe_indices(log: list[ViewingEvent], items: list[dict]) -> list:
    """Index of each event's content in the item universe, None if absent."""
    index = {canonical_key(it): j for j, it in enumerate(items)}
    return [index.get(canonical_key(e.item_attributes)) for e in log]


def random_ranker(m: int, rng: np.random.Generator):
    """Uniform random permutation per viewing event."""

    def rank(event: ViewingEvent) -> np.ndarray:
        return rng.permutation(m)

    return rank


def _frequency_ranking(counts: np.ndarray) -> np.ndarray:
    # descending count, ties by ascending item index
    return rank_scores(counts.astype(np.float64))


def _temporal_slot(event: ViewingEvent):
    """(day-of-week, hour-of-day) pre-filtering slot."""
    c = event.context_attributes
    return (c.get("day_of_week"), c.get("hour_of_day"))


def _popularity(training_log: list[ViewingEvent], items: list[dict]):
    """Global and per-temporal-slot training counts over the item universe."""
    global_counts = np.zeros(len(items))
    slot_counts = defaultdict(lambda: np.zeros(len(items)))
    for e, j in zip(training_log, _universe_indices(training_log, items)):
        if j is None:
            continue
        global_counts[j] += 1
        slot_counts[_temporal_slot(e)][j] += 1
    return global_counts, slot_counts


def toppop(training_log: list[ViewingEvent], items: list[dict]):
    """Context-agnostic ranking by training frequency."""
    fixed = _frequency_ranking(_popularity(training_log, items)[0])

    def rank(event: ViewingEvent) -> np.ndarray:
        return fixed

    return rank


def toppop_temporal(training_log: list[ViewingEvent], items: list[dict]):
    """Per-temporal-slot popularity ranking, falling back to global Toppop
    for slots unseen in training."""
    global_counts, slot_counts = _popularity(training_log, items)
    global_ranking = _frequency_ranking(global_counts)
    slot_rankings = {s: _frequency_ranking(c) for s, c in slot_counts.items()}

    def rank(event: ViewingEvent) -> np.ndarray:
        return slot_rankings.get(_temporal_slot(event), global_ranking)

    return rank
