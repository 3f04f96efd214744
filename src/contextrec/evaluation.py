"""Rank-position accounting, HR@K / MRR / AUC, and non-learned baselines.

A ranker is any callable mapping a ViewingEvent to a permutation of item
indices (best first) over a fixed item universe. The model-based ranker
lives in `model`; here we provide Random, Toppop, and Toppop(temp).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .features import ViewingEvent, universe_indices
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
        for event, j in zip(test_log, universe_indices(test_log, items).tolist())
        if j >= 0
    ]
    return metrics(positions, len(items), ks)


def random_ranker(m: int, rng: np.random.Generator):
    """Uniform random permutation per viewing event."""

    def rank(event: ViewingEvent) -> np.ndarray:
        return rng.permutation(m)

    return rank


def _temporal_slot(event: ViewingEvent):
    """(day-of-week, hour-of-day) pre-filtering slot."""
    c = event.context_attributes
    return (c.get("day_of_week"), c.get("hour_of_day"))


def _popularity_ranker(training_log: list[ViewingEvent], items: list[dict], slot):
    """Ranking by training count in the event's slot(event): descending
    count, ties by ascending item index; a slot unseen in training ranks by
    the counts summed over all slots, which are exact integer sums."""
    counts = defaultdict(lambda: np.zeros(len(items)))
    for e, j in zip(training_log, universe_indices(training_log, items).tolist()):
        if j >= 0:
            counts[slot(e)][j] += 1
    rankings = {s: rank_scores(c) for s, c in counts.items()}
    overall = rank_scores(sum(counts.values(), np.zeros(len(items))))

    def rank(event: ViewingEvent) -> np.ndarray:
        return rankings.get(slot(event), overall)

    return rank


def toppop(training_log: list[ViewingEvent], items: list[dict]):
    """Context-agnostic ranking by training frequency: one slot for all."""
    return _popularity_ranker(training_log, items, lambda event: None)


def toppop_temporal(training_log: list[ViewingEvent], items: list[dict]):
    """Per-temporal-slot popularity ranking, falling back to global Toppop
    for slots unseen in training."""
    return _popularity_ranker(training_log, items, _temporal_slot)
