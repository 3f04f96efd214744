"""Synthetic television-viewing log with planted, controllable structure.

Each knob controls one recoverable signal: habit_strength sharpens
per-user genre affinities, temporal_strength plants hour-slot genre
priors, popularity_skew tilts the genre marginal Zipf-style, and
coviewing_prob mixes household members' affinities. Timeshifted events
suppress the temporal term, so delayed viewing carries no slot signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import ViewingEvent, item_ids
from .nn_core import check_range, make_rng

DAY_NAMES = ("0mon", "1tue", "2wed", "3thu", "4fri", "5sat", "6sun")
REGIONS = ("north", "south", "east", "west")
LOCATIONS = ("livingroom", "bedroom", "kitchen")


@dataclass(frozen=True)
class GeneratorConfig:
    n_households: int = 50
    n_users: int = 120
    n_genres: int = 20
    n_weeks: int = 4
    events_per_day: int = 500
    coviewing_prob: float = 0.2
    habit_strength: float = 2.0
    temporal_strength: float = 1.0
    popularity_skew: float = 0.5
    timeshift_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_households", 1), ("n_users", 1), ("n_genres", 2), ("n_weeks", 1),
                          ("events_per_day", 1), ("seed", 0)):
            check_range(name, getattr(self, name), low, integer=True)
        for name in ("coviewing_prob", "timeshift_prob"):
            check_range(name, getattr(self, name), 0, 1, "[]")
        for name in ("habit_strength", "temporal_strength", "popularity_skew"):
            check_range(name, getattr(self, name), 0)


def generate(config: GeneratorConfig) -> list[ViewingEvent]:
    """Produce a temporally ordered log; fully deterministic per seed."""
    rng = make_rng(config.seed)
    m = config.n_genres
    genres = [f"g{j:03d}" for j in range(m)]

    # per-user traits: favorite genre plus mild idiosyncratic noise
    fav = rng.integers(m, size=config.n_users)
    affinity = 0.5 * rng.normal(size=(config.n_users, m))
    affinity[np.arange(config.n_users), fav] += 2.0
    ages = rng.integers(5, 80, size=config.n_users).astype(float)
    female = rng.random(config.n_users) < 0.5

    household_of = rng.integers(config.n_households, size=config.n_users)
    members: dict[int, list[int]] = {}
    for u, h in enumerate(household_of):
        members.setdefault(int(h), []).append(u)
    occupied = sorted(members)
    region_of = {h: REGIONS[rng.integers(len(REGIONS))] for h in occupied}

    # hour-slot prior: each hour favors one genre, cycling over the catalog
    slot_fav = np.array([(5 * h) % m for h in range(24)])
    slot_prior = np.zeros((24, m))
    slot_prior[np.arange(24), slot_fav] = 1.0

    # Zipf-style popularity over a fixed random genre ordering
    pop_rank = rng.permutation(m)
    pop_logit = -config.popularity_skew * np.log(pop_rank + 1.0)

    events: list[ViewingEvent] = []
    n_days = 7 * config.n_weeks
    for day in range(n_days):
        seconds = np.sort(rng.integers(0, 86_400, size=config.events_per_day))
        for sec in seconds:
            h = occupied[rng.integers(len(occupied))]
            pool = members[h]
            primary = pool[rng.integers(len(pool))]
            viewers = [primary]
            if len(pool) > 1 and rng.random() < config.coviewing_prob:
                extras = [u for u in pool if u != primary]
                k = int(rng.integers(1, min(len(extras), 2) + 1))
                viewers += [extras[i] for i in rng.choice(len(extras), size=k, replace=False)]

            hour = int(sec) // 3600
            timeshifted = rng.random() < config.timeshift_prob
            logits = (
                config.habit_strength * affinity[viewers].mean(axis=0)
                + pop_logit
            )
            if not timeshifted:
                logits = logits + config.temporal_strength * slot_prior[hour]
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            genre = genres[rng.choice(m, p=probs)]

            activity = "live"
            if timeshifted:
                activity = "vosdal" if rng.random() < 0.5 else "timeshifted"
            viewer_ids = tuple(sorted(f"u{u:04d}" for u in viewers))
            events.append(
                ViewingEvent(
                    item_attributes={"genre": genre},
                    context_attributes={
                        "viewer_ids": viewer_ids,
                        "group_size": float(len(viewers)),
                        "guest_count": str(int(rng.integers(0, 3))),
                        "mean_age": float(ages[viewers].mean()),
                        "female_fraction": float(np.mean(female[viewers])),
                        "day_of_week": DAY_NAMES[day % 7],
                        "hour_of_day": f"{hour:02d}",
                        "tv_location": LOCATIONS[rng.integers(len(LOCATIONS))],
                        "region": region_of[h],
                        "activity": activity,
                    },
                    timestamp=float(day * 86_400 + int(sec)),
                    duration_min=float(rng.exponential(30.0)),
                )
            )
    return events


def filter_log(
    log: list[ViewingEvent],
    min_duration_minutes: float = 3.0,
    min_item_count: int | None = None,
) -> list[ViewingEvent]:
    """Drop short events, then events of rarely observed contents.

    The duration threshold is inclusive (exactly 3 minutes survives).
    min_item_count defaults to 1% of the post-duration-filter log size.
    Idempotent.
    """
    kept = [e for e in log if e.duration_min >= min_duration_minutes]
    if min_item_count is None:
        min_item_count = max(1, len(kept) // 100)
    codes, keys = item_ids(kept)
    frequent = np.bincount(codes, minlength=len(keys)) >= min_item_count
    return [e for e, ok in zip(kept, frequent[codes].tolist()) if ok]


def temporal_split(
    log: list[ViewingEvent], train_fraction: float = 0.9
) -> tuple[list[ViewingEvent], list[ViewingEvent]]:
    """Split by event order: first train_fraction for training.

    Events are ordered by timestamp, ties by position in the log. A NaN
    timestamp has no order and raises ValueError.
    """
    check_range("train_fraction", train_fraction, 0, 1, "()")
    stamps = np.fromiter((e.timestamp for e in log), dtype=np.float64, count=len(log))
    if np.isnan(stamps).any():
        raise ValueError("a NaN timestamp has no temporal order")
    events = [log[i] for i in np.argsort(stamps, kind="stable").tolist()]
    cut = int(round(train_fraction * len(events)))
    return events[:cut], events[cut:]
