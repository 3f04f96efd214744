import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextrec.datagen import GeneratorConfig, filter_log, generate, temporal_split
from contextrec.evaluation import evaluate, toppop, toppop_temporal
from contextrec.features import ViewingEvent
from contextrec.model import catalog_from_log


class TestGenerate:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_weeks=1, events_per_day=50, seed=9)
        a = generate(cfg)
        b = generate(cfg)
        assert a == b

    def test_timestamps_nondecreasing(self):
        log = generate(GeneratorConfig(n_weeks=1, events_per_day=100, seed=1))
        ts = [e.timestamp for e in log]
        assert all(x <= y for x, y in zip(ts, ts[1:]))

    def test_flat_logits_give_uniform_genres(self):
        cfg = GeneratorConfig(
            n_weeks=5,
            events_per_day=3000,
            n_genres=10,
            habit_strength=0.0,
            temporal_strength=0.0,
            popularity_skew=0.0,
            seed=2,
        )
        log = generate(cfg)
        assert len(log) >= 100_000
        counts = np.zeros(10)
        for e in log:
            counts[int(e.item_attributes["genre"][1:])] += 1
        expected = len(log) / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = 9; 99.9th percentile ~ 27.9
        assert chi2 < 27.9

    def test_no_coviewing(self):
        cfg = GeneratorConfig(n_weeks=1, events_per_day=200, coviewing_prob=0.0, seed=3)
        log = generate(cfg)
        assert all(len(e.context_attributes["viewer_ids"]) == 1 for e in log)

    def test_temporal_structure_recoverable(self):
        # strong slot priors, no user habit: per-slot popularity must win
        cfg = GeneratorConfig(
            n_weeks=4,
            events_per_day=800,
            n_genres=12,
            habit_strength=0.0,
            temporal_strength=4.0,
            popularity_skew=0.2,
            seed=4,
        )
        log = filter_log(generate(cfg))
        train, test = temporal_split(log)
        items = catalog_from_log(train)
        global_hr = evaluate(toppop(train, items), test, items, [1]).hr[1]
        temporal_hr = evaluate(toppop_temporal(train, items), test, items, [1]).hr[1]
        assert temporal_hr > global_hr

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            generate(GeneratorConfig(n_genres=1))


class TestFilterLog:
    def mk(self, duration, genre="g1", t=0.0):
        return ViewingEvent({"genre": genre}, {"user": "u"}, t, duration)

    def test_short_event_removed(self):
        assert filter_log([self.mk(2.0)], min_item_count=1) == []

    def test_threshold_inclusive(self):
        log = [self.mk(3.0)]
        assert filter_log(log, min_item_count=1) == log

    def test_rare_content_pruned(self):
        log = [self.mk(10.0, "g1", t) for t in range(9)] + [self.mk(10.0, "g2", 9)]
        out = filter_log(log, min_item_count=2)
        assert all(e.item_attributes["genre"] == "g1" for e in out)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        log = [
            self.mk(float(rng.exponential(10)), f"g{rng.integers(4)}", float(t))
            for t in range(500)
        ]
        once = filter_log(log)
        assert filter_log(once) == once

    def test_subsequence_of_input(self):
        log = [self.mk(10.0, f"g{i % 3}", float(i)) for i in range(30)]
        out = filter_log(log, min_item_count=5)
        it = iter(log)
        assert all(e in it for e in out)


class TestTemporalSplit:
    def mk(self, t):
        return ViewingEvent({"genre": "g"}, {"user": "u"}, float(t), 10.0)

    def test_exact_arithmetic(self):
        log = [self.mk(t) for t in range(10)]
        train, test = temporal_split(log, 0.9)
        assert len(train) == 9 and len(test) == 1

    def test_ordering_contract(self):
        rng = np.random.default_rng(6)
        log = [self.mk(t) for t in rng.integers(0, 1000, size=100)]
        train, test = temporal_split(log, 0.8)
        assert max(e.timestamp for e in train) <= min(e.timestamp for e in test)

    def test_partition(self):
        log = [self.mk(t) for t in range(20)]
        train, test = temporal_split(log, 0.75)
        assert sorted(train + test, key=lambda e: e.timestamp) == log
        assert len(train) + len(test) == len(log)

    @pytest.mark.parametrize("position", [0, 3, 9])
    def test_nan_timestamp_rejected(self, position):
        log = [self.mk(t) for t in range(10)]
        log[position] = self.mk(float("nan"))
        with pytest.raises(ValueError, match="NaN timestamp"):
            temporal_split(log)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, float("inf"), float("-inf")])
            | st.floats(allow_nan=False),
            max_size=30,
        ),
        st.floats(0.01, 0.99),
    )
    def test_equals_sorted_reference(self, stamps, fraction):
        # events differ only by position, so the check is by identity
        log = [ViewingEvent({"genre": "g"}, {"n": str(i)}, t, 10.0) for i, t in enumerate(stamps)]
        ordered = [e for _, e in sorted(enumerate(log), key=lambda t: (t[1].timestamp, t[0]))]
        cut = int(round(fraction * len(log)))
        train, test = temporal_split(log, fraction)
        assert [id(e) for e in train] == [id(e) for e in ordered[:cut]]
        assert [id(e) for e in test] == [id(e) for e in ordered[cut:]]
