import numpy as np
import pytest

from contextrec.features import ViewingEvent, build_schema
from contextrec.nn_core import make_rng
from contextrec.sampling import (
    NoAdmissibleNegative,
    PairIndex,
    SamplingError,
    bpr_negative,
    group_positives,
    sample_npairs,
    sample_relaxed,
)


def event(user, genre, t=0.0):
    return ViewingEvent(
        item_attributes={"genre": genre},
        context_attributes={"user": user},
        timestamp=t,
        duration_min=10.0,
    )


@pytest.fixture
def log():
    events = []
    t = 0.0
    for user in ("u1", "u2", "u3"):
        for genre in ("g1", "g2", "g3", "g4"):
            events.append(event(user, genre, t))
            t += 1.0
    return events


@pytest.fixture
def schema(log):
    return build_schema(log)


class TestSampleNpairs:
    def test_all_contents_once(self, log, schema):
        rng = make_rng(0)
        batch = sample_npairs(log, 4, rng, schema)
        genres = [e.item_attributes["genre"] for e in batch.events]
        assert sorted(genres) == ["g1", "g2", "g3", "g4"]

    def test_groups_all_singletons(self, log, schema):
        rng = make_rng(1)
        batch = sample_npairs(log, 3, rng, schema)
        assert all(len(g) == 1 for g in batch.groups)

    def test_content_frequency_uniform(self, schema, log):
        # N = 2 of M = 4 contents: each appears with probability 1/2
        rng = make_rng(2)
        counts = {g: 0 for g in ("g1", "g2", "g3", "g4")}
        draws = 10_000
        for _ in range(draws):
            batch = sample_npairs(log, 2, rng, schema)
            for e in batch.events:
                counts[e.item_attributes["genre"]] += 1
        for c in counts.values():
            assert abs(c / draws - 0.5) < 0.02

    def test_too_many_contents_rejected(self, log, schema):
        with pytest.raises(SamplingError):
            sample_npairs(log, 5, make_rng(0), schema)

    def test_log_changed_in_place_is_regrouped(self, log, schema):
        sample_npairs(log, 4, make_rng(0), schema)
        log[0] = event("u1", "g5")
        batch = sample_npairs(log, 5, make_rng(0), schema)
        genres = [e.item_attributes["genre"] for e in batch.events]
        assert sorted(genres) == ["g1", "g2", "g3", "g4", "g5"]
        log.append(event("u1", "g6"))
        assert sample_npairs(log, 6, make_rng(0), schema).size == 6


class TestSampleRelaxed:
    def test_popularity_reflected(self, schema):
        # one content holds 90% of the log
        events = [event(f"u{i}", "g1", i) for i in range(90)]
        events += [event(f"u{i}", "g2", 90 + i) for i in range(10)]
        sch = build_schema(events)
        rng = make_rng(3)
        n, draws = 50, 200
        total_g1 = 0
        for _ in range(draws):
            batch = sample_relaxed(events, n, rng, sch)
            total_g1 += sum(e.item_attributes["genre"] == "g1" for e in batch.events)
        mean = total_g1 / draws
        sigma = np.sqrt(n * 0.9 * 0.1)
        assert abs(mean - 0.9 * n) < 3 * sigma

    def test_single_row(self, log, schema):
        batch = sample_relaxed(log, 1, make_rng(4), schema)
        assert batch.size == 1
        assert batch.groups[0] == frozenset([0])

    def test_per_event_uniformity_chi_square(self, log, schema):
        rng = make_rng(5)
        draws = 100_000
        counts = np.zeros(len(log))
        idx = {id(e): i for i, e in enumerate(log)}
        for _ in range(draws // 100):
            batch = sample_relaxed(log, 100, rng, schema)
            for e in batch.events:
                counts[idx[id(e)]] += 1
        expected = draws / len(log)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = 11; 99.9th percentile ~ 31.3
        assert chi2 < 31.3


class TestGroupPositives:
    def test_direct_definition(self):
        events = [event("u1", "g1"), event("u2", "g1"), event("u3", "g2")]
        groups = group_positives(events)
        assert groups[0] == groups[1] == frozenset([0, 1])
        assert groups[2] == frozenset([2])

    def test_all_distinct(self, log):
        groups = group_positives(log[:4])
        assert all(len(g) == 1 for g in groups)

    def test_equivalence_relation(self, log, schema):
        rng = make_rng(6)
        for _ in range(20):
            batch = sample_relaxed(log, 10, rng, schema)
            groups = batch.groups
            for i, gi in enumerate(groups):
                assert i in gi  # reflexive
                for j in gi:
                    assert i in groups[j]  # symmetric
                    assert groups[j] == gi  # transitive via class equality


class TestBprNegative:
    def test_forced_choice(self, schema):
        observed = [event("u1", "g1", 0), event("u1", "g3", 1), event("u2", "g2", 2)]
        pair_index = PairIndex.from_log(observed)
        batch_events = [event("u1", "g1", 0), event("u2", "g2", 2), event("u1", "g3", 1)]
        from contextrec.sampling import _assemble

        batch = _assemble(batch_events, schema)
        # for row 0 (context u1): g2 is the only item unobserved with u1
        for seed in range(10):
            assert bpr_negative(batch, 0, pair_index, make_rng(seed)) == 1

    def test_contract_never_observed(self, log, schema):
        pair_index = PairIndex.from_log(log[:8])
        rng = make_rng(7)
        from contextrec.sampling import _assemble

        for _ in range(50):
            batch = _assemble([log[i] for i in rng.integers(len(log), size=6)], schema)
            for i in range(batch.size):
                try:
                    j = bpr_negative(batch, i, pair_index, rng)
                except NoAdmissibleNegative:
                    continue
                ctx = batch.events[i].context_key()
                item = batch.events[j].item_key()
                assert not pair_index.contains(ctx, item)
                assert item != batch.events[i].item_key()

    def test_uniform_over_admissible(self, schema):
        observed = [event("u1", "g1", 0)]
        pair_index = PairIndex.from_log(observed)
        from contextrec.sampling import _assemble

        batch = _assemble(
            [event("u1", "g1", 0), event("u2", "g2", 1), event("u3", "g3", 2), event("u4", "g4", 3)],
            schema,
        )
        rng = make_rng(8)
        counts = {1: 0, 2: 0, 3: 0}
        draws = 10_000
        for _ in range(draws):
            counts[bpr_negative(batch, 0, pair_index, rng)] += 1
        for c in counts.values():
            assert abs(c / draws - 1 / 3) < 0.02

    def test_no_admissible_raises(self, schema):
        observed = [event("u1", "g1", 0), event("u1", "g2", 1)]
        pair_index = PairIndex.from_log(observed)
        from contextrec.sampling import _assemble

        batch = _assemble([event("u1", "g1", 0), event("u1", "g2", 1)], schema)
        with pytest.raises(NoAdmissibleNegative):
            bpr_negative(batch, 0, pair_index, make_rng(9))


def test_samplers_deterministic(log, schema):
    b1 = sample_relaxed(log, 8, make_rng(42), schema)
    b2 = sample_relaxed(log, 8, make_rng(42), schema)
    assert [e.item_attributes for e in b1.events] == [e.item_attributes for e in b2.events]
    s1 = sample_npairs(log, 4, make_rng(42), schema)
    s2 = sample_npairs(log, 4, make_rng(42), schema)
    assert [e.context_attributes for e in s1.events] == [e.context_attributes for e in s2.events]
