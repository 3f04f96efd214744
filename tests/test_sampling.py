import numpy as np
import pytest

from contextrec.datagen import GeneratorConfig, generate
from contextrec.features import ViewingEvent, build_schema, context_ids, item_ids
from contextrec.nn_core import make_rng
from contextrec.sampling import (
    NoAdmissibleNegative,
    PairIndex,
    SamplingError,
    _assemble,
    bpr_negative,
    content_pools,
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


def relaxed(log, n, rng, schema):
    """sample_relaxed over the log's own item ids, as train() draws rjcce batches."""
    return sample_relaxed(log, n, rng, schema, item_ids(log)[0])


def strict(log, n, rng, schema):
    """sample_npairs over the log's own content pools, as train() draws jcce batches."""
    iids = item_ids(log)[0]
    return sample_npairs(log, content_pools(iids), n, rng, schema, iids)


def events_of(split, batch):
    """The batch's events: the rows it holds of its split."""
    return [split[i] for i in batch.rows.tolist()]


def index_and_batch(observed, batch_events, schema):
    """The PairIndex of `observed` and the batch of every row of the split
    `batch_events`, their ids keyed in one pass over both, as train() keys
    its fit and validation splits."""
    iids, keys = item_ids(observed + batch_events)
    cids = context_ids(observed + batch_events)
    k = len(observed)
    pair_index = PairIndex.from_log(cids[:k], iids[:k], len(keys))
    rows = np.arange(len(batch_events))
    return pair_index, _assemble(batch_events, rows, schema, iids[k:], cids[k:])


class TestSampleNpairs:
    def test_all_contents_once(self, log, schema):
        rng = make_rng(0)
        batch = strict(log, 4, rng, schema)
        genres = [e.item_attributes["genre"] for e in events_of(log, batch)]
        assert sorted(genres) == ["g1", "g2", "g3", "g4"]

    def test_groups_all_singletons(self, log, schema):
        rng = make_rng(1)
        batch = strict(log, 3, rng, schema)
        assert all(len(g) == 1 for g in batch.groups)
        assert batch.item_ids.tolist() == item_ids(log)[0][batch.rows].tolist()

    def test_content_frequency_uniform(self, schema, log):
        # N = 2 of M = 4 contents: each appears with probability 1/2
        rng = make_rng(2)
        counts = {g: 0 for g in ("g1", "g2", "g3", "g4")}
        draws = 10_000
        for _ in range(draws):
            batch = strict(log, 2, rng, schema)
            for e in events_of(log, batch):
                counts[e.item_attributes["genre"]] += 1
        for c in counts.values():
            assert abs(c / draws - 0.5) < 0.02

    def test_too_many_contents_rejected(self, log, schema):
        with pytest.raises(SamplingError):
            strict(log, 5, make_rng(0), schema)


class TestContentPools:
    def test_sorted_by_content_in_log_order(self, log):
        pools = content_pools(item_ids(log)[0])
        assert [log[p[0]].item_attributes["genre"] for p in pools] == ["g1", "g2", "g3", "g4"]
        for pool in pools:
            assert pool.dtype == np.intp
            assert pool.tolist() == sorted(pool.tolist())
            assert len({log[i].item_key() for i in pool.tolist()}) == 1
        assert sorted(np.concatenate(pools).tolist()) == list(range(len(log)))
        assert content_pools(np.zeros(0, dtype=np.intp)) == []

    def test_changed_log_is_reflected(self, log, schema):
        assert len(content_pools(item_ids(log)[0])) == 4
        log[0] = event("u1", "g5")
        iids = item_ids(log)[0]
        pools = content_pools(iids)
        assert [log[p[0]].item_attributes["genre"] for p in pools] == ["g1", "g2", "g3", "g4", "g5"]
        assert len(pools[0]) == 2
        batch = sample_npairs(log, pools, 5, make_rng(0), schema, iids)
        genres = [e.item_attributes["genre"] for e in events_of(log, batch)]
        assert sorted(genres) == ["g1", "g2", "g3", "g4", "g5"]
        log.append(event("u1", "g6"))
        assert strict(log, 6, make_rng(0), schema).size == 6

    def test_split_pools_hold_the_ids_present(self, log, schema):
        # ids keyed over a whole log, pooled over one split that lacks some
        # contents, as train() pools its fit split
        iids = item_ids(log + [event("u1", "g0"), event("u1", "g9")])[0]
        split, split_iids = log[:6], iids[:6]  # g1..g4, then g1, g2 again
        pools = content_pools(split_iids)
        assert [split_iids[p[0]] for p in pools] == [1, 2, 3, 4]  # g0 is id 0, g9 id 5
        assert [p.tolist() for p in pools] == [[0, 4], [1, 5], [2], [3]]
        batch = sample_npairs(split, pools, 4, make_rng(0), schema, split_iids)
        assert sorted(batch.item_ids.tolist()) == [1, 2, 3, 4]


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
            batch = relaxed(events, n, rng, sch)
            total_g1 += sum(e.item_attributes["genre"] == "g1" for e in events_of(events, batch))
        mean = total_g1 / draws
        sigma = np.sqrt(n * 0.9 * 0.1)
        assert abs(mean - 0.9 * n) < 3 * sigma

    def test_single_row(self, log, schema):
        batch = relaxed(log, 1, make_rng(4), schema)
        assert batch.size == 1
        assert batch.groups[0] == frozenset([0])

    def test_rows_carry_the_split_ids(self, log, schema):
        iids, cids = item_ids(log)[0], context_ids(log)
        rng, again = make_rng(12), make_rng(12)
        batch = sample_relaxed(log, 9, rng, schema, iids, cids)
        rows = again.integers(len(log), size=9)
        assert batch.rows.tolist() == rows.tolist()
        assert batch.item_ids.tolist() == iids[rows].tolist()
        assert batch.context_ids.tolist() == cids[rows].tolist()
        assert sample_relaxed(log, 9, make_rng(12), schema, iids).context_ids is None

    def test_per_event_uniformity_chi_square(self, log, schema):
        rng = make_rng(5)
        draws = 100_000
        counts = np.zeros(len(log))
        idx = {id(e): i for i, e in enumerate(log)}
        for _ in range(draws // 100):
            batch = relaxed(log, 100, rng, schema)
            for e in events_of(log, batch):
                counts[idx[id(e)]] += 1
        expected = draws / len(log)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = 11; 99.9th percentile ~ 31.3
        assert chi2 < 31.3


class TestGroupPositives:
    def test_direct_definition(self):
        events = [event("u1", "g1"), event("u2", "g1"), event("u3", "g2")]
        groups = group_positives(item_ids(events)[0])
        assert groups[0] == groups[1] == frozenset([0, 1])
        assert groups[2] == frozenset([2])

    def test_all_distinct(self, log):
        groups = group_positives(item_ids(log[:4])[0])
        assert all(len(g) == 1 for g in groups)

    def test_equivalence_relation(self, log, schema):
        rng = make_rng(6)
        for _ in range(20):
            batch = relaxed(log, 10, rng, schema)
            groups = batch.groups
            for i, gi in enumerate(groups):
                assert i in gi  # reflexive
                for j in gi:
                    assert i in groups[j]  # symmetric
                    assert groups[j] == gi  # transitive via class equality


def oracle_bpr_negatives(batch, split, observed_log, rng):
    """Reference: the row-by-row draw over a frozenset of key pairs, keyed
    from the batch's rows of its split.

    Returns (negatives, None) when every row has an admissible negative,
    else (negatives drawn so far, index of the first row without one).
    """
    observed = frozenset((e.context_key(), e.item_key()) for e in observed_log)
    events = [split[i] for i in batch.rows]
    item_keys = [e.item_key() for e in events]
    negatives = []
    for i, e in enumerate(events):
        ctx = e.context_key()
        admissible = [
            j for j, k in enumerate(item_keys) if k != item_keys[i] and (ctx, k) not in observed
        ]
        if not admissible:
            return negatives, i
        negatives.append(admissible[rng.integers(len(admissible))])
    return negatives, None


class TestBprNegative:
    def test_forced_choice(self, schema):
        observed = [event("u1", "g1", 0), event("u1", "g3", 1), event("u2", "g2", 2)]
        batch_events = [event("u1", "g1", 0), event("u2", "g2", 2), event("u1", "g3", 1)]
        pair_index, batch = index_and_batch(observed, batch_events, schema)
        # for row 0 (context u1): g2 is the only item unobserved with u1
        for seed in range(10):
            assert bpr_negative(batch, pair_index, make_rng(seed))[0] == 1

    def test_contract_never_observed(self, log, schema):
        rng = make_rng(7)
        checked = 0
        for _ in range(50):
            batch_events = [log[i] for i in rng.integers(len(log), size=6)]
            pair_index, batch = index_and_batch(log[:3], batch_events, schema)
            try:
                negatives = bpr_negative(batch, pair_index, rng)
            except NoAdmissibleNegative:
                continue
            assert negatives.dtype == np.intp and negatives.shape == (batch.size,)
            observed = {(e.context_key(), e.item_key()) for e in log[:3]}
            for i, j in enumerate(negatives):
                ctx = batch_events[i].context_key()
                item = batch_events[j].item_key()
                assert (ctx, item) not in observed
                assert item != batch_events[i].item_key()
                checked += 1
        assert checked > 0

    def test_uniform_over_admissible(self, schema):
        observed = [event("u1", "g1", 0)]
        pair_index, batch = index_and_batch(
            observed,
            [event("u1", "g1", 0), event("u2", "g2", 1), event("u3", "g3", 2), event("u4", "g4", 3)],
            schema,
        )
        rng = make_rng(8)
        counts = {1: 0, 2: 0, 3: 0}
        draws = 10_000
        for _ in range(draws):
            counts[bpr_negative(batch, pair_index, rng)[0]] += 1
        for c in counts.values():
            assert abs(c / draws - 1 / 3) < 0.02

    def test_no_admissible_raises(self, schema):
        observed = [event("u1", "g1", 0), event("u1", "g2", 1)]
        pair_index, batch = index_and_batch(
            observed, [event("u1", "g1", 0), event("u1", "g2", 1)], schema
        )
        with pytest.raises(NoAdmissibleNegative):
            bpr_negative(batch, pair_index, make_rng(9))

    def assert_matches_oracle(self, batch_events, observed_log, schema, seed):
        pair_index, batch = index_and_batch(observed_log, batch_events, schema)
        expected_rng, rng = make_rng(seed), make_rng(seed)
        expected, empty_row = oracle_bpr_negatives(batch, batch_events, observed_log, expected_rng)
        if empty_row is None:
            negatives = bpr_negative(batch, pair_index, rng)
            assert negatives.dtype == np.intp
            assert negatives.tolist() == expected
        else:
            with pytest.raises(NoAdmissibleNegative, match=f"row {empty_row} "):
                bpr_negative(batch, pair_index, rng)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        return empty_row

    def test_matches_row_by_row_oracle(self, log, schema):
        # prefixes of the log leave some contexts with every item observed,
        # so some batches have rows without an admissible negative
        batch_rng = make_rng(10)
        empty_rows = []
        for seed in range(300):
            size = int(batch_rng.integers(2, 9))
            batch_events = [log[i] for i in batch_rng.integers(len(log), size=size)]
            prefix = int(batch_rng.integers(len(log) + 1))
            empty_rows.append(self.assert_matches_oracle(batch_events, log[:prefix], schema, seed))
        assert None in empty_rows and 0 in empty_rows
        assert any(r is not None and r > 0 for r in empty_rows)

    def test_first_empty_row_not_row_zero(self, log, schema):
        # log[:8] observes u1 and u2 with every genre; u3 with none
        batch_events = [event("u3", "g1"), event("u3", "g2"), event("u1", "g3")]
        for seed in range(5):
            assert self.assert_matches_oracle(batch_events, log[:8], schema, seed) == 2

    def test_validation_split_matches_oracle(self):
        # a generated log cut into fit and validation splits, as train() cuts
        # it; validation events are joined by ones whose context recurs in
        # the fit split with another item (an equal dict, its viewer tuple
        # reversed), so recurring and never-seen contexts both occur
        log = generate(GeneratorConfig(n_weeks=1, events_per_day=40, n_genres=6, seed=3))
        cut = int(0.8 * len(log))
        fit, val = log[:cut], log[cut:]
        genres = sorted({e.item_attributes["genre"] for e in log})
        rng = make_rng(11)
        for i in rng.integers(cut, size=len(val)).tolist():
            ctx = dict(fit[i].context_attributes)
            ctx["viewer_ids"] = tuple(reversed(ctx["viewer_ids"]))
            other = genres[(genres.index(fit[i].item_attributes["genre"]) + 1) % len(genres)]
            val.append(ViewingEvent({"genre": other}, ctx, 0.0, 10.0))
        schema = build_schema(fit)
        fit_keys = {e.context_key() for e in fit}
        recurring = unseen = 0
        for seed in range(200):
            batch_events = [val[i] for i in rng.integers(len(val), size=8)]
            recurring += sum(e.context_key() in fit_keys for e in batch_events)
            unseen += sum(e.context_key() not in fit_keys for e in batch_events)
            self.assert_matches_oracle(batch_events, fit, schema, seed)
        assert recurring > 100 and unseen > 100


class TestPairIndexObserved:
    def test_unknown_keys_never_observed(self):
        # one id space over the log and the probes: u1 -> 0, u2 -> 1, u9 -> 2;
        # g1 -> 0, g2 -> 1, g9 -> 2; the index holds the first three events
        events = [event("u1", "g1"), event("u1", "g2"), event("u2", "g1")]
        events += [event("u9", "g9")]
        iids, keys = item_ids(events)
        cids = context_ids(events)
        pair_index = PairIndex.from_log(cids[:3], iids[:3], len(keys))
        contexts, items = np.array([0, 1, 2]), np.array([0, 1, 2])
        expected = [[True, True, False], [True, False, False], [False, False, False]]
        assert pair_index.observed(contexts, items).tolist() == expected

    def test_empty_index(self):
        empty = np.zeros(0, dtype=np.intp)
        pair_index = PairIndex.from_log(empty, empty, 1)
        assert pair_index.observed(np.array([0]), np.array([0])).tolist() == [[False]]

    @pytest.mark.parametrize("n_events", [0, 1, 2, 500])
    def test_codes_are_np_unique_of_the_pair_codes(self, n_events):
        # the sort and run-start build against np.unique, bit for bit
        rng = make_rng(n_events)
        cids, iids = rng.integers(40, size=n_events), rng.integers(7, size=n_events)
        before = cids.tobytes(), iids.tobytes()
        codes = PairIndex.from_log(cids, iids, 7).codes
        want = np.unique(cids.astype(np.int64) * 7 + iids)
        assert codes.dtype == want.dtype and codes.tobytes() == want.tobytes()
        assert (cids.tobytes(), iids.tobytes()) == before


def test_samplers_deterministic(log, schema):
    b1 = relaxed(log, 8, make_rng(42), schema)
    b2 = relaxed(log, 8, make_rng(42), schema)
    assert b1.rows.tolist() == b2.rows.tolist()
    s1 = strict(log, 4, make_rng(42), schema)
    s2 = strict(log, 4, make_rng(42), schema)
    assert s1.rows.tolist() == s2.rows.tolist()
