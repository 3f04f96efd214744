import numpy as np
import pytest

from contextrec.features import (
    SchemaError,
    ViewingEvent,
    build_schema,
    vectorize_context,
    vectorize_item,
)


def make_event(ctx, item=None, t=0.0):
    return ViewingEvent(
        item_attributes=item or {"genre": "g1"},
        context_attributes=ctx,
        timestamp=t,
        duration_min=10.0,
    )


@pytest.fixture
def small_log():
    return [
        make_event({"user": "u2", "age": 10.0, "viewers": ("u2",)}),
        make_event({"user": "u1", "age": 40.0, "viewers": ("u1", "u3")}, item={"genre": "g2"}),
        make_event({"user": "u3", "age": 25.0, "viewers": ("u4",)}),
    ]


class TestBuildSchema:
    def test_vocabulary_sorted(self, small_log):
        schema = build_schema(small_log)
        user = next(s for s in schema.context_specs if s.name == "user")
        assert user.vocabulary == ("u1", "u2", "u3")

    def test_numeric_extremes(self, small_log):
        schema = build_schema(small_log)
        age = next(s for s in schema.context_specs if s.name == "age")
        assert (age.min, age.max) == (10.0, 40.0)

    def test_deterministic(self, small_log):
        assert build_schema(small_log) == build_schema(small_log)

    def test_empty_log_rejected(self):
        with pytest.raises(SchemaError):
            build_schema([])

    def test_constant_numeric_rejected(self):
        log = [make_event({"age": 5.0}), make_event({"age": 5.0})]
        with pytest.raises(SchemaError):
            build_schema(log)

    @pytest.mark.parametrize("values", [(1.0, "z"), ("z", 1.0), (("a",), "b"), ("b", 2)])
    def test_mixed_kinds_rejected(self, values):
        log = [make_event({"x": v}, t=float(i)) for i, v in enumerate(values)]
        with pytest.raises(SchemaError, match="'x' mixes value kinds"):
            build_schema(log)


class TestVectorize:
    def test_one_hot(self, small_log):
        schema = build_schema(small_log)
        v = vectorize_context(make_event({"user": "u2", "age": 10.0, "viewers": ("u2",)}), schema)
        # blocks in sorted name order: age, user, viewers
        user_block = v[1:4]
        assert np.array_equal(user_block, [0.0, 1.0, 0.0])

    def test_multi_hot_l1_normalized(self):
        log = [make_event({"viewers": (f"u{i}",)}) for i in range(1, 5)]
        schema = build_schema(log)
        v = vectorize_context(make_event({"viewers": ("u1", "u2")}), schema)
        assert np.array_equal(v, [0.5, 0.5, 0.0, 0.0])
        assert v.sum() == 1.0

    def test_numeric_clamped(self):
        log = [make_event({"age": 10.0}), make_event({"age": 20.0})]
        schema = build_schema(log)
        assert vectorize_context(make_event({"age": 25.0}), schema)[0] == 1.0
        assert vectorize_context(make_event({"age": 5.0}), schema)[0] == 0.0
        assert vectorize_context(make_event({"age": 15.0}), schema)[0] == 0.5

    def test_out_of_vocabulary_is_zero_block(self, small_log):
        schema = build_schema(small_log)
        v = vectorize_context(make_event({"user": "unknown", "age": 20.0, "viewers": ("zz",)}), schema)
        assert np.all(v[1:4] == 0.0)  # user block
        assert np.all(v[4:] == 0.0)  # viewers block

    def test_item_one_hot_and_oov(self, small_log):
        schema = build_schema(small_log)
        assert np.array_equal(vectorize_item({"genre": "g2"}, schema), [0.0, 1.0])
        assert np.array_equal(vectorize_item({"genre": "nope"}, schema), [0.0, 0.0])

    def test_identical_items_identical_vectors(self, small_log):
        schema = build_schema(small_log)
        a = vectorize_item({"genre": "g1"}, schema)
        b = vectorize_item({"genre": "g1"}, schema)
        assert np.array_equal(a, b)

    def test_unknown_attribute_name_rejected(self, small_log):
        schema = build_schema(small_log)
        with pytest.raises(SchemaError):
            vectorize_context(make_event({"bogus": "x"}), schema)


class TestInvariants:
    def test_width_stability(self, small_log):
        schema = build_schema(small_log)
        widths = {vectorize_context(e, schema).shape[0] for e in small_log}
        assert widths == {schema.context_width}

    def test_block_locality(self, small_log):
        schema = build_schema(small_log)
        base = {"user": "u1", "age": 20.0, "viewers": ("u1",)}
        v1 = vectorize_context(make_event(base), schema)
        v2 = vectorize_context(make_event({**base, "user": "u2"}), schema)
        diff = np.nonzero(v1 != v2)[0]
        assert set(diff) <= {1, 2, 3}  # only the user block moves

    def test_multi_hot_sums(self, small_log):
        schema = build_schema(small_log)
        viewers = next(s for s in schema.context_specs if s.name == "viewers")
        start = sum(s.width for s in schema.context_specs if s.name < "viewers")
        in_vocab = vectorize_context(
            make_event({"viewers": ("u1", "u2", "zz")}), schema
        )[start : start + viewers.width]
        assert in_vocab.sum() == pytest.approx(1.0)
        all_oov = vectorize_context(make_event({"viewers": ("zz",)}), schema)[
            start : start + viewers.width
        ]
        assert all_oov.sum() == 0.0
