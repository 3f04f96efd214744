import copy
import pickle
import weakref
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextrec import features
from contextrec.datagen import filter_log
from contextrec.features import (
    KIND_MULTI,
    KIND_NUMERIC,
    KIND_SINGLE,
    FeatureSchema,
    FeatureSpec,
    SchemaError,
    ViewingEvent,
    _infer_kind,
    _sorted_multi_values,
    build_schema,
    canonical_key,
    context_ids,
    item_ids,
    universe_indices,
    vectorize_context,
    vectorize_item,
)
from contextrec.model import catalog_from_log
from contextrec.nn_core import Cells
from contextrec.sampling import content_pools


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

    @pytest.mark.parametrize("ctx, item, part",
                             [({}, {"genre": "g1"}, "context"), ({"user": "u1"}, {}, "item")])
    def test_zero_width_part_rejected(self, ctx, item, part):
        # an encoder needs at least one input column
        with pytest.raises(SchemaError, match=f"^the {part} input is 0 wide"):
            build_schema([ViewingEvent(item, ctx, 0.0, 1.0)])

    def test_constant_numeric_rejected(self):
        log = [make_event({"age": 5.0}), make_event({"age": 5.0})]
        with pytest.raises(SchemaError):
            build_schema(log)

    @pytest.mark.parametrize("values", [(1.0, "z"), ("z", 1.0), (("a",), "b"), ("b", 2)])
    def test_mixed_kinds_rejected(self, values):
        log = [make_event({"x": v}, t=float(i)) for i, v in enumerate(values)]
        with pytest.raises(SchemaError, match="'x' mixes value kinds"):
            build_schema(log)


class TestFeatureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=KIND_SINGLE, vocabulary=("a", "b")),
            dict(kind=KIND_MULTI, vocabulary=()),
            dict(kind=KIND_NUMERIC, min=-1, max=2.5),
        ],
    )
    def test_valid_specs_accepted(self, kwargs):
        FeatureSpec("x", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="mystery"), "feature 'x' has unknown kind 'mystery'"),
            (dict(kind=KIND_SINGLE, vocabulary=("b", "a")), "distinct strings in sorted order"),
            (dict(kind=KIND_MULTI, vocabulary=("a", "a")), "distinct strings in sorted order"),
            (dict(kind=KIND_SINGLE, vocabulary=("1", 2)), "distinct strings in sorted order"),
            (dict(kind=KIND_SINGLE, vocabulary="ab"), "distinct strings in sorted order"),
            (dict(kind=KIND_SINGLE, vocabulary=["a", "b"]), "distinct strings in sorted order"),
            (dict(kind=KIND_NUMERIC, min=1.0, max=1.0), "needs finite min < max, got 1.0 and 1.0"),
            (dict(kind=KIND_NUMERIC, min=2.0, max=1.0), "needs finite min < max"),
            (dict(kind=KIND_NUMERIC, min=float("nan"), max=1.0), "needs finite min < max"),
            (dict(kind=KIND_NUMERIC, min=0.0, max=float("inf")), "needs finite min < max"),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs, message):
        with pytest.raises(SchemaError, match=message):
            FeatureSpec("x", **kwargs)


def column_by_column_specs(rows: list[dict]) -> tuple:
    """Reference: the specs built with one pass over the rows per name."""
    names = sorted({n for row in rows for n in row})
    specs = []
    for name in names:
        values = [row[name] for row in rows if name in row]
        kinds = {_infer_kind(t) for t in set(map(type, values))}
        if len(kinds) > 1:
            raise SchemaError(f"feature {name!r} mixes value kinds {sorted(kinds)}")
        kind = kinds.pop()
        if kind == KIND_NUMERIC:
            lo = float(min(values))
            hi = float(max(values))
            if lo == hi:
                raise SchemaError(f"numeric feature {name!r} is constant ({lo})")
            specs.append(FeatureSpec(name, kind, min=lo, max=hi))
        elif kind == KIND_MULTI:
            vocab = sorted({str(v) for vs in values for v in vs})
            if not vocab:
                raise SchemaError(f"multi-valued feature {name!r} has empty vocabulary")
            specs.append(FeatureSpec(name, kind, vocabulary=tuple(vocab)))
        else:
            vocab = sorted({str(v) for v in values})
            specs.append(FeatureSpec(name, kind, vocabulary=tuple(vocab)))
    return tuple(specs)


def schema_or_error(build, log):
    """The schema, or the SchemaError's message, as a repr (so -0.0 shows)."""
    try:
        return repr(build(log))
    except SchemaError as exc:
        return f"SchemaError: {exc}"


SCHEMA_NAMES = st.sampled_from(["a", "b", "c", "d"])
SCHEMA_STRINGS = st.sampled_from(["x", "y", "z", "10"])
SCHEMA_MULTI = st.lists(SCHEMA_STRINGS | st.integers(0, 3), max_size=3)
SCHEMA_VALUES = (
    SCHEMA_STRINGS
    | st.booleans()
    | st.none()
    | st.integers(-2, 2)
    | st.sampled_from([0.0, -0.0, 1.5, -7.25, 10.0])
    | SCHEMA_MULTI
    | SCHEMA_MULTI.map(tuple)
)
# logs of mixed rows raise SchemaError often; logs of one-kind-per-name rows
# mostly build
MIXED_ROWS = st.dictionaries(SCHEMA_NAMES, SCHEMA_VALUES, max_size=4)
ONE_KIND_ROWS = st.fixed_dictionaries(
    {},
    optional={
        "a": SCHEMA_STRINGS | st.booleans() | st.none(),
        "b": st.integers(-2, 2) | st.sampled_from([0.0, -0.0, 1.5, -7.25, 10.0]),
        "c": SCHEMA_MULTI,
        "d": SCHEMA_MULTI.map(tuple),
    },
)
SCHEMA_LOGS = st.sampled_from([MIXED_ROWS, ONE_KIND_ROWS]).flatmap(
    lambda rows: st.lists(st.tuples(rows, rows), min_size=1, max_size=8)
)


class TestSchemaProperties:
    @settings(deadline=None, max_examples=300)
    @given(SCHEMA_LOGS)
    def test_equals_column_by_column_reference(self, pairs):
        log = [
            ViewingEvent(item_attributes=item, context_attributes=ctx, timestamp=0.0,
                         duration_min=1.0)
            for ctx, item in pairs
        ]

        def reference(log):
            return FeatureSchema(
                context_specs=column_by_column_specs([e.context_attributes for e in log]),
                item_specs=column_by_column_specs([e.item_attributes for e in log]),
            )

        assert schema_or_error(build_schema, log) == schema_or_error(reference, log)

    def test_mixed_kind_error_names_first_attribute(self):
        log = [make_event({"b": 1.0, "a": "x"}), make_event({"b": "y", "a": 2})]
        with pytest.raises(SchemaError, match=r"^feature 'a' mixes value kinds"):
            build_schema(log)


class TestViewingEvent:
    def event(self):
        return ViewingEvent({"genre": "g"}, {"viewers": ("u1", "u2"), "age": -0.0}, 5.0, 10.0)

    def test_slotted_and_weakly_referenceable(self):
        e = self.event()
        assert not hasattr(e, "__dict__")
        assert weakref.ref(e)() is e

    def test_assignment_rejected(self):
        e = self.event()
        with pytest.raises(FrozenInstanceError):
            e.timestamp = 1.0
        with pytest.raises(FrozenInstanceError):
            e.extra = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        e = self.event()
        back = pickle.loads(pickle.dumps(e, protocol))
        assert type(back) is ViewingEvent and back == e
        assert repr(back) == repr(e)

    def test_deepcopy_round_trip(self):
        e = self.event()
        twin = copy.deepcopy(e)
        assert twin == e and repr(twin) == repr(e)
        assert twin.context_attributes is not e.context_attributes


class TestVectorize:
    def test_one_hot(self, small_log):
        schema = build_schema(small_log)
        v = vectorize_context([make_event({"user": "u2", "age": 10.0, "viewers": ("u2",)})], schema)[0]
        # blocks in sorted name order: age, user, viewers
        user_block = v[1:4]
        assert np.array_equal(user_block, [0.0, 1.0, 0.0])

    def test_multi_hot_l1_normalized(self):
        log = [make_event({"viewers": (f"u{i}",)}) for i in range(1, 5)]
        schema = build_schema(log)
        v = vectorize_context([make_event({"viewers": ("u1", "u2")})], schema)[0]
        assert np.array_equal(v, [0.5, 0.5, 0.0, 0.0])
        assert v.sum() == 1.0

    def test_numeric_clamped(self):
        log = [make_event({"age": 10.0}), make_event({"age": 20.0})]
        schema = build_schema(log)
        assert vectorize_context([make_event({"age": 25.0})], schema)[0, 0] == 1.0
        assert vectorize_context([make_event({"age": 5.0})], schema)[0, 0] == 0.0
        assert vectorize_context([make_event({"age": 15.0})], schema)[0, 0] == 0.5

    def test_out_of_vocabulary_is_zero_block(self, small_log):
        schema = build_schema(small_log)
        v = vectorize_context([make_event({"user": "unknown", "age": 20.0, "viewers": ("zz",)})], schema)[0]
        assert np.all(v[1:4] == 0.0)  # user block
        assert np.all(v[4:] == 0.0)  # viewers block

    def test_item_one_hot_and_oov(self, small_log):
        schema = build_schema(small_log)
        assert np.array_equal(vectorize_item([{"genre": "g2"}], schema)[0], [0.0, 1.0])
        assert np.array_equal(vectorize_item([{"genre": "nope"}], schema)[0], [0.0, 0.0])

    def test_identical_items_identical_vectors(self, small_log):
        schema = build_schema(small_log)
        a = vectorize_item([{"genre": "g1"}], schema)[0]
        b = vectorize_item([{"genre": "g1"}], schema)[0]
        assert np.array_equal(a, b)

    def test_unknown_attribute_name_rejected(self, small_log):
        schema = build_schema(small_log)
        with pytest.raises(SchemaError):
            vectorize_context([make_event({"bogus": "x"})], schema)


class TestInvariants:
    def test_width_stability(self, small_log):
        schema = build_schema(small_log)
        widths = {vectorize_context([e], schema).shape for e in small_log}
        assert widths == {(1, schema.context_width)}

    def test_block_locality(self, small_log):
        schema = build_schema(small_log)
        base = {"user": "u1", "age": 20.0, "viewers": ("u1",)}
        v1 = vectorize_context([make_event(base)], schema)[0]
        v2 = vectorize_context([make_event({**base, "user": "u2"})], schema)[0]
        diff = np.nonzero(v1 != v2)[0]
        assert set(diff) <= {1, 2, 3}  # only the user block moves

    def test_multi_hot_sums(self, small_log):
        schema = build_schema(small_log)
        viewers = next(s for s in schema.context_specs if s.name == "viewers")
        start = sum(s.width for s in schema.context_specs if s.name < "viewers")
        in_vocab = vectorize_context(
            [make_event({"viewers": ("u1", "u2", "zz")})], schema
        )[0, start : start + viewers.width]
        assert in_vocab.sum() == pytest.approx(1.0)
        all_oov = vectorize_context([make_event({"viewers": ("zz",)})], schema)[
            0, start : start + viewers.width
        ]
        assert all_oov.sum() == 0.0


TOKENS = st.sampled_from(["a", "b", "c", "d", "zz"])
ATTRS = st.fixed_dictionaries(
    {},
    optional={
        "user": TOKENS,
        "viewers": st.lists(TOKENS, max_size=4).map(lambda v: tuple(sorted(v))),
        "age": st.floats(-50.0, 150.0, allow_nan=False),
    },
)


def _twin_event(attrs):
    """An event whose context and item carry the same attributes."""
    return ViewingEvent(
        item_attributes=attrs, context_attributes=attrs, timestamp=0.0, duration_min=10.0
    )


@st.composite
def schema_and_batch(draw):
    """A schema learned from a drawn log (every kind present, "zz" seen only
    by chance) and a batch drawn from the same attribute space, with
    out-of-vocabulary values, missing attributes and out-of-range numbers."""
    rows = draw(st.lists(ATTRS, max_size=6)) + [
        {"user": "a", "viewers": ("b",), "age": 0.0},
        {"age": 100.0},
    ]
    schema = build_schema([_twin_event(r) for r in rows])
    return schema, [_twin_event(r) for r in draw(st.lists(ATTRS, min_size=1, max_size=8))]


class TestVectorizeProperties:
    @settings(deadline=None)
    @given(schema_and_batch())
    def test_batch_equals_rows_one_at_a_time(self, case):
        schema, batch = case
        rows = np.stack([vectorize_context([e], schema)[0] for e in batch])
        assert vectorize_context(batch, schema).tobytes() == rows.tobytes()
        items = [e.item_attributes for e in batch]
        rows = np.stack([vectorize_item([it], schema)[0] for it in items])
        assert vectorize_item(items, schema).tobytes() == rows.tobytes()

    @settings(deadline=None)
    @given(schema_and_batch())
    def test_blocks_on_simplex_and_numerics_in_unit_interval(self, case):
        schema, batch = case
        matrix = vectorize_context(batch, schema)
        assert matrix.shape == (len(batch), schema.context_width)
        start = 0
        for spec in schema.context_specs:
            block = matrix[:, start : start + spec.width]
            start += spec.width
            if spec.kind == "numeric":
                assert np.all((block >= 0.0) & (block <= 1.0))
                continue
            for e, row in zip(batch, block):
                raw = e.context_attributes.get(spec.name, ())
                values = raw if isinstance(raw, tuple) else (raw,)
                hits = {spec.vocabulary.index(v) for v in values if v in spec.vocabulary}
                assert set(np.flatnonzero(row)) == hits
                if hits:
                    assert len(set(row[list(hits)])) == 1
                    assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None)
    @given(schema_and_batch())
    def test_cells_hold_the_dense_matrix(self, case):
        # above SPARSE_WIDTH the same cells come back sorted, never densified
        schema, batch = case
        dense = vectorize_context(batch, schema)
        with mock.patch.object(features, "SPARSE_WIDTH", 1):
            cells = vectorize_context(batch, schema)
        assert isinstance(cells, Cells) and cells.shape == dense.shape
        keys = cells.rows * dense.shape[1] + cells.cols
        assert np.all(keys[1:] > keys[:-1])
        rebuilt = np.zeros(dense.shape)
        rebuilt[cells.rows, cells.cols] = cells.values
        assert rebuilt.tobytes() == dense.tobytes()

    @settings(deadline=None)
    @given(schema_and_batch(), st.data())
    def test_unknown_attribute_anywhere_rejected(self, case, data):
        schema, batch = case
        i = data.draw(st.integers(0, len(batch) - 1))
        batch[i] = make_event({**batch[i].context_attributes, "bogus": "x"})
        with pytest.raises(SchemaError, match="bogus"):
            vectorize_context(batch, schema)
        items = [e.item_attributes for e in batch]
        items[i] = {**items[i], "bogus": "x"}
        with pytest.raises(SchemaError, match="bogus"):
            vectorize_item(items, schema)


def previous_vectorize(rows: list[dict], specs: tuple) -> np.ndarray:
    """_vectorize before it checked value kinds: the reference for values
    of the right kind."""
    at_row, at_col, weight = [], [], []
    start = 0
    for spec in specs:
        pos = spec.positions
        for r, attrs in enumerate(rows):
            raw = attrs.get(spec.name)
            if raw is None:
                continue
            if spec.kind == KIND_MULTI:
                hits = {start + pos[v] for v in map(str, raw) if v in pos}
                at_row += [r] * len(hits)
                at_col += hits
                weight += [1.0 / max(len(hits), 1)] * len(hits)
                continue
            if spec.kind == KIND_NUMERIC:
                x = (float(raw) - spec.min) / (spec.max - spec.min)
                c, w = 0, min(max(x, 0.0), 1.0)
            else:
                c, w = pos.get(str(raw)), 1.0
                if c is None:
                    continue
            at_row.append(r)
            at_col.append(start + c)
            weight.append(w)
        start += spec.width
    out = np.zeros((len(rows), start))
    out[at_row, at_col] = weight
    return out


# Values of the right kind for ATTRS' schemas, in every form a caller may
# pass: None, ints and NumPy scalars for a numeric, numbers for a single
# value, lists for a multi-value
RIGHT_KIND_ATTRS = st.fixed_dictionaries(
    {},
    optional={
        "user": TOKENS | st.none() | st.integers(-3, 3) | st.floats(allow_nan=False),
        "viewers": st.none() | st.lists(TOKENS, max_size=4).flatmap(
            lambda v: st.sampled_from([v, tuple(v)])
        ),
        "age": st.none()
        | st.integers(-100, 200)
        | st.integers(-100, 200).map(np.int64)
        | st.floats(-50.0, 150.0, allow_nan=False)
        | st.floats(-50.0, 150.0, allow_nan=False).map(np.float32),
    },
)


class TestValueKinds:
    @settings(deadline=None, max_examples=300)
    @given(schema_and_batch(), st.lists(RIGHT_KIND_ATTRS, min_size=1, max_size=8))
    def test_right_kind_vectorizes_as_before(self, case, rows):
        schema, _ = case
        expected = previous_vectorize(rows, schema.context_specs)
        got = vectorize_context([make_event(r) for r in rows], schema)
        assert got.tobytes() == expected.tobytes()
        assert vectorize_item(rows, schema).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("age", "abc"),
            ("age", "15"),
            ("age", True),
            ("viewers", "u1"),
            ("viewers", 5),
            ("user", ["u1"]),
            ("user", ("u1", "u2")),
        ],
    )
    def test_wrong_kind_rejected_naming_the_attribute(self, small_log, name, value):
        schema = build_schema(small_log)
        ctx = {"user": "u1", "age": 20.0, "viewers": ("u1",), name: value}
        with pytest.raises(SchemaError, match=f"attribute '{name}' takes a"):
            vectorize_context([small_log[0], make_event(ctx)], schema)

    def test_none_is_a_zero_block(self, small_log):
        schema = build_schema(small_log)
        row = vectorize_context([make_event({"user": None, "age": None, "viewers": None})], schema)
        assert not row.any()


def column_specs(vocabulary: tuple) -> tuple:
    """A numeric, a single-valued and a multi-valued spec over vocabulary."""
    return (
        FeatureSpec("age", KIND_NUMERIC, min=0.0, max=100.0),
        FeatureSpec("user", KIND_SINGLE, vocabulary=vocabulary),
        FeatureSpec("viewers", KIND_MULTI, vocabulary=vocabulary),
    )


COLUMN_VOCABULARY = ("1", "2", "True", "a", "b", "c")
NARROW_SPECS = column_specs(COLUMN_VOCABULARY)
WIDE_SPECS = column_specs(
    tuple(sorted(COLUMN_VOCABULARY + tuple(f"w{i:04d}" for i in range(features.SPARSE_WIDTH))))
)
COLUMN_TOKENS = st.sampled_from(["a", "b", "c", "1", "w0007", "zz"])  # w0007: wide only
# Values of every form the column passes take (str, int and float, str
# tuples, None) and of every other form the row loop takes: non-str scalars
# of a single-valued attribute, NumPy numbers, lists, non-str elements
COLUMN_ROWS_ATTRS = st.fixed_dictionaries(
    {},
    optional={
        "age": st.none()
        | st.sampled_from([0.0, -0.0, 100.0, 0, 100, -5, 250, -7.5, 1e300])
        | st.floats(-50.0, 150.0, allow_nan=False)
        | st.integers(-100, 200)
        | st.integers(-100, 200).map(np.int64)
        | st.floats(-50.0, 150.0, allow_nan=False).map(np.float32),
        "user": COLUMN_TOKENS | st.none() | st.integers(0, 3) | st.booleans() | st.just(2.0),
        "viewers": st.none()
        | st.lists(COLUMN_TOKENS, max_size=4).map(tuple)
        | st.lists(COLUMN_TOKENS, max_size=3)
        | st.lists(COLUMN_TOKENS | st.integers(1, 2), max_size=3).map(tuple),
    },
)
WRONG_KINDS = st.sampled_from(
    [("age", "abc"), ("age", True), ("viewers", "a"), ("viewers", 5), ("user", ["a"]),
     ("user", ("a", "b"))]
)
COLUMN_BATCH_SIZES = st.sampled_from(
    [1, features.COLUMN_ROWS - 1, features.COLUMN_ROWS, 2 * features.COLUMN_ROWS + 1]
)


def column_batch(pool: list, n: int, seed: int) -> list:
    """n rows drawn from pool, the same dict objects repeated as a log's."""
    return [pool[i] for i in np.random.default_rng(seed).integers(len(pool), size=n)]


def row_by_row(rows: list, specs: tuple):
    """The one-row vectorizations of rows, stacked: a matrix, or the
    (rows, cols, values) of the cells."""
    parts = [features._vectorize([r], specs) for r in rows]
    if not isinstance(parts[0], Cells):
        return np.vstack(parts)
    return (np.concatenate([np.full(p.rows.size, i, dtype=np.intp) for i, p in enumerate(parts)]),
            np.concatenate([p.cols for p in parts]), np.concatenate([p.values for p in parts]))


class TestColumnPath:
    @settings(deadline=None, max_examples=120)
    @given(st.sampled_from([NARROW_SPECS, WIDE_SPECS]),
           st.lists(COLUMN_ROWS_ATTRS, min_size=1, max_size=6), COLUMN_BATCH_SIZES,
           st.integers(0, 2**16))
    @example(NARROW_SPECS, [{"age": -0.0, "user": "a", "viewers": ("a", "zz", "a")}, {}],
             features.COLUMN_ROWS, 0)
    @example(WIDE_SPECS, [{"age": 150, "user": "w0007", "viewers": ("b", "w0007")},
                          {"age": None, "user": None, "viewers": None}], features.COLUMN_ROWS, 0)
    def test_batch_bits_equal_one_row_calls(self, specs, pool, n, seed):
        rows = column_batch(pool, n, seed)
        got = features._vectorize(rows, specs)
        expected = row_by_row(rows, specs)
        if isinstance(got, Cells):
            assert specs is WIDE_SPECS and got.shape == (n, got.shape[1])
            for array, want in zip((got.rows, got.cols, got.values), expected):
                assert array.dtype == want.dtype and array.tobytes() == want.tobytes()
        else:
            assert specs is NARROW_SPECS and got.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([NARROW_SPECS, WIDE_SPECS]),
           st.lists(COLUMN_ROWS_ATTRS, min_size=1, max_size=6), COLUMN_BATCH_SIZES,
           st.integers(0, 2**16), WRONG_KINDS, st.integers(0, 2**16))
    @example(NARROW_SPECS, [{"age": 5.0, "user": "a", "viewers": ("a",)}], features.COLUMN_ROWS,
             0, ("age", True), 3)
    @example(WIDE_SPECS, [{"age": 5, "user": "b", "viewers": ("b", "zz")}], features.COLUMN_ROWS,
             0, ("viewers", "a"), 0)
    def test_wrong_kind_raises_the_one_row_error(self, specs, pool, n, seed, wrong, at):
        rows = column_batch(pool, n, seed)
        name, value = wrong
        rows[at % n] = {**rows[at % n], name: value}
        with pytest.raises(SchemaError, match=f"attribute '{name}' takes a") as one_row:
            features._vectorize([rows[at % n]], specs)
        with pytest.raises(SchemaError) as batch:
            features._vectorize(rows, specs)
        assert str(batch.value) == str(one_row.value)

    def test_only_batches_of_column_rows_take_the_column_path(self):
        pool = [{"age": 5.0, "user": "a", "viewers": ("a", "b")}, {"user": "zz"}]
        taken = []
        real = features._column_cells

        def spy(column, spec, start):
            taken.append((len(column), spec.name))
            return real(column, spec, start)

        with mock.patch.object(features, "_column_cells", spy):
            features._vectorize(column_batch(pool, features.COLUMN_ROWS - 1, 0), NARROW_SPECS)
            assert taken == []
            features._vectorize(column_batch(pool, features.COLUMN_ROWS, 0), NARROW_SPECS)
        assert taken == [(features.COLUMN_ROWS, s.name) for s in NARROW_SPECS]


class TestCanonicalKey:
    @given(
        st.dictionaries(
            st.text(max_size=3),
            st.text(max_size=3)
            | st.floats(allow_nan=False)
            | st.lists(st.text(max_size=3), max_size=4).map(tuple),
            max_size=6,
        ),
        st.data(),
    )
    def test_ignores_attribute_and_multi_value_order(self, attrs, data):
        shuffled = {}
        for name in data.draw(st.permutations(list(attrs))):
            value = attrs[name]
            if isinstance(value, tuple):
                value = tuple(data.draw(st.permutations(value)))
            shuffled[name] = value
        assert canonical_key(shuffled) == canonical_key(attrs)

    def test_multi_values_that_do_not_sort_name_the_attribute(self):
        with pytest.raises(SchemaError, match="^attribute 'genre' holds list values that do not sort"):
            canonical_key({"genre": ("a", 1)})


# Item attributes whose canonical keys collide in every way the key allows:
# 1, 1.0 and True are one number, -0.0 is 0.0, and a multi-value is its
# sorted elements, duplicates kept, whether a list or a tuple. Values of one
# name stay mutually comparable, so the keys sort.
ITEM_ATTRIBUTES = st.fixed_dictionaries(
    {},
    optional={
        "n": st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2.5]),
        "s": st.sampled_from(["x", "y", "1"]),
        "m": st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).flatmap(
            lambda v: st.sampled_from([v, tuple(v)])
        ),
    },
)


@st.composite
def item_logs(draw):
    """Events over a few item dicts, each event holding either the shared
    dict itself or an equal copy of its own."""
    items = draw(st.lists(ITEM_ATTRIBUTES, min_size=1, max_size=5))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(items) - 1),
                st.booleans(),
                st.sampled_from([1.0, 3.0, 10.0]),
            ),
            max_size=30,
        )
    )
    return [
        ViewingEvent(items[j] if shared else dict(items[j]), {"user": "u"}, float(t), minutes)
        for t, (j, shared, minutes) in enumerate(picks)
    ]


def per_event_content_pools(log):
    """content_pools as it was, one item_key() per event."""
    by_item = {}
    for e in log:
        by_item.setdefault(e.item_key(), []).append(e)
    return [by_item[k] for k in sorted(by_item)]


def per_event_filter_log(log, min_duration_minutes=3.0, min_item_count=None):
    """filter_log as it was, one item_key() per event."""
    kept = [e for e in log if e.duration_min >= min_duration_minutes]
    if min_item_count is None:
        min_item_count = max(1, len(kept) // 100)
    counts = {}
    for e in kept:
        counts[e.item_key()] = counts.get(e.item_key(), 0) + 1
    return [e for e in kept if counts[e.item_key()] >= min_item_count]


def per_event_catalog(log):
    """catalog_from_log as it was: each content's first item dict, by key."""
    seen = {}
    for e in log:
        seen.setdefault(e.item_key(), e.item_attributes)
    return [seen[k] for k in sorted(seen)]


def ids_of(objects):
    return [id(x) for x in objects]


class TestItemIds:
    @settings(deadline=None, max_examples=300)
    @given(item_logs())
    def test_ids_are_canonical_key_classes_in_sorted_key_order(self, log):
        codes, keys = item_ids(log)
        assert codes.dtype == np.intp and codes.shape == (len(log),)
        key_of = [canonical_key(e.item_attributes) for e in log]
        assert [keys[c] for c in codes.tolist()] == key_of
        for i in range(len(log)):
            for j in range(len(log)):
                assert (codes[i] == codes[j]) == (key_of[i] == key_of[j])
        assert sorted(set(codes.tolist())) == list(range(len(keys)))
        assert len(set(keys)) == len(keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))  # numbered in sorted key order
        # each id's key is its first event's, so 1 and 1.0 label as first seen
        first = {c: i for i, c in reversed(list(enumerate(codes.tolist())))}
        assert all(repr(keys[c]) == repr(key_of[i]) for c, i in first.items())

    def test_memoized_per_dict_object(self, monkeypatch):
        from contextrec import features

        calls = []
        real = features.canonical_key
        monkeypatch.setattr(features, "canonical_key", lambda d: calls.append(d) or real(d))
        shared, copy_ = {"genre": "g1"}, {"genre": "g1"}
        log = [make_event({}, item) for item in (shared, copy_, shared, {"genre": "g0"}, copy_)]
        codes, keys = item_ids(log)
        assert codes.tolist() == [1, 1, 1, 0, 1]
        assert keys == [(("genre", "g0"),), (("genre", "g1"),)]
        assert [id(d) for d in calls] == [id(shared), id(copy_), id(log[3].item_attributes)]

    def test_empty_log(self):
        codes, keys = item_ids([])
        assert codes.dtype == np.intp and codes.shape == (0,) and keys == []

    def test_keys_that_do_not_sort_raise_schema_error(self):
        mixed = [make_event({}, {"genre": "g1", "size": 1}), make_event({}, {"genre": 5})]
        kinds = r"\['categorical_single', 'numeric'\]$"
        with pytest.raises(SchemaError, match="^feature 'genre' mixes value kinds " + kinds):
            item_ids(mixed)
        # one kind, but values that do not order
        with pytest.raises(SchemaError, match="^content attributes do not sort: '<' not supported"):
            item_ids([make_event({}, {"genre": "g1"}), make_event({}, {"genre": None})])

    @settings(deadline=None, max_examples=300)
    @given(item_logs())
    def test_content_pools_equal_per_event_reference(self, log):
        got = content_pools(item_ids(log)[0])
        assert [ids_of(log[i] for i in pool.tolist()) for pool in got] == [
            ids_of(pool) for pool in per_event_content_pools(log)
        ]

    @settings(deadline=None, max_examples=300)
    @given(item_logs(), st.sampled_from([None, 1, 2, 3, 5]))
    def test_filter_log_equals_per_event_reference(self, log, min_item_count):
        got = filter_log(log, min_item_count=min_item_count)
        assert ids_of(got) == ids_of(per_event_filter_log(log, min_item_count=min_item_count))

    @settings(deadline=None, max_examples=300)
    @given(item_logs(), st.integers(0, 30))
    @example(  # 1, 1.0 and True are one content; ("a",) and {"n": 0} are absent
        [make_event({}, it) for it in ({"n": 1}, {"m": ("a", "b")}, {"n": 1.0}, {"n": True},
                                       {"m": ["b", "a"]}, {"n": 0}, {"m": ("a",)})],
        2,
    )
    def test_catalog_and_universe_equal_per_event_reference(self, log, cut):
        items = catalog_from_log(log[:cut])
        assert ids_of(items) == ids_of(per_event_catalog(log[:cut]))
        index = {canonical_key(it): j for j, it in enumerate(items)}
        where = universe_indices(log, items)
        assert where.dtype == np.intp and where.shape == (len(log),)
        assert where.tolist() == [index.get(e.item_key(), -1) for e in log]


# Context attributes whose canonical keys collide in every way the key
# allows (as ITEM_ATTRIBUTES), with None beside absent names: "t" holds only
# tuples or None, and "m" mixes lists, tuples and a scalar.
CONTEXT_ATTRIBUTES = st.fixed_dictionaries(
    {},
    optional={
        "n": st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2.5, None]),
        "s": st.sampled_from(["x", "y", "1", None]),
        "t": st.none() | st.lists(st.sampled_from(["a", "b"]), max_size=3).map(tuple),
        "m": st.sampled_from(["a"])
        | st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).flatmap(
            lambda v: st.sampled_from([v, tuple(v)])
        ),
    },
)


# Values for logs whose contexts all hold the same names, as read_dataset
# gives them: "o" holds only sorted tuples, so a log over "n", "s" and "o"
# needs no sorting, while "u" holds tuples in any order and "m" lists too.
SAME_NAME_VALUES = {
    "n": st.sampled_from([1, 1.0, True, 0, -0.0, False, 2.5, None]),
    "s": st.sampled_from(["x", "y", "1"]),
    "o": st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(lambda v: tuple(sorted(v))),
    "u": st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(tuple),
    "m": st.lists(st.sampled_from(["a", "b"]), max_size=3).flatmap(
        lambda v: st.sampled_from([v, tuple(v)])
    ),
}


@st.composite
def same_name_contexts(draw):
    """Contexts over one set of names (a single one included), each dict's
    names in its own insertion order; a few dicts may lack one name."""
    names = draw(st.lists(st.sampled_from(sorted(SAME_NAME_VALUES)), min_size=1, unique=True))
    contexts = [
        {name: draw(SAME_NAME_VALUES[name]) for name in draw(st.permutations(names))}
        for _ in range(draw(st.integers(0, 30)))
    ]
    for i in draw(st.lists(st.integers(0, 29), max_size=3)):
        if i < len(contexts):
            contexts[i].pop(draw(st.sampled_from(names)), None)
    return contexts


def first_seen_key_classes(contexts) -> list:
    first_seen: dict = {}
    return [first_seen.setdefault(canonical_key(c), len(first_seen)) for c in contexts]


class TestContextIds:
    @settings(deadline=None, max_examples=500)
    @given(st.lists(CONTEXT_ATTRIBUTES, max_size=30))
    def test_ids_are_canonical_key_classes_in_first_seen_order(self, contexts):
        ids = context_ids([make_event(c) for c in contexts])
        assert ids.dtype == np.intp and ids.shape == (len(contexts),)
        assert ids.tolist() == first_seen_key_classes(contexts)

    @settings(deadline=None, max_examples=500)
    @given(same_name_contexts())
    def test_same_name_logs_key_as_canonical_key(self, contexts):
        ids = context_ids([make_event(c) for c in contexts])
        assert ids.dtype == np.intp and ids.shape == (len(contexts),)
        assert ids.tolist() == first_seen_key_classes(contexts)

    def test_corners(self):
        contexts = [
            {"n": 1}, {"n": 1.0}, {"n": True},  # one number
            {"n": 0}, {"n": -0.0}, {"n": False},  # another
            {"m": ["b", "a", "a"]}, {"m": ("a", "b", "a")},  # order and container ignored
            {"m": ("a", "b")},  # duplicates kept
            {}, {"n": None}, {"n": None, "m": ()}, {"m": ()},  # absent is not None
            {},
        ]
        ids = context_ids([make_event(c) for c in contexts])
        assert ids.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 4]

    def test_only_columns_with_unsorted_multi_values_are_sorted(self, monkeypatch):
        assert _sorted_multi_values([("a", "b"), None, ("a", "b"), (), ("a", "a"), "b", 1])
        for value in [("b", "a"), ["a"], {"a"}, frozenset("a"), ("u1", 5)]:
            assert not _sorted_multi_values([("a", "b"), value])
        sorted_names = []
        real = features._sorted_tuple
        monkeypatch.setattr(
            features, "_sorted_tuple", lambda name, v: sorted_names.append(name) or real(name, v)
        )
        contexts = [{"o": ("a", "b"), "s": "x"}, {"o": (), "s": "y"}]
        assert context_ids([make_event(c) for c in contexts]).tolist() == [0, 1]
        assert sorted_names == []
        contexts = [
            {"o": ("a", "b"), "t": ("b", "a")}, {"o": ("a", "b"), "t": None},
            {"o": ("a", "b"), "t": ("a", "b")}, {"t": ["b", "a"]}, {"t": "a"},
        ]
        assert context_ids([make_event(c) for c in contexts]).tolist() == [0, 1, 0, 2, 3]
        assert sorted_names == ["t"] * 3  # a tuple or a list per row that holds one

    @pytest.mark.parametrize("value", [("u1", 5), ["u1", 5]])
    def test_multi_values_that_do_not_sort_name_the_attribute(self, value):
        events = [make_event({"viewer_ids": ("u0",)}), make_event({"viewer_ids": value})]
        with pytest.raises(SchemaError, match="^attribute 'viewer_ids' holds list values that do not sort"):
            context_ids(events)

    def test_empty_log_and_empty_contexts(self):
        ids = context_ids([])
        assert ids.dtype == np.intp and ids.shape == (0,)
        assert context_ids([make_event({}), make_event({})]).tolist() == [0, 0]
