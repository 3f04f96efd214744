import base64
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contextrec.datagen import GeneratorConfig, SplitConfig, filter_log, generate, temporal_split
from contextrec.features import ViewingEvent, build_schema, vectorize_context, vectorize_item
from contextrec.model import (
    EncoderConfig,
    TwoTowerModel,
    catalog_from_log,
    embed_context,
    embed_item,
    precompute_catalog,
)
from contextrec import nn_core
from contextrec.nn_core import LayerParams, make_rng
from contextrec import serialization
from contextrec.serialization import (
    FormatError,
    atomic_write,
    decode_array,
    encode_array,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_csv,
    write_dataset,
)
from contextrec.trainer import OBJECTIVES, TrainConfig, TrainHistory, train

from conftest import encode_dataset


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ATTRIBUTES = st.dictionaries(
    st.text(max_size=6),
    st.text(max_size=6)
    | st.lists(st.text(max_size=6), max_size=4).map(lambda v: tuple(sorted(v)))
    | st.integers()
    | FINITE,
    max_size=4,
)
EVENTS = st.builds(
    ViewingEvent,
    item_attributes=ATTRIBUTES,
    context_attributes=ATTRIBUTES,
    timestamp=FINITE,
    duration_min=FINITE,
)
INTEGER_LISTS = st.dictionaries(
    st.text(max_size=6), st.lists(st.integers(), max_size=4).map(tuple), max_size=3
)


EDGE_FLOATS = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
)


JSON_SCALARS = (st.text(max_size=4) | st.integers(-(2**64), 2**64) | FINITE | EDGE_FLOATS
                | st.booleans() | st.none())
JSON_ATTRIBUTES = st.dictionaries(
    st.text(max_size=4),
    JSON_SCALARS
    | st.lists(st.text(max_size=4), max_size=3).map(tuple)
    | st.lists(st.integers(-9, 9) | FINITE | EDGE_FLOATS | st.booleans(), max_size=3),
    max_size=4,
)


def record(context=(), item=(), timestamp=0.0, duration_min=5.0):
    return {"context": dict(context), "item": dict(item), "timestamp": timestamp,
            "duration_min": duration_min}


class TestDataset:
    @settings(deadline=None)
    @given(st.lists(EVENTS, max_size=5))
    def test_round_trip_property(self, log):
        # the format's domain: string categoricals, sorted string tuples,
        # finite numerics and finite timestamps
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
            write_dataset(log, first)
            back = read_dataset(first)
            assert back == log
            write_dataset(back, second)
            assert first.read_bytes() == second.read_bytes()

    @settings(deadline=None)
    @given(st.lists(st.builds(ViewingEvent, JSON_ATTRIBUTES, JSON_ATTRIBUTES,
                              FINITE | EDGE_FLOATS, FINITE | EDGE_FLOATS), max_size=6))
    def test_round_trip_keeps_keys_and_types_property(self, log):
        # repr tells 1, 1.0 and True apart, and -0.0 from 0.0, and gives each
        # float's exact value; a key lists an absent name not at all and a
        # null as None; multi-values come back as sorted tuples
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "a.jsonl")
            write_dataset(log, path)
            back = read_dataset(path)

        def keys(events):
            return repr([(e.item_key(), e.context_key(), e.timestamp, e.duration_min)
                         for e in events])

        assert keys(back) == keys(log)
        for e, original in zip(back, log):
            for got, want in ((e.context_attributes, original.context_attributes),
                              (e.item_attributes, original.item_attributes)):
                assert list(got) == sorted(want)
                for name, value in want.items():
                    if isinstance(value, (list, tuple)):
                        assert got[name] == tuple(sorted(value)) and type(got[name]) is tuple

    def sample_log(self):
        return generate(GeneratorConfig(n_weeks=1, events_per_day=40, seed=11))

    def test_round_trip_identity(self, tmp_path):
        log = self.sample_log()
        path = tmp_path / "data.jsonl"
        write_dataset(log, path)
        assert read_dataset(path) == log

    def test_byte_identical_rewrites(self, tmp_path):
        log = self.sample_log()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(log, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_line_per_event(self, tmp_path):
        log = self.sample_log()
        path = tmp_path / "data.jsonl"
        write_dataset(log, path)
        assert len(path.read_text().strip().splitlines()) == 1 + len(log)

    def test_format_pinned(self, tmp_path):
        # the written bytes are those of this suite's own encoder: names
        # sorted, values by first sight and told apart by their JSON text,
        # -1 for an absent name, multi-values sorted
        log = [
            ViewingEvent({"genre": "g1"}, {"viewer_ids": ("u9", "u1"), "size": 1}, 5.0, 9.5),
            ViewingEvent({"genre": "g0"}, {"size": 1.0, "flag": True}, -0.0, 5e-324),
            ViewingEvent({"genre": "g1", "x": None}, {"size": True, "flag": None}, 2.0, 1.0),
            ViewingEvent({"genre": "g1"}, {"size": -0.0, "viewer_ids": ["u1", "u9"]}, 3.0, 1.0),
        ]
        path = tmp_path / "data.jsonl"
        write_dataset(log, path)
        records = [record({k: sorted(v) if isinstance(v, (list, tuple)) else v
                           for k, v in e.context_attributes.items()},
                          e.item_attributes, e.timestamp, e.duration_min) for e in log]
        assert path.read_text() == encode_dataset(records)
        assert path.read_text().splitlines()[:2] == [
            '{"format_version":2,"context":{"flag":[true,null],"size":[1,1.0,true,-0.0],'
            '"viewer_ids":[["u1","u9"]]},"item":{"genre":["g1","g0"],"x":[null]}}',
            "[5.0,9.5,-1,0,0,0,-1]",
        ]

    def test_multi_valued_attrs_sorted(self, tmp_path):
        ev = ViewingEvent(
            {"genre": "g"}, {"viewer_ids": ("u9", "u1")}, 0.0, 5.0
        )
        path = tmp_path / "data.jsonl"
        write_dataset([ev], path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["context"]["viewer_ids"] == [["u1", "u9"]]
        # round trip canonicalizes to the sorted tuple
        assert read_dataset(path)[0].context_attributes["viewer_ids"] == ("u1", "u9")

    def test_integer_multi_values_written_as_numbers(self, tmp_path):
        ev = ViewingEvent({"genre": "g"}, {"viewer_ids": (9, 10, -1)}, 0.0, 5.0)
        path = tmp_path / "data.jsonl"
        write_dataset([ev], path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["context"]["viewer_ids"] == [[-1, 9, 10]]
        assert read_dataset(path)[0].context_attributes["viewer_ids"] == (-1, 9, 10)

    @settings(deadline=None)
    @given(st.lists(st.builds(ViewingEvent, INTEGER_LISTS, INTEGER_LISTS, FINITE, FINITE),
                    max_size=5))
    def test_integer_multi_values_keep_their_keys(self, log):
        # elements keep their JSON types, in canonical_key's order
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "a.jsonl")
            write_dataset(log, path)
            back = read_dataset(path)

        def keys(events):
            return repr([(e.item_key(), e.context_key()) for e in events])

        assert keys(back) == keys(log)

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(encode_dataset([record()]) + '{"nope":1}\n')
        with pytest.raises(FormatError, match="line 3"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "field, value",
        [("timestamp", float("nan")), ("duration_min", float("inf")), ("timestamp", float("-inf")),
         ("timestamp", "5"), ("duration_min", True), ("timestamp", None), ("timestamp", 10**400)],
    )
    def test_non_finite_record_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(encode_dataset([record(), {**record(), field: value}]))
        with pytest.raises(FormatError, match="line 3: timestamp and duration_min must be finite"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "part, value",
        [
            ("context", {"id": "u1"}),
            ("context", ["u1", ["u2"]]),
            ("item", ["g1", {"x": 1}]),
            ("item", {}),
            ("context", [[]]),
        ],
    )
    def test_nested_value_rejected(self, tmp_path, part, value):
        rec = record({"user": "u"}, {"genre": "g"})
        bad = {**rec, part: {**rec[part], "nested": value}}
        path = tmp_path / "bad.jsonl"
        path.write_text(encode_dataset([rec, bad]))
        with pytest.raises(FormatError, match="header at line 1: attribute 'nested' nests an "
                                              "object or array"):
            read_dataset(path)

    def test_attrs_from_json_rejects_nested_value(self):
        assert serialization.attrs_from_json({"a": ["x", 1, 2.5, True, None]}) == {
            "a": ("x", 1, 2.5, True, None)
        }
        with pytest.raises(FormatError, match="attribute 'a' nests an object or array"):
            serialization.attrs_from_json({"a": [["x"]]})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                         "1" + "0" * 400])
    @pytest.mark.parametrize("part", ["context", "item"])
    def test_non_finite_attribute_rejected(self, tmp_path, part, literal):
        rec = record({"user": "u"}, {"genre": "g"})
        bad = {**rec, part: {**rec[part], "size": "<n>"}}
        path = tmp_path / "bad.jsonl"
        path.write_text(encode_dataset([rec, bad]).replace('"<n>"', literal))
        with pytest.raises(FormatError, match="header at line 1: attribute 'size' is not a "
                                              "finite number"):
            read_dataset(path)

    def test_attrs_from_json_rejects_non_finite_number(self):
        big = 1.7976931348623157e308
        assert serialization.attrs_from_json({"a": big, "b": -0.0}) == {"a": big, "b": -0.0}
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(FormatError, match=r"attribute 'a' is not a finite number \("):
                serialization.attrs_from_json({"a": value})

    def test_non_finite_event_not_written(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("old\n")
        for ev in (ViewingEvent({"genre": "g"}, {"age": float("nan")}, 0.0, 5.0),
                   ViewingEvent({"genre": "g"}, {"age": 1.0}, float("inf"), 5.0)):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write_dataset([ev], path)
            assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "text, version",
        [
            ('{"context":{"user":"u0"},"duration_min":5.0,"item":{"genre":"g0"},'
             '"timestamp":0.0}\n', "None"),
            ("", "None"),
            ('{"format_version":3,"context":{},"item":{}}\n', "3"),
            ('{"format_version":"2","context":{},"item":{}}\n', "'2'"),
            ("[2]\n", "None"),
        ],
        ids=["format_1", "empty", "version_3", "version_text", "array"],
    )
    def test_other_format_refused(self, tmp_path, text, version):
        path = tmp_path / "data.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert str(exc.value) == (
            f"unsupported dataset format_version: {version}; this version reads format 2 only, "
            "so re-run `contextrec gen` to write one"
        )

    def test_header_lists_read_as_sorted_tuples(self, tmp_path):
        # a hand-written file: write_dataset stores every list sorted
        path = tmp_path / "data.jsonl"
        path.write_text('{"format_version":2,"context":{"viewers":[["u2","u1"],["u1","u2"]]},'
                        '"item":{"genre":["g0"]}}\n[0.0,5.0,0,0]\n[0.0,5.0,1,0]\n')
        first, second = read_dataset(path)
        assert first.context_attributes == {"viewers": ("u1", "u2")}
        assert first == second and first.context_key() == second.context_key()

    @pytest.mark.parametrize(
        "header, message",
        [
            ('{"format_version":2,"context":{"user":["u0"]}}',
             "'item' must map each attribute name to a JSON list of its values"),
            ('{"format_version":2,"context":{"user":"u0"},"item":{}}',
             "'context' must map each attribute name to a JSON list of its values"),
            ('{"format_version":2,"context":{},"item":["g0"]}',
             "'item' must map each attribute name to a JSON list of its values"),
            ('{"format_version":2,"context":{"b":[1],"a":[2]},"item":{}}',
             "'context' attribute names are not sorted"),
            ('{"format_version":2,"context":{},"item":{}', "Expecting ',' delimiter"),
            (b'{"format_version":2,"context":{"\xff":[]},"item":{}}',
             "'utf-8' codec can't decode byte 0xff"),
            ('{"format_version":2,"context":{"viewers":[["u1",2]]},"item":{}}',
             "attribute 'viewers' holds list values that do not sort: '<' not supported"),
        ],
        ids=["item_missing", "table_not_a_list", "part_not_an_object", "names_unsorted",
             "truncated", "not_utf8", "list_unsortable"],
    )
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "data.jsonl"
        raw = header if type(header) is bytes else header.encode()
        path.write_bytes(raw + b"\n[0.0,1.0]\n")
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert str(exc.value).startswith(f"bad dataset header at line 1: {message}")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[0.0,5.0,2,0]", "context attribute 'user' cell must be an index in [-1, 2), got 2"),
            ("[0.0,5.0,0,-2]", "item attribute 'genre' cell must be an index in [-1, 1), got -2"),
            ("[0.0,5.0,true,0]",
             "context attribute 'user' cell must be an index in [-1, 2), got True"),
            ("[0.0,5.0,0,0.0]", "item attribute 'genre' cell must be an index in [-1, 1), got 0.0"),
            ('[0.0,5.0,"0",0]',
             "context attribute 'user' cell must be an index in [-1, 2), got '0'"),
            ("[0.0,5.0,null,0]",
             "context attribute 'user' cell must be an index in [-1, 2), got None"),
            ("[0.0,5.0,0]", "a record must be a JSON array of 4 values: timestamp, duration_min "
                            "and 2 attribute cells"),
            ("[0.0,5.0,0,0,0]", "a record must be a JSON array of 4 values"),
            ('{"timestamp":0.0}', "a record must be a JSON array of 4 values"),
            ("[0.0,5.0,0,0],[0.0,5.0,0,0]", "Extra data"),
            ("[0.0,5.0\n0,0],[0.0,5.0,0,0]", "Expecting ',' delimiter"),
            ("", "Expecting value"),
            (b"[0.0,5.0,0,0]\xff", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["cell_out_of_range", "cell_minus_2", "cell_bool", "cell_float", "cell_text",
             "cell_null", "row_short", "row_long", "row_object", "two_rows", "row_split", "blank",
             "not_utf8"],
    )
    def test_bad_row_rejected(self, tmp_path, line, message):
        records = [record({"user": f"u{i % 2}"}, {"genre": "g0"}, float(i)) for i in range(3)]
        lines = encode_dataset(records).encode().splitlines(keepends=True)
        lines[2] = (line if type(line) is bytes else line.encode()) + b"\n"
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert str(exc.value).startswith(f"bad dataset record at line 3: {message}")

    @pytest.mark.parametrize("lineno", [4097, 4098, 4150, 8195])
    def test_bad_line_named_past_the_first_chunk(self, tmp_path, lineno):
        # rows are parsed 4,096 lines at a time, from line 2 on
        records = [record({"user": f"u{i % 3}"}, {"genre": f"g{i % 2}"}, float(i))
                   for i in range(8200)]
        lines = encode_dataset(records).splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(",", ",7,", 1)
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert str(exc.value).startswith(f"bad dataset record at line {lineno}: a record must "
                                         "be a JSON array of 4 values")

    def test_many_chunks_read_in_order(self, tmp_path):
        records = [record({"user": f"u{i % 5}"} if i % 7 else {}, {"genre": f"g{i % 3}"},
                          float(i), i % 11) for i in range(9000)]
        path = tmp_path / "data.jsonl"
        path.write_text(encode_dataset(records))
        log = read_dataset(path)
        assert [(e.context_attributes, e.item_attributes, e.timestamp, e.duration_min)
                for e in log] == [(r["context"], r["item"], r["timestamp"], r["duration_min"])
                                  for r in records]
        assert {type(e.duration_min) for e in log} == {float}
        assert len({id(e.item_attributes) for e in log}) == 3

    def test_equal_strings_and_string_items_shared(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(encode_dataset([
            record({"last_genre": "g1", "user": "u1", "viewers": ["u1", "u2"]}, {"genre": "g1"},
                   float(i))
            for i in range(3)
        ]))
        a, b, c = read_dataset(path)
        assert a.item_attributes is b.item_attributes is c.item_attributes
        assert a.context_attributes is not b.context_attributes
        # one object per attribute value and per name, across lines
        for e in (b, c):
            assert e.context_attributes["user"] is a.context_attributes["user"]
            assert e.context_attributes["viewers"] is a.context_attributes["viewers"]
            for name, first in zip(e.context_attributes, a.context_attributes):
                assert name is first

    def test_shared_attribute_dicts_written_as_copies(self, tmp_path):
        # the writer encodes each event's dicts by value, not by identity
        context, item = {"user": "u1", "viewers": ("u1", "u2")}, {"genre": "g1"}
        shared = [ViewingEvent(item, context, float(i), 5.0) for i in range(3)]
        copies = [ViewingEvent(dict(item), dict(context), float(i), 5.0) for i in range(3)]
        write_dataset(shared, tmp_path / "shared.jsonl")
        write_dataset(copies, tmp_path / "copies.jsonl")
        assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "copies.jsonl").read_bytes()

    def test_numeric_items_not_merged(self, tmp_path):
        # items merge only when their values have the same JSON text
        path = tmp_path / "data.jsonl"
        values = [1, 1.0, True, 1, -0.0, 0.0, -0.0]
        path.write_text(encode_dataset([record({"y": v}, {"x": v}) for v in values]))
        log = read_dataset(path)
        assert len({id(e.item_attributes) for e in log}) == 5
        assert log[3].item_attributes is log[0].item_attributes
        assert log[6].item_attributes is log[4].item_attributes
        for e, v in zip(log, values):
            for attrs in (e.item_attributes, e.context_attributes):
                (got,) = attrs.values()
                assert type(got) is type(v) and got == v
                assert math.copysign(1.0, got) == math.copysign(1.0, v)

    def test_items_of_other_values_not_merged(self, tmp_path):
        # an absent name differs from a null, and a list from a string
        path = tmp_path / "data.jsonl"
        items = [{"a": "1", "b": "2"}, {"a": "1", "b": "3"}, {"a": "1", "b": ["2"]},
                 {"a": "1", "b": ["2"]}, {"a": "1", "b": "2"}, {"a": "1"}, {"a": "1", "b": None}]
        path.write_text(encode_dataset([record(item=item) for item in items]))
        log = read_dataset(path)
        assert [e.item_attributes for e in log] == [
            {"a": "1", "b": "2"}, {"a": "1", "b": "3"}, {"a": "1", "b": ("2",)},
            {"a": "1", "b": ("2",)}, {"a": "1", "b": "2"}, {"a": "1"}, {"a": "1", "b": None},
        ]
        assert log[4].item_attributes is log[0].item_attributes
        assert log[3].item_attributes is log[2].item_attributes
        assert len({id(e.item_attributes) for e in log}) == 5


def tiny_model():
    log = [
        ViewingEvent({"genre": f"g{j}"}, {"user": f"u{j}", "size": float(j)}, float(j), 9.0)
        for j in range(4)
    ]
    schema = build_schema(log)
    config = EncoderConfig(hidden_widths=(8,), embedding_dim=5)
    model = TwoTowerModel.initialize(schema, config, make_rng(3))
    model.items = tuple(e.item_attributes for e in log)
    return log, schema, model


PARAMETER_COUNT = sum(p.size for p in tiny_model()[2].parameters())


class TestCheckpoint:
    def test_round_trip_parameters_exact(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="jcce", seed=42)
        loaded, meta = load_checkpoint(path)
        assert meta == {"objective": "jcce", "seed": 42, "split": None}
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_serving_scores_preserved(self, tmp_path):
        log, schema, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        loaded, _ = load_checkpoint(path)
        for e in log:
            c = embed_context(model, vectorize_context([e], schema)[0])
            c2 = embed_context(loaded, vectorize_context([e], loaded.schema)[0])
            assert np.max(np.abs(c - c2)) <= 1e-12
            i1 = embed_item(model, vectorize_item([e.item_attributes], schema)[0])
            i2 = embed_item(loaded, vectorize_item([e.item_attributes], loaded.schema)[0])
            assert np.max(np.abs(i1 - i2)) <= 1e-12

    def test_schema_round_trip(self, tmp_path):
        _, schema, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        loaded, _ = load_checkpoint(path)
        assert loaded.schema == schema
        assert loaded.config == model.config

    @pytest.mark.parametrize("split", [
        SplitConfig(), SplitConfig(min_duration_minutes=0, min_item_count=4, train_fraction=0.7),
    ], ids=["min_item_count_null", "min_item_count_4"])
    def test_round_trip_keeps_split(self, tmp_path, split):
        _, _, model = tiny_model()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, first, objective="jcce", seed=42, split=split)
        loaded, meta = load_checkpoint(first)
        assert meta == {"objective": "jcce", "seed": 42, "split": split}
        assert json.loads(first.read_text())["split"] == {
            "min_duration_minutes": split.min_duration_minutes,
            "min_item_count": split.min_item_count, "train_fraction": split.train_fraction}
        save_checkpoint(loaded, second, objective="jcce", seed=42, split=meta["split"])
        assert first.read_bytes() == second.read_bytes()

    def test_without_split_loads_and_resaves_the_same_bytes(self, tmp_path):
        # save_checkpoint as code outside the CLI calls it: no split keyword
        _, _, model = tiny_model()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, first, objective="rjcce", seed=0)
        assert json.loads(first.read_text())["split"] is None
        loaded, meta = load_checkpoint(first)
        assert meta["split"] is None
        save_checkpoint(loaded, second, objective="rjcce", seed=0)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("split, message", [
        ({"min_duration_minutes": 3.0, "min_item_count": None, "train_fraction": 1.5},
         r"train_fraction must be a number in \(0, 1\), got 1.5"),
        ({"min_duration_minutes": 3.0, "min_item_count": "x", "train_fraction": 0.9},
         "min_item_count must be an integer >= 1, got 'x'"),
        ({"min_duration_minutes": 3.0, "min_item_count": None, "train_fraction": 0.9, "x": 1},
         "unexpected keyword argument 'x'"),
        ([3.0, None, 0.9], "must be a mapping"),
    ], ids=["train_fraction_1.5", "min_item_count_text", "unknown_key", "not_an_object"])
    def test_bad_split_rejected(self, tmp_path, split, message):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0, split=SplitConfig())
        doc = json.loads(path.read_text())
        doc["split"] = split
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"checkpoint {path} is malformed: .*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(split={}), ": split lacks key 'min_duration_minutes'"),
        (lambda doc: doc.update(split={"train_fraction": 0.3}),
         ": split lacks key 'min_duration_minutes'"),
        (lambda doc: doc["encoder_config"].pop("embedding_dim"),
         ": encoder_config lacks key 'embedding_dim'"),
        (lambda doc: doc["schema"]["context_specs"][1].pop("min"),
         ": feature 'user' lacks key 'min'"),
        (lambda doc: doc["schema"]["item_specs"][0].pop("name"), ": feature None lacks key 'name'"),
        (lambda doc: doc["schema"].pop("item_specs"), ": schema lacks key 'item_specs'"),
        (lambda doc: doc["encoder_config"].update(hidden_widths=8),
         ": encoder_config hidden_widths is not a JSON list"),
        (lambda doc: doc["encoder_config"].update(architecture="mlp"),
         " is malformed: EncoderConfig.__init__() got an unexpected keyword argument "
         "'architecture'"),
        (lambda doc: doc["schema"]["context_specs"][1].update(x=1),
         " is malformed: FeatureSpec.__init__() got an unexpected keyword argument 'x'"),
    ], ids=["split_empty", "split_one_key", "encoder_config_without_embedding_dim",
            "categorical_spec_without_min", "spec_without_name", "schema_without_item_specs",
            "hidden_widths_not_a_list", "encoder_config_unknown_key", "spec_unknown_key"])
    def test_object_of_other_fields_rejected(self, tmp_path, edit, message):
        # each stored object holds exactly its class's fields: a missing one
        # is refused, not filled with its default
        _, schema, tiny = tiny_model()
        model = TwoTowerModel.initialize(schema, EncoderConfig(hidden_widths=(8,)), make_rng(3))
        model.items = tiny.items
        assert model.config.embedding_dim == EncoderConfig.embedding_dim
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0,
                        split=SplitConfig(train_fraction=0.3))
        doc = json.loads(path.read_text())
        assert doc["schema"]["context_specs"][1]["name"] == "user"
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"checkpoint {path}{message}"

    def test_unknown_version_rejected(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version"):
            load_checkpoint(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{}")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_non_finite_parameter_not_saved(self, tmp_path):
        _, _, model = tiny_model()
        model.item_encoder[0].biases[0] = np.inf
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_checkpoint(model, path, objective="rjcce", seed=0)
        assert not path.exists()

    def test_byte_identical_saves(self, tmp_path):
        _, _, model = tiny_model()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1, objective="rjcce", seed=1)
        save_checkpoint(model, p2, objective="rjcce", seed=1)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(deadline=None)
    @given(arrays(np.float64, PARAMETER_COUNT, elements=EDGE_FLOATS | FINITE))
    def test_round_trip_bit_exact_property(self, values):
        _, _, model = tiny_model()
        offset = 0
        for p in model.parameters():
            p.flat[:] = values[offset:offset + p.size]
            offset += p.size
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_checkpoint(model, first, objective="bpr", seed=7)
            loaded, _ = load_checkpoint(first)
            for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            save_checkpoint(loaded, second, objective="bpr", seed=7)
            assert first.read_bytes() == second.read_bytes()

    def test_format_pinned(self, tmp_path):
        # the saved document, read with this file's own decoder: eight keys,
        # the items as JSON objects, and the arrays in parameters() order as
        # base64 of little-endian float64
        _, _, model = tiny_model()
        model.context_encoder[0].weights[0, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="jcce", seed=4, split=SplitConfig(min_item_count=2))
        text = path.read_text(encoding="ascii")
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert sorted(doc) == [
            "encoder_config", "format_version", "items", "objective", "parameters", "schema",
            "seed", "split",
        ]
        assert (doc["format_version"], doc["objective"], doc["seed"]) == (5, "jcce", 4)
        assert doc["split"] == {"min_duration_minutes": 3.0, "min_item_count": 2,
                                "train_fraction": 0.9}
        assert doc["items"] == [{"genre": f"g{j}"} for j in range(4)]
        assert doc["encoder_config"] == {"embedding_dim": 5, "hidden_widths": [8]}
        params = model.parameters()
        assert len(doc["parameters"]) == len(params)
        for data, want in zip(doc["parameters"], params):
            got = np.frombuffer(base64.b64decode(data, validate=True), "<f8")
            assert got.tobytes() == np.ascontiguousarray(want, "<f8").tobytes()
        assert '"shape"' not in text and '"activation"' not in text

    def test_loaded_arrays_owned_writeable_native(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        loaded, _ = load_checkpoint(path)
        for a in loaded.parameters():
            assert a.dtype == np.float64 and a.dtype.isnative
            assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata

    @pytest.mark.parametrize("hidden_widths", [(), (8,), (8, 6)])
    def test_loaded_activations_follow_the_rule(self, tmp_path, hidden_widths):
        # hidden layers relu, the last identity: the file does not store them
        _, schema, tiny = tiny_model()
        model = TwoTowerModel.initialize(
            schema, EncoderConfig(hidden_widths=hidden_widths, embedding_dim=5), make_rng(3)
        )
        model.items = tiny.items
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        loaded, _ = load_checkpoint(path)
        rule = ["relu"] * len(hidden_widths) + ["identity"]
        for tower in (loaded.context_encoder, loaded.item_encoder):
            assert [layer.activation for layer in tower] == rule
            assert [layer.weights.shape[0] for layer in tower] == [*hidden_widths, 5]

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(nn_core, "xavier_init", refuse)
        loaded, _ = load_checkpoint(path)
        assert [p.tobytes() for p in loaded.parameters()] == [
            p.tobytes() for p in model.parameters()
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: setattr(m.context_encoder[0], "activation", "identity"),
             "layer shapes or activations are not those"),
            (lambda m: setattr(m.item_encoder[-1], "activation", "relu"),
             "layer shapes or activations are not those"),
            (lambda m: m.item_encoder.__setitem__(
                0, LayerParams(np.zeros((7, m.schema.item_width)), np.zeros(7), "relu")),
             "layer shapes or activations are not those"),
            (lambda m: m.context_encoder.pop(0), "layer shapes or activations are not those"),
            (lambda m: m.item_encoder[1].biases.__setitem__(0, np.nan), "not JSON compliant"),
        ],
        ids=["hidden_identity", "last_relu", "mis_shaped_layer", "layer_missing", "nan_bias"],
    )
    def test_non_standard_model_not_saved(self, tmp_path, edit, message):
        # the file holds no shapes or activations, so such a model would
        # load as another one
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        path.write_text("old")
        edit(model)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(model, path, objective="rjcce", seed=0)
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_bias_one_short_rejected(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        doc = json.loads(path.read_text())
        short = np.frombuffer(base64.b64decode(doc["parameters"][-1]), "<f8")[:-1]
        doc["parameters"][-1] = base64.b64encode(short.tobytes()).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"item_encoder layer 1 biases: data holds 32 "
                                              r"bytes; shape \[5\] needs 40"):
            load_checkpoint(path)

    def test_layer_count_checked(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        doc = json.loads(path.read_text())
        del doc["parameters"][2:4]  # context_encoder layer 1
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="parameters must be a list of the 8 arrays that "
                                              "the schema and encoder_config give, got 6"):
            load_checkpoint(path)

    def test_items_are_the_train_split_catalog(self, tmp_path):
        # the catalog travels with the checkpoint: the loaded items are the
        # train split's, and the catalog rebuilt from the loaded model is bit
        # for bit the one built from the split
        log = filter_log(generate(GeneratorConfig(n_weeks=1, events_per_day=120, n_genres=8,
                                                  seed=5)))
        train_log, _ = temporal_split(log)
        config = TrainConfig(objective="rjcce", batch_size=16, max_steps=3, eval_every=3, seed=1)
        model, _ = train(train_log, build_schema(train_log), config)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=1)
        loaded, _ = load_checkpoint(path)
        items = catalog_from_log(train_log)
        assert len(items) >= 2 and list(loaded.items) == items
        rebuilt = precompute_catalog(loaded, loaded.items)
        assert rebuilt.items == items
        expected = precompute_catalog(model, items).embeddings
        assert rebuilt.embeddings.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "objective, seed, items, message",
        [
            ("", 0, None, f"objective must be one of {list(OBJECTIVES)}, got ''"),
            ("a,b\nc", 0, None, f"objective must be one of {list(OBJECTIVES)}, got 'a,b\\nc'"),
            (5, 0, None, f"objective must be one of {list(OBJECTIVES)}, got 5"),
            (["jcce"], 0, None, f"objective must be one of {list(OBJECTIVES)}, got ['jcce']"),
            ("jcce", -1, None, "seed must be an integer >= 0, got -1"),
            ("jcce", "x", None, "seed must be an integer >= 0, got 'x'"),
            ("jcce", True, None, "seed must be an integer >= 0, got True"),
            ("jcce", 0, lambda items: items[:1], "a catalog needs at least 2 items, got 1"),
            ("jcce", 0, lambda items: (), "a catalog needs at least 2 items, got 0"),
            ("jcce", 0, lambda items: (*items, dict(items[0])),
             "duplicate item descriptors in catalog"),
            ("jcce", 0, lambda items: ({"genre": 5}, *items[1:]),
             "item 0 attribute 'genre' is numeric, but its feature is categorical_single"),
            ("jcce", 0, lambda items: (*items[:2], {"genre": ("g2",)}),
             "item 2 attribute 'genre' is categorical_multi, but its feature is "
             "categorical_single"),
        ],
        ids=["objective_empty", "objective_csv", "objective_number", "objective_list",
             "seed_negative", "seed_text", "seed_bool", "one_item", "no_items", "duplicate_items",
             "item_number", "item_list"],
    )
    def test_what_train_cannot_make_is_not_saved(self, tmp_path, objective, seed, items,
                                                 message):
        _, _, model = tiny_model()
        if items is not None:
            model.items = items(model.items)
        path = tmp_path / "ckpt.json"
        path.write_text("old")
        with pytest.raises(ValueError) as exc:
            save_checkpoint(model, path, objective=objective, seed=seed)
        assert str(exc.value) == message
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value, kind", [(5, "numeric"), (["g1"], "categorical_multi")])
    def test_item_of_another_kind_rejected(self, tmp_path, value, kind):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        doc = json.loads(path.read_text())
        doc["items"][1] = {"genre": value}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"is malformed: item 1 attribute 'genre' is "
                                              f"{kind}, but its feature is categorical_single$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("items", [{"genre": "g0"}, ["g0", "g1"], [{"genre": "g0"}, 5]])
    def test_items_not_a_list_of_objects_rejected(self, tmp_path, items):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="rjcce", seed=0)
        doc = json.loads(path.read_text())
        doc["items"] = items
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="items must be a list of attribute objects"):
            load_checkpoint(path)


class TestArrayCodec:
    def test_round_trip(self):
        for a in (np.arange(6.0).reshape(2, 3), np.zeros((0, 4)), np.array([-0.0, 5e-324])):
            back = decode_array(encode_array(a), a.shape)
            assert back.shape == a.shape and back.tobytes() == a.tobytes()

    def test_non_contiguous_input_written_in_c_order(self):
        a = np.arange(6.0).reshape(2, 3)
        assert decode_array(encode_array(a.T), (3, 2)).tobytes() == a.T.copy().tobytes()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ((None, (1, 1)), "data must be a base64 string, got NoneType"),
            ((["AAAAAAAA8D8="], (1, 1)), "data must be a base64 string, got list"),
            (("AAAAAAAA8D8AAAAAAAAAAA==", (1, 1)), r"holds 16 bytes; shape \[1, 1\] needs 8"),
            (("", (1, 1)), r"holds 0 bytes; shape \[1, 1\] needs 8"),
            ((1.0, (1, 1)), "data must be a base64 string, got float"),
            (("AAAAAAAA8D8", (1, 1)), "data is not base64"),
            (("AAAA AAAA8D8=", (1, 1)), "data is not base64"),
            (("AAAAAAAA8D\u00e9=", (1, 1)), "data is not base64"),
            (("AAAAAAAA8D8=", (1, 2)), r"holds 8 bytes; shape \[1, 2\] needs 16"),
            (("AAAAAAAA+H8=", (1, 1)), "data holds a non-finite value"),
            (("AAAAAAAA8P8=", (1, 1)), "data holds a non-finite value"),
        ],
    )
    def test_bad_payload_rejected(self, doc, message):
        # doc is (text, shape)
        with pytest.raises(FormatError, match=message):
            decode_array(*doc)


class TestCsvWriters:
    def test_history_csv(self, tmp_path):
        hist = TrainHistory(
            records=[(200, 1.5, 1.6), (400, 0.7, 0.9)],
            stopping_step=400,
            stopping_reason="max_steps",
            best_step=400,
            best_validation_loss=0.9,
        )
        path = tmp_path / "hist.csv"
        write_csv(path, ("step", "train_loss", "val_loss"), hist.records, 17)
        assert path.read_text() == (
            "step,train_loss,val_loss\n"
            "200,1.5,1.6000000000000001\n"
            "400,0.69999999999999996,0.90000000000000002\n"
        )

    def test_report_csv_columns(self, tmp_path):
        rows = [
            {"method": "model", "HR@1": 0.5, "HR@5": 0.8, "MRR": 0.6, "AUC": 0.9},
            {"method": "random", "HR@1": 0.1, "HR@5": 0.4, "MRR": 0.2, "AUC": 0.5},
        ]
        path = tmp_path / "report.csv"
        write_csv(path, list(rows[0]), [list(r.values()) for r in rows], 6)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,HR@1,HR@5,MRR,AUC"
        assert lines[1:] == ["model,0.5,0.8,0.6,0.9", "random,0.1,0.4,0.2,0.5"]

    @pytest.mark.parametrize(
        "digits, line", [(6, "a,3,4,0.333333,nan"), (17, "a,3,4,0.33333333333333331,nan")]
    )
    def test_cell_bytes(self, tmp_path, digits, line):
        # floats, NumPy's included, take the digits; other cells their str()
        path = tmp_path / "t.csv"
        row = ["a", 3, np.int64(4), np.float64(1 / 3), float("nan")]
        write_csv(path, ("s", "i", "n", "f", "x"), [row], digits)
        assert path.read_bytes() == f"s,i,n,f,x\n{line}\n".encode()

    def test_header_only_without_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("T", "mean"), iter(()), 17)
        assert path.read_bytes() == b"T,mean\n"


class TestAtomicWrite:
    def test_writer_error_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old,contents\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new,")
                raise RuntimeError("writer failed midway")
        assert path.read_bytes() == b"old,contents\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_error_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        _, _, model = tiny_model()
        path = tmp_path / "model.json"
        save_checkpoint(model, path, objective="rjcce", seed=1)
        before = path.read_bytes()

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"context_encoder":[')
            raise OSError("no space left on device")

        monkeypatch.setattr(serialization.json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            save_checkpoint(model, path, objective="bpr", seed=2)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer old file\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_never_renames_over_a_file(self, tmp_path, monkeypatch):
        # ext4 flushes a file renamed over another to disk first
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        targets = []
        real_replace = os.replace

        def replace(src, dst):
            targets.append(os.path.exists(dst))
            real_replace(src, dst)

        monkeypatch.setattr(serialization.os, "replace", replace)
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert targets == [False]
        assert path.read_bytes() == b"new\n"

    def test_directory_target_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            with atomic_write(target) as fh:
                fh.write("x")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []
