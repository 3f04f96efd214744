import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextrec.datagen import GeneratorConfig, generate
from contextrec.features import ViewingEvent, build_schema, vectorize_context, vectorize_item
from contextrec.model import EncoderConfig, TwoTowerModel, embed_context, embed_item
from contextrec.nn_core import make_rng
from contextrec import serialization
from contextrec.serialization import (
    FormatError,
    atomic_write,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_csv,
    write_dataset,
)
from contextrec.trainer import TrainHistory


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
        assert len(path.read_text().strip().splitlines()) == len(log)

    def test_multi_valued_attrs_sorted(self, tmp_path):
        ev = ViewingEvent(
            {"genre": "g"}, {"viewer_ids": ("u9", "u1")}, 0.0, 5.0
        )
        path = tmp_path / "data.jsonl"
        write_dataset([ev], path)
        rec = json.loads(path.read_text())
        assert rec["context"]["viewer_ids"] == ["u1", "u9"]
        # round trip canonicalizes to the sorted tuple
        assert read_dataset(path)[0].context_attributes["viewer_ids"] == ("u1", "u9")

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"item":{},"context":{},"timestamp":0,"duration_min":1}\n{"nope":1}\n')
        with pytest.raises(FormatError, match="line 2"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "field, value",
        [("timestamp", float("nan")), ("duration_min", float("inf")), ("timestamp", float("-inf"))],
    )
    def test_non_finite_record_rejected(self, tmp_path, field, value):
        rec = {"item": {}, "context": {}, "timestamp": 0, "duration_min": 1}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, field: value}) + "\n")
        with pytest.raises(FormatError, match="line 2: timestamp and duration_min must be finite"):
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
        rec = {"item": {"genre": "g"}, "context": {"user": "u"}, "timestamp": 0, "duration_min": 1}
        bad = {**rec, part: {**rec[part], "nested": value}}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(FormatError, match="line 2: attribute 'nested' nests an object or array"):
            read_dataset(path)

    def test_attrs_from_json_rejects_nested_value(self):
        assert serialization.attrs_from_json({"a": ["x", 1, 2.5, True, None]}) == {
            "a": ("x", 1, 2.5, True, None)
        }
        with pytest.raises(FormatError, match="attribute 'a' nests an object or array"):
            serialization.attrs_from_json({"a": [["x"]]})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    @pytest.mark.parametrize("part", ["context", "item"])
    def test_non_finite_attribute_rejected(self, tmp_path, part, literal):
        rec = {"item": {"genre": "g"}, "context": {"user": "u"}, "timestamp": 0, "duration_min": 1}
        bad = json.dumps({**rec, part: {**rec[part], "size": "<n>"}}).replace('"<n>"', literal)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + bad + "\n")
        with pytest.raises(FormatError, match="line 2: attribute 'size' is not a finite number"):
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
        ev = ViewingEvent({"genre": "g"}, {"age": float("nan")}, 0.0, 5.0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_dataset([ev], path)
        assert path.read_text() == "old\n"

    def write_records(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_equal_strings_and_string_items_shared(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_records(path, [
            {"item": {"genre": "g1"},
             "context": {"last_genre": "g1", "user": "u1", "viewers": ["u1", "u2"]},
             "timestamp": float(i), "duration_min": 5.0}
            for i in range(3)
        ])
        a, b, c = read_dataset(path)
        assert a.item_attributes is b.item_attributes is c.item_attributes
        assert a.context_attributes is not b.context_attributes
        # one object per distinct string, across lines, dicts, names and tuples
        assert a.context_attributes["last_genre"] is a.item_attributes["genre"]
        assert a.context_attributes["viewers"][0] is a.context_attributes["user"]
        for e in (b, c):
            assert e.context_attributes["user"] is a.context_attributes["user"]
            assert e.context_attributes["viewers"][1] is a.context_attributes["viewers"][1]
            for name, first in zip(e.context_attributes, a.context_attributes):
                assert name is first

    def test_numeric_items_not_merged(self, tmp_path):
        path = tmp_path / "data.jsonl"
        values = [1, 1.0, True, 1, -0.0, 0.0, -0.0]
        self.write_records(path, [
            {"item": {"x": v}, "context": {"y": v}, "timestamp": 0.0, "duration_min": 5.0}
            for v in values
        ])
        log = read_dataset(path)
        assert len({id(e.item_attributes) for e in log}) == len(values)
        for e, v in zip(log, values):
            for attrs in (e.item_attributes, e.context_attributes):
                (got,) = attrs.values()
                assert type(got) is type(v) and got == v
                assert math.copysign(1.0, got) == math.copysign(1.0, v)

    def test_items_with_other_key_order_or_values_not_merged(self, tmp_path):
        path = tmp_path / "data.jsonl"
        items = [{"a": "1", "b": "2"}, {"b": "2", "a": "1"}, {"a": "1", "b": "3"},
                 {"a": "1", "b": ["2"]}, {"a": "1", "b": ["2"]}, {"a": "1", "b": "2"}]
        self.write_records(path, [
            {"item": item, "context": {}, "timestamp": 0.0, "duration_min": 5.0} for item in items
        ])
        log = read_dataset(path)
        assert [e.item_attributes for e in log] == [
            {"a": "1", "b": "2"}, {"b": "2", "a": "1"}, {"a": "1", "b": "3"},
            {"a": "1", "b": ("2",)}, {"a": "1", "b": ("2",)}, {"a": "1", "b": "2"},
        ]
        assert list(log[1].item_attributes) == ["b", "a"]
        assert log[5].item_attributes is log[0].item_attributes
        assert len({id(e.item_attributes) for e in log}) == 5  # only lines 1 and 6 merge


def tiny_model():
    log = [
        ViewingEvent({"genre": f"g{j}"}, {"user": f"u{j}", "size": float(j)}, float(j), 9.0)
        for j in range(4)
    ]
    schema = build_schema(log)
    config = EncoderConfig(architecture="mlp", hidden_widths=(8,), embedding_dim=5)
    model = TwoTowerModel.initialize(schema, config, make_rng(3))
    return log, schema, model


class TestCheckpoint:
    def test_round_trip_parameters_exact(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, objective="jcce", seed=42)
        loaded, meta = load_checkpoint(path)
        assert meta == {"objective": "jcce", "seed": 42}
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_serving_scores_preserved(self, tmp_path):
        log, schema, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
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
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.schema == schema
        assert loaded.config == model.config

    def test_unknown_version_rejected(self, tmp_path):
        _, _, model = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
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
            save_checkpoint(model, path)
        assert not path.exists()

    def test_byte_identical_saves(self, tmp_path):
        _, _, model = tiny_model()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1, objective="rjcce", seed=1)
        save_checkpoint(model, p2, objective="rjcce", seed=1)
        assert p1.read_bytes() == p2.read_bytes()


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
