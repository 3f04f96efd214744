import json

import numpy as np
import pytest

from contextrec.datagen import GeneratorConfig, generate
from contextrec.features import ViewingEvent, build_schema, vectorize_context, vectorize_item
from contextrec.model import EncoderConfig, TwoTowerModel, embed_context, embed_item
from contextrec.nn_core import make_rng
from contextrec.serialization import (
    FormatError,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_dataset,
    write_history_csv,
    write_report_csv,
)
from contextrec.trainer import TrainHistory


class TestDataset:
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
            c = embed_context(model, vectorize_context(e, schema))
            c2 = embed_context(loaded, vectorize_context(e, loaded.schema))
            assert np.max(np.abs(c - c2)) <= 1e-12
            i1 = embed_item(model, vectorize_item(e.item_attributes, schema))
            i2 = embed_item(loaded, vectorize_item(e.item_attributes, loaded.schema))
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
        write_history_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,train_loss,val_loss"
        assert lines[1].startswith("200,1.5")
        assert len(lines) == 3

    def test_report_csv_columns(self, tmp_path):
        rows = [
            {"method": "model", "HR@1": 0.5, "HR@5": 0.8, "MRR": 0.6, "AUC": 0.9},
            {"method": "random", "HR@1": 0.1, "HR@5": 0.4, "MRR": 0.2, "AUC": 0.5},
        ]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,HR@1,HR@5,MRR,AUC"
        assert len(lines) == 3

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report_csv([], tmp_path / "r.csv")
