"""Stable, versioned file formats: dataset, checkpoint, history, reports.

Datasets are line-delimited JSON (one event per line, sorted keys);
checkpoints are a single versioned JSON document carrying the config,
schema and all parameter arrays as decimal text. Identical inputs always
serialize byte-identically.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .features import FeatureSchema, FeatureSpec, ViewingEvent
from .model import EncoderConfig, TwoTowerModel
from .nn_core import LayerParams

CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    pass


def attrs_to_json(attrs: dict) -> dict:
    out = {}
    for k, v in attrs.items():
        if isinstance(v, (list, set, frozenset, tuple)):
            out[k] = sorted(str(x) for x in v)
        else:
            out[k] = v
    return out


def attrs_from_json(attrs: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in attrs.items()}


def write_dataset(log: list[ViewingEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in log:
            record = {
                "context": attrs_to_json(e.context_attributes),
                "duration_min": e.duration_min,
                "item": attrs_to_json(e.item_attributes),
                "timestamp": e.timestamp,
            }
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_dataset(path) -> list[ViewingEvent]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                ts, duration = float(rec["timestamp"]), float(rec["duration_min"])
                if not (math.isfinite(ts) and math.isfinite(duration)):
                    raise ValueError("timestamp and duration_min must be finite")
                events.append(
                    ViewingEvent(
                        item_attributes=attrs_from_json(rec["item"]),
                        context_attributes=attrs_from_json(rec["context"]),
                        timestamp=ts,
                        duration_min=duration,
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise FormatError(f"bad dataset record at line {lineno}: {exc}") from exc
    return events


def _schema_to_json(schema: FeatureSchema) -> dict:
    def spec(s: FeatureSpec) -> dict:
        return {
            "name": s.name,
            "kind": s.kind,
            "vocabulary": list(s.vocabulary),
            "min": s.min,
            "max": s.max,
        }

    return {
        "context_specs": [spec(s) for s in schema.context_specs],
        "item_specs": [spec(s) for s in schema.item_specs],
    }


def _schema_from_json(doc: dict) -> FeatureSchema:
    def spec(d: dict) -> FeatureSpec:
        return FeatureSpec(
            name=d["name"],
            kind=d["kind"],
            vocabulary=tuple(d["vocabulary"]),
            min=d["min"],
            max=d["max"],
        )

    return FeatureSchema(
        context_specs=tuple(spec(d) for d in doc["context_specs"]),
        item_specs=tuple(spec(d) for d in doc["item_specs"]),
    )


def _layers_to_json(layers: list[LayerParams]) -> list:
    return [
        {
            "weights": layer.weights.tolist(),
            "biases": layer.biases.tolist(),
            "activation": layer.activation,
        }
        for layer in layers
    ]


def _layers_from_json(doc: list) -> list[LayerParams]:
    return [
        LayerParams(
            weights=np.asarray(d["weights"], dtype=np.float64),
            biases=np.asarray(d["biases"], dtype=np.float64),
            activation=d["activation"],
        )
        for d in doc
    ]


def save_checkpoint(
    model: TwoTowerModel, path, objective: str = "", seed: int = 0
) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "objective": objective,
        "seed": seed,
        "encoder_config": {
            "architecture": model.config.architecture,
            "hidden_widths": list(model.config.hidden_widths),
            "embedding_dim": model.config.embedding_dim,
        },
        "schema": _schema_to_json(model.schema),
        "context_encoder": _layers_to_json(model.context_encoder),
        "item_encoder": _layers_to_json(model.item_encoder),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path) -> tuple[TwoTowerModel, dict]:
    """Returns (model, metadata with objective and seed)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint format_version: {version!r}")
    cfg = doc["encoder_config"]
    model = TwoTowerModel(
        schema=_schema_from_json(doc["schema"]),
        context_encoder=_layers_from_json(doc["context_encoder"]),
        item_encoder=_layers_from_json(doc["item_encoder"]),
        config=EncoderConfig(
            architecture=cfg["architecture"],
            hidden_widths=tuple(cfg["hidden_widths"]),
            embedding_dim=cfg["embedding_dim"],
        ),
    )
    return model, {"objective": doc.get("objective"), "seed": doc.get("seed")}


def write_history_csv(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,train_loss,val_loss\n")
        for step, train_loss, val_loss in history.records:
            fh.write(f"{step},{train_loss:.17g},{val_loss:.17g}\n")


def write_report_csv(rows: list[dict], path) -> None:
    """One CSV row per evaluated method; HR@K columns for each requested K."""
    if not rows:
        raise ValueError("no report rows")
    columns = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for c in columns:
                v = row[c]
                cells.append(format(v, ".6g") if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")
