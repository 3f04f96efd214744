"""Stable, versioned file formats: dataset, checkpoint, CSV tables.

Datasets are line-delimited JSON (one event per line, sorted keys);
checkpoints are a single versioned JSON document carrying the config,
schema and all parameter arrays as decimal text. Identical inputs always
serialize byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import secrets
import sys
from contextlib import contextmanager, suppress

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
    return _attrs_from_json(attrs, {})


def _attrs_from_json(attrs: dict, strings: dict) -> dict:
    """attrs_from_json, keeping one object per distinct string in `strings`.

    A value must be a string, finite number, bool, null, or a list of those;
    a list becomes a tuple. An integer beyond the largest finite float is
    not a finite number.
    """
    if not isinstance(attrs, dict):
        raise FormatError(f"attributes must be a JSON object, got {type(attrs).__name__}")
    out = {}
    for k, v in attrs.items():
        if type(v) is str:
            v = strings.setdefault(v, v)
        elif type(v) in (list, dict):
            if type(v) is dict or any(type(x) in (list, dict) for x in v):
                raise FormatError(
                    f"attribute {k!r} nests an object or array; a value must be "
                    "a string, number, bool, null or a list of those"
                )
            v = tuple(strings.setdefault(x, x) if type(x) is str else x for x in v)
        elif type(v) is float:
            if not math.isfinite(v):
                raise FormatError(f"attribute {k!r} is not a finite number ({v!r})")
        elif type(v) is int and abs(v) > sys.float_info.max:
            raise FormatError(
                f"attribute {k!r} is not a finite number (an integer beyond the float range)"
            )
        out[strings.setdefault(k, k)] = v
    return out


@contextmanager
def atomic_write(path, newline=None):
    """Open `path` for text writing so that it is replaced whole or not at all.

    Writes go to a temporary file in the same directory, which replaces
    `path` on success and is removed if the writer raises. The old `path`
    is removed just before the rename rather than renamed over: ext4 makes
    a rename that replaces a file first push the new file's data to disk
    (its auto_da_alloc rule), a wait of 100-300 ms for a 5 MB file that
    grows with the disk's load. Neither file is synced to disk.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        with suppress(FileNotFoundError):
            os.remove(path)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_dataset(log: list[ViewingEvent], path) -> None:
    with atomic_write(path) as fh:
        for e in log:
            record = {
                "context": attrs_to_json(e.context_attributes),
                "duration_min": e.duration_min,
                "item": attrs_to_json(e.item_attributes),
                "timestamp": e.timestamp,
            }
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False))
            fh.write("\n")


def read_dataset(path) -> list[ViewingEvent]:
    """The events of a dataset file; a bad line raises FormatError naming it.

    Equal strings are one object, and so are equal item dicts whose values
    are all strings, so attribute dicts of the returned events are read-only.
    """
    events = []
    strings: dict = {}  # one object per distinct string
    items: dict = {}  # (name, value) pairs of an all-string item -> its one dict
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                ts, duration = float(rec["timestamp"]), float(rec["duration_min"])
                if not (math.isfinite(ts) and math.isfinite(duration)):
                    raise ValueError("timestamp and duration_min must be finite")
                item = rec["item"]
                if isinstance(item, dict) and all(type(v) is str for v in item.values()):
                    key = tuple(item.items())
                    if key not in items:
                        items[key] = _attrs_from_json(item, strings)
                    item = items[key]
                else:
                    item = _attrs_from_json(item, strings)
                events.append(
                    ViewingEvent(
                        item_attributes=item,
                        context_attributes=_attrs_from_json(rec["context"], strings),
                        timestamp=ts,
                        duration_min=duration,
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise FormatError(f"bad dataset record at line {lineno}: {exc}") from exc
    return events


def _schema_from_json(doc: dict) -> FeatureSchema:
    def specs(rows: list) -> tuple:
        return tuple(FeatureSpec(**{**d, "vocabulary": tuple(d["vocabulary"])}) for d in rows)

    return FeatureSchema(**{name: specs(rows) for name, rows in doc.items()})


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
        "encoder_config": dataclasses.asdict(model.config),
        "schema": dataclasses.asdict(model.schema),
        "context_encoder": _layers_to_json(model.context_encoder),
        "item_encoder": _layers_to_json(model.item_encoder),
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_checkpoint(path) -> tuple[TwoTowerModel, dict]:
    """Returns (model, metadata with objective and seed).

    A file that is not a complete checkpoint raises FormatError naming it.
    """
    try:
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
            config=EncoderConfig(**{**cfg, "hidden_widths": tuple(cfg["hidden_widths"])}),
        )
    except KeyError as exc:
        raise FormatError(f"checkpoint {path} lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path} is malformed: {exc}") from exc
    return model, {"objective": doc.get("objective"), "seed": doc.get("seed")}


def write_csv(path, header, rows, digits: int) -> None:
    """A header line, then one comma-joined line per row, replaced whole: a
    float cell (np.float64 too) takes `digits` significant digits, any other
    its str(). Nothing is quoted, so no cell may hold a comma, CR or LF."""
    spec = f".{digits}g"
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (format(v, spec) if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")
