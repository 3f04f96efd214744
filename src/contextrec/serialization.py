"""Stable, versioned file formats: dataset, checkpoint, CSV tables.

Datasets are line-delimited JSON (one event per line, sorted keys);
checkpoints are a single versioned JSON document carrying the config,
schema and catalog items as JSON and each parameter array, in
TwoTowerModel.parameters() order, as the base64 text of its C-order
little-endian float64 bytes. Its shape and its layer's activation follow
from the schema and the config, and the catalog's embeddings from the
parameters and the items. Identical inputs always serialize byte-identically.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import os
import secrets
import sys
from contextlib import contextmanager, suppress

import numpy as np

from .features import _MULTI_TYPES, FeatureSchema, FeatureSpec, ViewingEvent, _sorted_tuple
from .model import EncoderConfig, TwoTowerModel, check_catalog_items
from .nn_core import chain_activations, chain_layers, check_range
from .trainer import OBJECTIVES

CHECKPOINT_VERSION = 4
_FLOAT64_LE = np.dtype("<f8")


class FormatError(ValueError):
    pass


def attrs_to_json(attrs: dict) -> dict:
    """attrs with each multi-value a list of its elements, sorted as
    canonical_key sorts them; SchemaError if they do not sort."""
    return {k: list(_sorted_tuple(k, v)) if isinstance(v, _MULTI_TYPES) else v
            for k, v in attrs.items()}


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
    def spec(d: dict) -> FeatureSpec:
        if type(d["vocabulary"]) is not list:
            raise FormatError(f"feature {d['name']!r} vocabulary is not a JSON list")
        return FeatureSpec(**{**d, "vocabulary": tuple(d["vocabulary"])})

    return FeatureSchema(**{name: tuple(map(spec, rows)) for name, rows in doc.items()})


def encode_array(a: np.ndarray) -> str:
    """The base64 of the array's C-order little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(a, dtype=_FLOAT64_LE).tobytes()).decode("ascii")


def decode_array(text, shape: tuple) -> np.ndarray:
    """The array of `shape` that encode_array wrote as `text`, as an owned,
    writeable, C-contiguous native float64 array; FormatError unless text
    is base64 of exactly that many values and every value is finite."""
    if type(text) is not str:
        raise FormatError(f"data must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise FormatError(f"data is not base64: {exc}") from None
    needed = 8 * math.prod(shape)
    if len(raw) != needed:
        raise FormatError(f"data holds {len(raw)} bytes; shape {list(shape)} needs {needed}")
    out = np.frombuffer(raw, dtype=_FLOAT64_LE).reshape(shape).astype(np.float64)
    if not np.isfinite(out).all():
        raise FormatError("data holds a non-finite value")
    return out


def _shapes(schema: FeatureSchema, config: EncoderConfig) -> dict:
    """Name -> shape of each array of TwoTowerModel.parameters(), in order,
    as the schema's input widths and the encoder config give them."""
    out = {}
    for tower, width in (("context_encoder", schema.context_width),
                         ("item_encoder", schema.item_width)):
        w = config.widths(width)
        for i, (n_in, n_out) in enumerate(zip(w, w[1:])):
            name = f"{tower} layer {i}"
            out |= {f"{name} weights": (n_out, n_in), f"{name} biases": (n_out,)}
    return out


def _check_run(objective, seed) -> None:
    """ValueError unless objective is a trainer objective and seed an integer >= 0."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {list(OBJECTIVES)}, got {objective!r}")
    check_range("seed", seed, 0, integer=True)


def save_checkpoint(model: TwoTowerModel, path, *, objective: str, seed: int) -> None:
    """Write `model` as one checkpoint document. ValueError, leaving `path`
    as it was, for what load_checkpoint refuses (a bad objective, seed or
    items, a non-finite parameter), or for layer shapes or activations other
    than those of the model's schema and encoder config: the file stores
    neither, so it would load as another model."""
    _check_run(objective, seed)
    check_catalog_items(model.items)
    shapes, params = _shapes(model.schema, model.config), model.parameters()
    activations = [[x.activation for x in t] for t in (model.context_encoder, model.item_encoder)]
    if ([p.shape for p in params] != list(shapes.values())
            or activations != [chain_activations(len(model.config.hidden_widths) + 1)] * 2):
        raise ValueError("the model's layer shapes or activations are not those that its "
                         "schema and encoder_config give, and a checkpoint stores only those")
    for name, p in zip(shapes, params):
        if not np.isfinite(p).all():
            raise ValueError(f"{name} hold a non-finite value; such values are not JSON "
                             "compliant and no checkpoint stores them")
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "objective": objective,
        "seed": seed,
        "encoder_config": dataclasses.asdict(model.config),
        "schema": dataclasses.asdict(model.schema),
        "items": [attrs_to_json(it) for it in model.items],
        "parameters": [encode_array(p) for p in params],
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_checkpoint(path) -> tuple[TwoTowerModel, dict]:
    """Returns (model, metadata with objective and seed).

    A file that is not a complete checkpoint of this format version, whose
    parameters are not the arrays its schema and encoder config give, or
    whose items, objective or seed save_checkpoint would refuse, raises
    FormatError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(
                f"unsupported checkpoint format_version: {version!r}; this version reads "
                f"format {CHECKPOINT_VERSION} only, so re-run `contextrec train` to write one"
            )
        cfg = doc["encoder_config"]
        config = EncoderConfig(**{**cfg, "hidden_widths": tuple(cfg["hidden_widths"])})
        schema = _schema_from_json(doc["schema"])
        shapes, texts = _shapes(schema, config), doc["parameters"]
        if type(texts) is not list or len(texts) != len(shapes):
            got = len(texts) if type(texts) is list else type(texts).__name__
            raise FormatError(f"parameters must be a list of the {len(shapes)} arrays that "
                              f"the schema and encoder_config give, got {got}")
        arrays = []
        for (name, shape), text in zip(shapes.items(), texts):
            try:
                arrays.append(decode_array(text, shape))
            except FormatError as exc:
                raise FormatError(f"{name}: {exc}") from None
        if type(doc["items"]) is not list or not all(type(it) is dict for it in doc["items"]):
            raise FormatError("items must be a list of attribute objects")
        items = tuple(map(attrs_from_json, doc["items"]))
        check_catalog_items(items)
        _check_run(doc["objective"], doc["seed"])
        half = len(arrays) // 2  # the towers have equally many layers
        model = TwoTowerModel(schema, chain_layers(arrays[:half]), chain_layers(arrays[half:]),
                              config, items)
    except KeyError as exc:
        raise FormatError(f"checkpoint {path} lacks key {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path} is malformed: {exc}") from exc
    return model, {"objective": doc["objective"], "seed": doc["seed"]}


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
