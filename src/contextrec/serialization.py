"""Stable, versioned file formats: dataset, checkpoint, CSV tables.

Datasets are versioned, dictionary-coded JSON lines: a header of each
attribute's distinct values, then one array of table indices per event;
checkpoints are a single versioned JSON document carrying the config,
schema, catalog items and data split (a SplitConfig, or null) as JSON, each
stored object (encoder config, schema, feature spec, split) holding exactly
its class's fields, and each parameter array, in TwoTowerModel.parameters()
order, as the base64 text of its C-order little-endian float64 bytes. Its
shape and its layer's activation follow from the schema and the config, and
the catalog's embeddings from the parameters and the items. Identical inputs
always serialize byte-identically.
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
from itertools import compress, islice, repeat

import numpy as np

from .datagen import SplitConfig
from .features import (
    _ABSENT, _MULTI_TYPES, FeatureSchema, FeatureSpec, SchemaError, ViewingEvent, _sorted_tuple,
)
from .model import EncoderConfig, TwoTowerModel, check_catalog_items
from .nn_core import chain_activations, chain_layers
from .trainer import TrainConfig

CHECKPOINT_VERSION = 5
CHECKPOINT_KEYS = {"encoder_config", "format_version", "items", "objective", "parameters", "schema",
                   "seed", "split"}  # what save_checkpoint writes: all that load_checkpoint reads
DATASET_VERSION = 2
_CHUNK_LINES = 4096  # event lines per json.loads call of read_dataset
_FLOAT64_LE = np.dtype("<f8")


class FormatError(ValueError):
    pass


def attrs_to_json(attrs: dict) -> dict:
    """attrs with each multi-value a list of its elements, sorted as
    canonical_key sorts them; SchemaError if they do not sort."""
    return {k: list(_sorted_tuple(k, v)) if isinstance(v, _MULTI_TYPES) else v
            for k, v in attrs.items()}


def attrs_from_json(attrs: dict) -> dict:
    """attrs as read: a value must be a string, finite number, bool, null,
    or a list of those; a list becomes a tuple. An integer beyond the
    largest finite float is not a finite number.
    """
    if not isinstance(attrs, dict):
        raise FormatError(f"attributes must be a JSON object, got {type(attrs).__name__}")
    out = {}
    for k, v in attrs.items():
        if type(v) in (list, dict):
            if type(v) is dict or any(type(x) in (list, dict) for x in v):
                raise FormatError(
                    f"attribute {k!r} nests an object or array; a value must be "
                    "a string, number, bool, null or a list of those"
                )
            v = tuple(v)
        elif type(v) is float:
            if not math.isfinite(v):
                raise FormatError(f"attribute {k!r} is not a finite number ({v!r})")
        elif type(v) is int and abs(v) > sys.float_info.max:
            raise FormatError(
                f"attribute {k!r} is not a finite number (an integer beyond the float range)"
            )
        out[k] = v
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
    """Write `log` in dataset format DATASET_VERSION, replacing `path` whole.

    Line 1 is the header: `format_version`, then per part ("context",
    "item") each attribute name, sorted, with the list of its distinct
    attrs_to_json values in first-seen order, told apart by their JSON
    text. Each later line is one event, `[timestamp, duration_min, cell...]`:
    per context name, then per item name, the index of the event's value in
    that name's list, or -1 where the event lacks the attribute.
    """
    (ctx_names, ctx_tables, ctx_cells), (item_names, item_tables, item_cells) = (
        _encode_part([e.context_attributes for e in log]),
        _encode_part([e.item_attributes for e in log]),
    )
    header = {
        "format_version": DATASET_VERSION,
        "context": dict(zip(ctx_names, ctx_tables)),
        "item": dict(zip(item_names, item_tables)),
    }
    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    with atomic_write(path) as fh:
        fh.write(encode(header) + "\n")
        for e, ctx, item in zip(log, ctx_cells, item_cells):
            fh.write(encode([e.timestamp, e.duration_min, *ctx, *item]) + "\n")


def _encode_part(dicts: list[dict]) -> tuple[list, list, list]:
    """(names, tables, cells) of one part of a log's events: the sorted
    attribute names, each name's distinct attrs_to_json values in first-seen
    order, and per dict its index into each name's table, -1 where the dict
    lacks the name."""
    names = sorted(set().union(*dicts))
    positions = [{} for _ in names]  # per name: value key -> index in its table
    tables = [[] for _ in names]
    cells = []
    for attrs in map(attrs_to_json, dicts):
        row = []
        for name, pos, table in zip(names, positions, tables):
            if name not in attrs:
                row.append(-1)
                continue
            v = attrs[name]
            # keys as distinct as JSON texts, so 1, 1.0, true, 0.0 and
            # -0.0 stay apart, and so do the string "[]" and the list []:
            # a string itself, a list its type and text, any other value
            # its type and repr (a float's repr is its text)
            key = (v if type(v) is str else (list, json.dumps(v)) if type(v) is list
                   else (type(v), repr(v)))
            index = pos.setdefault(key, len(table))
            if index == len(table):
                table.append(v)
            row.append(index)
        cells.append(row)
    return names, tables, cells


def read_dataset(path) -> list[ViewingEvent]:
    """The events of a dataset file of format DATASET_VERSION.

    A file without that version is refused with a FormatError. So is a bad
    header value, naming its attribute, and a bad event line, naming the
    line: the table values pass attrs_from_json's checks once each, a list
    becoming a sorted tuple (a list that does not sort is a bad value), and the
    event lines, parsed in chunks of _CHUNK_LINES with one json.loads call,
    are checked column by column; a chunk that fails is parsed again line by
    line to find the line. Events with the same item cells share one item
    dict, so attribute dicts of the returned events are read-only.
    """
    events: list[ViewingEvent] = []
    items: dict = {}  # item cells -> the one dict of those values
    with open(path, "rb") as fh:
        (ctx_names, ctx_tables), (item_names, item_tables) = _read_header(fh.readline())
        labels = [f"context attribute {n!r}" for n in ctx_names] + [
            f"item attribute {n!r}" for n in item_names]
        sizes = [len(t) - 1 for t in ctx_tables + item_tables]
        n_ctx, lineno = len(ctx_names), 2
        while lines := list(islice(fh, _CHUNK_LINES)):
            columns = _chunk_columns(lines, lineno, labels, sizes)
            lineno += len(lines)
            n, ctx_columns, item_columns = len(lines), columns[2:2 + n_ctx], columns[2 + n_ctx:]
            contexts = _dicts(ctx_names, ctx_tables, ctx_columns, n)
            keys = list(zip(*item_columns)) if item_columns else [()] * n
            new = [k for k in dict.fromkeys(keys) if k not in items]
            items.update(zip(new, _dicts(item_names, item_tables, list(zip(*new)), len(new))))
            events += map(ViewingEvent, map(items.__getitem__, keys), contexts,
                          map(float, columns[0]), map(float, columns[1]))
    return events


def _read_header(line: bytes) -> tuple:
    """((names, tables) of the context, (names, tables) of the item) of a
    dataset's first line; each table ends with _ABSENT, which cell -1 reads."""
    try:
        doc = json.loads(line.decode("utf-8")) if line.strip() else None
    except ValueError as exc:
        raise FormatError(f"bad dataset header at line 1: {exc}") from exc
    version = doc.get("format_version") if type(doc) is dict else None
    if version != DATASET_VERSION:
        raise FormatError(
            f"unsupported dataset format_version: {version!r}; this version reads format "
            f"{DATASET_VERSION} only, so re-run `contextrec gen` to write one"
        )
    parts = []
    try:
        for part in ("context", "item"):
            attrs = doc.get(part)
            if type(attrs) is not dict or any(type(v) is not list for v in attrs.values()):
                raise FormatError(f"{part!r} must map each attribute name to a JSON list of its "
                                  "values")
            if list(attrs) != sorted(attrs):
                raise FormatError(f"{part!r} attribute names are not sorted")
            tables = [[_header_value(n, v) for v in values] + [_ABSENT]
                      for n, values in attrs.items()]
            parts.append((list(attrs), tables))
    except FormatError as exc:
        raise FormatError(f"bad dataset header at line 1: {exc}") from exc
    return tuple(parts)


def _header_value(name: str, value):
    """A header table value as attrs_from_json reads it, a list made a
    sorted tuple as ViewingEvent keeps a multi-value; FormatError naming the
    attribute if its elements do not sort."""
    value = attrs_from_json({name: value})[name]
    if type(value) is not tuple:
        return value
    try:
        return _sorted_tuple(name, value)
    except SchemaError as exc:
        raise FormatError(str(exc)) from None


def _chunk_columns(lines: list[bytes], lineno: int, labels: list, sizes: list) -> list:
    """The columns of the event lines `lines`, the first of which is line
    `lineno`, after _check_rows; FormatError naming the first bad line."""
    text = b",".join(lines)
    # a checked row is a flat array, holding one "]", so when every line
    # ends in "]" the rows are the lines' values one to one
    if text.count(b"]\n,") == len(lines) - 1 and text.rstrip().endswith(b"]"):
        try:
            rows = json.loads((b"[" + text + b"]").decode("utf-8"))
            if len(rows) == len(lines):
                return _check_rows(rows, labels, sizes)
        except ValueError:
            pass
    rows = []
    for n, raw in enumerate(lines, lineno):
        try:
            rows.append(json.loads(raw.decode("utf-8")))
            _check_rows(rows[-1:], labels, sizes)
        except ValueError as exc:
            raise FormatError(f"bad dataset record at line {n}: {exc}") from exc
    return _check_rows(rows, labels, sizes)


def _check_rows(rows: list, labels: list, sizes: list) -> list:
    """The columns of rows, each a tuple; ValueError unless every row is a
    list of a finite timestamp and duration_min, then per attribute an int
    cell in [-1, its table size)."""
    width = 2 + len(sizes)
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {width}:
        raise ValueError(f"a record must be a JSON array of {width} values: timestamp, "
                         f"duration_min and {len(sizes)} attribute cells")
    columns = list(zip(*rows))
    times = columns[0] + columns[1]
    if not set(map(type, times)) <= {int, float} or not _all_finite(times):
        raise ValueError("timestamp and duration_min must be finite numbers")
    for column, label, size in zip(columns[2:], labels, sizes):
        if set(map(type, column)) != {int} or min(column) < -1 or max(column) >= size:
            bad = next(c for c in column if type(c) is not int or not -1 <= c < size)
            raise ValueError(f"{label} cell must be an index in [-1, {size}), got {bad!r}")
    return columns


def _all_finite(numbers) -> bool:
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:  # an integer beyond the float range
        return False


def _dicts(names: list, tables: list, columns: list, n: int) -> list[dict]:
    """The attribute dict of each of the n rows of the cell columns; a name
    whose cell is -1 is left out."""
    if not columns:
        return [{} for _ in range(n)]
    values = [list(map(table.__getitem__, column)) for table, column in zip(tables, columns)]
    out = list(map(dict, map(zip, repeat(names), zip(*values))))
    for i in {i for column in columns if -1 in column
              for i in compress(range(n), map((-1).__eq__, column))}:
        out[i] = {k: v for k, v in out[i].items() if v is not _ABSENT}
    return out


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


def _from_json(cls, what: str, doc, lists=(), entry=None):
    """cls(**doc) for a JSON object doc of exactly cls's fields, each field in
    lists a JSON list passed as the tuple of its entries (mapped by entry, if
    given). FormatError naming `what` and the key for a missing field or a
    non-list; cls's own TypeError for another key or a doc of another type."""
    if type(doc) is dict:
        if missing := [f.name for f in dataclasses.fields(cls) if f.name not in doc]:
            raise FormatError(f"{what} lacks key {missing[0]!r}")
        if bad := [key for key in lists if type(doc[key]) is not list]:
            raise FormatError(f"{what} {bad[0]} is not a JSON list")
        doc = doc | {key: tuple(map(entry, doc[key]) if entry else doc[key]) for key in lists}
    return cls(**doc)


def save_checkpoint(model: TwoTowerModel, path, *, objective: str, seed: int,
                    split: SplitConfig | None = None) -> None:
    """Write `model` as one checkpoint document. ValueError, leaving `path`
    as it was, for what load_checkpoint refuses (a bad objective, seed or
    items, a non-finite parameter), or for layer shapes or activations other
    than those of the model's schema and encoder config: the file stores
    neither, so it would load as another model."""
    TrainConfig(objective=objective, seed=seed)  # the trainer's rule for both
    check_catalog_items(model.items, model.schema)
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
        "split": None if split is None else dataclasses.asdict(split),
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_checkpoint(path) -> tuple[TwoTowerModel, dict]:
    """Returns (model, metadata with objective, seed and split, a SplitConfig or None).

    A file that is not a checkpoint of this format version of exactly its
    CHECKPOINT_KEYS, whose encoder config, schema, specs or split are not objects
    of exactly their class's fields, whose parameters do not fit those, or whose
    items, objective or seed save_checkpoint would refuse raises FormatError naming it.
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
        if extra := sorted(doc.keys() - CHECKPOINT_KEYS):  # refused, not dropped unread
            raise FormatError(f"keys {extra} are not in format {CHECKPOINT_VERSION}")
        config = _from_json(EncoderConfig, "encoder_config", doc["encoder_config"],
                            ("hidden_widths",))
        schema = _from_json(FeatureSchema, "schema", doc["schema"], ("context_specs", "item_specs"),
                            lambda d: _from_json(FeatureSpec, f"feature {d.get('name')!r}", d,
                                                 ("vocabulary",)))
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
        check_catalog_items(items, schema)
        TrainConfig(objective=doc["objective"], seed=doc["seed"])
        split = None if doc["split"] is None else _from_json(SplitConfig, "split", doc["split"])
        half = len(arrays) // 2  # the towers have equally many layers
        model = TwoTowerModel(schema, chain_layers(arrays[:half]), chain_layers(arrays[half:]),
                              config, items)
    except KeyError as exc:
        raise FormatError(f"checkpoint {path} lacks key {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path} is malformed: {exc}") from exc
    return model, {"objective": doc["objective"], "seed": doc["seed"], "split": split}


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
