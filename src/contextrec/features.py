"""Vectorization of raw viewing events into fixed-length real vectors.

Each attribute dict becomes one row of an input, and callers vectorize a
whole batch with one call. Single-valued categorical attributes become
one-hot blocks, multi-valued ones become L1-normalized multi-hot blocks,
numerics are min-max scaled to [0, 1]. Out-of-vocabulary values
contribute nothing (zero block); a value of the wrong kind for its
attribute raises SchemaError. An input narrower than SPARSE_WIDTH is a
dense float64 matrix; a wider one is nn_core.Cells, its nonzero cells,
whose first layer skips the zeros.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import is_not, itemgetter

import numpy as np

from .nn_core import Cells

KIND_SINGLE = "categorical_single"
KIND_MULTI = "categorical_multi"
KIND_NUMERIC = "numeric"

_MULTI_TYPES = (list, set, frozenset, tuple)  # multi-valued attribute values
_NUMBER_TYPES = (float, int, np.floating, np.integer)  # numeric ones, bool aside
_ABSENT = object()  # the value of a name a dict lacks (context_ids, read_dataset); equal to none

# Inputs at least this wide are vectorized as Cells. The crossover of a
# training step's layer-0 forward pass plus weight gradient, dense against
# cells, at batch 256 with 9 cells per row (README, "Sparse first layer").
SPARSE_WIDTH = 1000

# Batches of at least this many rows are vectorized one attribute column at
# a time. The crossover of a training batch's context and item inputs, row
# loop against column passes, on the train benchmark's schema (README,
# "Batch vectorization").
COLUMN_ROWS = 64


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class ViewingEvent:
    """One observed context-content interaction.

    Attribute values are strings (categorical), numbers (numeric), or
    tuples of strings (multi-valued categorical). Multi-valued attributes
    are stored as sorted tuples so events compare and serialize stably.
    Slotted to keep a loaded log small; the slots are written out because
    `dataclass(slots=True)` cannot add `__weakref__` before Python 3.11.
    """

    __slots__ = (
        "item_attributes", "context_attributes", "timestamp", "duration_min", "__weakref__"
    )

    item_attributes: dict
    context_attributes: dict
    timestamp: float
    duration_min: float

    def __reduce__(self):
        # the default restores slots with setattr, which a frozen class refuses
        return ViewingEvent, (
            self.item_attributes, self.context_attributes, self.timestamp, self.duration_min
        )

    def item_key(self):
        """Canonical hashable identity of the consumed content."""
        return canonical_key(self.item_attributes)

    def context_key(self):
        """Canonical hashable identity of the full context tuple."""
        return canonical_key(self.context_attributes)


def canonical_key(attrs: dict):
    """Hashable identity of an attribute dict; multi-values as sorted tuples."""
    out = []
    for name in sorted(attrs):
        v = attrs[name]
        if isinstance(v, _MULTI_TYPES):
            v = _sorted_tuple(name, v)
        out.append((name, v))
    return tuple(out)


def _sorted_tuple(name: str, values) -> tuple:
    """A multi-value of attribute name as a sorted tuple; SchemaError naming
    the attribute if its elements do not sort."""
    try:
        return tuple(sorted(values))
    except TypeError as exc:
        raise SchemaError(f"attribute {name!r} holds list values that do not sort: {exc}") from None


def item_ids(events) -> tuple[np.ndarray, list]:
    """Dense content ids of the events, in sorted key order: (codes, keys).

    codes[i] is the id of events[i]'s content and keys[j] the canonical_key
    of id j's first event, so ids are equal exactly when keys are, and keys
    sort ascending; keys that do not sort raise SchemaError. Each distinct
    item dict object is keyed once, found by its id(): the events keep every
    dict alive for the call, and item dicts are read-only.
    """
    dicts = [e.item_attributes for e in events]
    objects = np.fromiter(map(id, dicts), dtype=np.uint64, count=len(dicts))
    _, first, inverse = np.unique(objects, return_index=True, return_inverse=True)
    ids: dict = {}  # canonical key -> first-seen rank
    seen_of = np.empty(len(first), dtype=np.intp)  # per dict object
    for u in np.argsort(first).tolist():  # objects in first-seen order
        seen_of[u] = ids.setdefault(canonical_key(dicts[first[u]]), len(ids))
    keys = list(ids)
    try:
        order = sorted(range(len(keys)), key=keys.__getitem__)
    except TypeError as exc:  # name a feature that mixes value kinds, as build_schema does
        pairs = [pair for key in keys for pair in key]
        for name in sorted({n for n, _ in pairs}):
            _column_kind(name, [v for n, v in pairs if n == name])
        raise SchemaError(f"content attributes do not sort: {exc}") from None
    rank = np.argsort(order)  # first-seen rank -> content id
    return rank[seen_of][inverse], [keys[j] for j in order]


def universe_indices(events, items: list[dict]) -> np.ndarray:
    """Index of each event's content in items, -1 where it is absent (intp)."""
    index = {canonical_key(it): j for j, it in enumerate(items)}
    codes, keys = item_ids(events)
    return np.array([index.get(k, -1) for k in keys], dtype=np.intp)[codes]


def context_ids(events) -> np.ndarray:
    """Dense ids of the events' contexts, in first-seen order, as intp.

    Ids are equal exactly when the contexts' canonical_key are. One
    itemgetter takes each context's values in sorted name order, with a
    sentinel for a name the dict lacks (so absent differs from None). Only a
    column with a multi-value that is not a sorted tuple is made sorted
    tuples (write_dataset's lists read back as sorted tuples); one dict
    encodes the rows.
    """
    dicts = [e.context_attributes for e in events]
    names = sorted(set().union(*dicts))
    if not names:  # every context is the empty dict
        return np.zeros(len(dicts), dtype=np.intp)
    rows = _value_rows(dicts, names, _ABSENT)
    if not _sorted_multi_values(chain.from_iterable(rows)):
        rows = list(zip(*(
            column if _sorted_multi_values(column)
            else [_sorted_tuple(name, v) if isinstance(v, _MULTI_TYPES) else v for v in column]
            for name, column in zip(names, zip(*rows))
        )))
    ids: dict = {}  # row of canonical values -> context id
    return np.fromiter(
        (ids.setdefault(row, len(ids)) for row in rows), dtype=np.intp, count=len(rows)
    )


def _value_rows(dicts: list[dict], names: list, fill) -> list[tuple]:
    """Each dict's values of names, in that order, fill where it lacks one:
    one itemgetter per dict, after giving each dict that lacks a name a
    filled copy. Every dict's names must be among names."""
    dicts = list(dicts)
    for i in np.flatnonzero(np.fromiter(map(len, dicts), np.intp, len(dicts)) < len(names)):
        dicts[i] = dict.fromkeys(names, fill) | dicts[i]
    rows = map(itemgetter(*names), dicts)
    return list(rows if len(names) > 1 else zip(rows))  # one name gives bare values


def _sorted_multi_values(values) -> bool:
    """Whether each distinct multi-value in values is a sorted tuple; False
    if one is unhashable or a tuple whose elements do not sort."""
    try:
        return all(type(v) is tuple and list(v) == sorted(v)
                   for v in set(values) if isinstance(v, _MULTI_TYPES))
    except TypeError:
        return False


@dataclass(frozen=True)
class FeatureSpec:
    """Encoding rule for one attribute."""

    name: str
    kind: str
    vocabulary: tuple = ()  # categorical kinds, lexicographically sorted
    min: float = 0.0  # numeric kind
    max: float = 0.0

    def __post_init__(self):
        v = self.vocabulary
        if self.kind not in _EXPECTED:
            raise SchemaError(f"feature {self.name!r} has unknown kind {self.kind!r}")
        if self.kind == KIND_NUMERIC and not -math.inf < self.min < self.max < math.inf:
            raise SchemaError(f"numeric feature {self.name!r} needs finite min < max, "
                              f"got {self.min!r} and {self.max!r}")
        if self.kind != KIND_NUMERIC and not (type(v) is tuple and all(type(x) is str for x in v)
                                              and all(a < b for a, b in zip(v, v[1:]))):
            raise SchemaError(f"feature {self.name!r} vocabulary must be distinct strings "
                              "in sorted order")

    @property
    def width(self) -> int:
        return 1 if self.kind == KIND_NUMERIC else len(self.vocabulary)

    @cached_property
    def positions(self) -> dict:
        """Vocabulary value -> position in the block; cached, and not a field,
        so equality, hashing and checkpoints ignore it."""
        return {v: i for i, v in enumerate(self.vocabulary)}


@dataclass(frozen=True)
class FeatureSchema:
    context_specs: tuple
    item_specs: tuple

    def __post_init__(self):
        for part, width in (("context", self.context_width), ("item", self.item_width)):
            if width == 0:
                raise SchemaError(f"the {part} input is 0 wide: the schema has no {part} "
                                  "feature value to encode")

    @property
    def context_width(self) -> int:
        return sum(s.width for s in self.context_specs)

    @property
    def item_width(self) -> int:
        return sum(s.width for s in self.item_specs)


def _infer_kind(value_type: type) -> str:
    if issubclass(value_type, _MULTI_TYPES):
        return KIND_MULTI
    if issubclass(value_type, bool):
        return KIND_SINGLE
    if issubclass(value_type, _NUMBER_TYPES):
        return KIND_NUMERIC
    return KIND_SINGLE


def _column_kind(name: str, values: list) -> str:
    """The one kind of a feature's values; SchemaError if they mix kinds."""
    kinds = {_infer_kind(t) for t in set(map(type, values))}
    if len(kinds) > 1:
        raise SchemaError(f"feature {name!r} mixes value kinds {sorted(kinds)}")
    return kinds.pop()


def _build_specs(rows: list[dict]) -> tuple:
    columns = defaultdict(list)  # name -> its values, in row order
    for row in rows:
        for name, value in row.items():
            columns[name].append(value)
    specs = []
    for name in sorted(columns):
        values = columns[name]
        kind = _column_kind(name, values)
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


def build_schema(training_log: list[ViewingEvent]) -> FeatureSchema:
    """Learn vocabularies and numeric ranges from the training log only.

    Deterministic: vocabularies are sorted, feature order is sorted by
    name. Raises SchemaError on an empty log or a constant numeric
    feature.
    """
    if not training_log:
        raise SchemaError("cannot build a schema from an empty log")
    return FeatureSchema(
        context_specs=_build_specs([e.context_attributes for e in training_log]),
        item_specs=_build_specs([e.item_attributes for e in training_log]),
    )


_EXPECTED = {KIND_NUMERIC: "a number", KIND_MULTI: "a list", KIND_SINGLE: "a single value"}


def _kind_error(spec: FeatureSpec, raw) -> SchemaError:
    return SchemaError(
        f"attribute {spec.name!r} takes {_EXPECTED[spec.kind]}, got {type(raw).__name__} {raw!r}"
    )


def _vectorize(rows: list[dict], specs: tuple) -> np.ndarray | Cells:
    """One row per attribute dict: a dense matrix, or Cells when the specs
    are at least SPARSE_WIDTH wide. A missing or None value is a zero block;
    a value of the wrong kind for its spec (a string or bool for a numeric
    spec, a scalar for a multi-valued one, a list for a single-valued one)
    raises SchemaError naming the attribute. A batch of at least COLUMN_ROWS
    rows encodes each column _column_cells takes in C-level passes, and every
    other column row by row, to the same cells."""
    unknown = set().union(*rows) - {s.name for s in specs}
    if unknown:
        raise SchemaError(f"unknown attribute names: {sorted(unknown)}")
    at_row, at_col, weight = [], [], []  # the nonzero cells
    blocks = []  # the column path's (rows, cols, weights) arrays
    columns = (zip(*_value_rows(rows, [s.name for s in specs], None)) if len(rows) >= COLUMN_ROWS
               else repeat(None))
    start = 0  # first column of the spec's block
    for spec, column in zip(specs, columns):
        if column is not None and (block := _column_cells(column, spec, start)) is not None:
            blocks.append(block)
            start += spec.width
            continue
        pos, name, kind = spec.positions, spec.name, spec.kind
        lo, span = spec.min, spec.max - spec.min
        for r, attrs in enumerate(rows):
            raw = attrs.get(name)
            if raw is None:
                continue
            if kind == KIND_MULTI:
                if not isinstance(raw, _MULTI_TYPES):
                    raise _kind_error(spec, raw)
                hits = {start + pos[v] for v in map(str, raw) if v in pos}
                at_row += [r] * len(hits)
                at_col += hits
                weight += [1.0 / max(len(hits), 1)] * len(hits)  # L1: sums to 1
                continue
            if kind == KIND_NUMERIC:
                if type(raw) is bool or not isinstance(raw, _NUMBER_TYPES):
                    raise _kind_error(spec, raw)
                c, w = 0, min(max((float(raw) - lo) / span, 0.0), 1.0)
            else:
                if type(raw) is not str:
                    if isinstance(raw, _MULTI_TYPES):
                        raise _kind_error(spec, raw)
                    raw = str(raw)
                c, w = pos.get(raw), 1.0
                if c is None:
                    continue
            at_row.append(r)
            at_col.append(start + c)
            weight.append(w)
        start += spec.width
    if blocks:  # no two cells share a (row, column), so any order writes the same input
        blocks.append((np.array(at_row, dtype=np.intp), np.array(at_col, dtype=np.intp),
                       np.array(weight, dtype=np.float64)))
        at_row, at_col, weight = map(np.concatenate, zip(*blocks))
    if start >= SPARSE_WIDTH:
        at_row, at_col = np.array(at_row, dtype=np.intp), np.array(at_col, dtype=np.intp)
        order = np.argsort(at_row * start + at_col)  # by row, then column
        return Cells((len(rows), start), at_row[order], at_col[order],
                     np.array(weight, dtype=np.float64)[order])
    out = np.zeros((len(rows), start))
    out[at_row, at_col] = weight
    return out


_COLUMN_TYPES = {  # the value types _column_cells takes, per kind
    KIND_SINGLE: {str, type(None)},
    KIND_NUMERIC: {int, float, type(None)},
    KIND_MULTI: {tuple, type(None)},
}


def _column_cells(column: tuple, spec: FeatureSpec, start: int) -> tuple | None:
    """(rows, cols, weights) of the nonzero cells of spec's block, whose
    first column is start, from the block's column of values in C-level
    passes: str codes by dict lookups, int and float numerics by one clamp,
    str tuples by their flattened codes and one np.unique of the (row,
    column) pairs. None if the column holds another type, which the row loop
    then encodes or refuses."""
    types = set(map(type, column))
    if not types <= _COLUMN_TYPES[spec.kind]:
        return None
    n, pos = len(column), spec.positions
    if spec.kind == KIND_SINGLE:
        codes = np.fromiter(map(pos.get, column, repeat(-1)), dtype=np.intp, count=n)
        at = np.flatnonzero(codes >= 0)
        return at, codes[at] + start, np.ones(at.size)
    at, values = np.arange(n), column
    if type(None) in types:  # a None is a zero block
        present = np.fromiter(map(is_not, column, repeat(None)), dtype=bool, count=n)
        at, values = np.flatnonzero(present), list(compress(column, present))
    if spec.kind == KIND_NUMERIC:
        w = np.fromiter(map(float, values), dtype=np.float64, count=at.size)
        w = (w - spec.min) / (spec.max - spec.min)
        w[w < 0.0] = 0.0  # the row loop's min(max(w, 0.0), 1.0): NaN and -0.0 stay
        w[w > 1.0] = 1.0
        return at, np.full(at.size, start, dtype=np.intp), w
    flat = list(chain.from_iterable(values))
    if not set(map(type, flat)) <= {str}:
        return None
    codes = np.fromiter(map(pos.get, flat, repeat(-1)), dtype=np.intp, count=len(flat))
    owner = np.repeat(at, np.fromiter(map(len, values), dtype=np.intp, count=at.size))
    hit = codes >= 0
    cell_rows, cols = np.divmod(np.unique(owner[hit] * spec.width + codes[hit]), spec.width)
    return cell_rows, cols + start, 1.0 / np.bincount(cell_rows, minlength=n)[cell_rows]


def vectorize_context(events: list[ViewingEvent], schema: FeatureSchema) -> np.ndarray | Cells:
    """(N, context_width) input, one row per event's context."""
    return _vectorize([e.context_attributes for e in events], schema.context_specs)


def vectorize_item(items: list[dict], schema: FeatureSchema) -> np.ndarray | Cells:
    """(N, item_width) input, one row per item attribute dict."""
    return _vectorize(items, schema.item_specs)
