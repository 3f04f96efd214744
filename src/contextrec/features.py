"""Vectorization of raw viewing events into fixed-length real vectors.

Single-valued categorical attributes become one-hot blocks, multi-valued
ones become L1-normalized multi-hot blocks, numerics are min-max scaled
to [0, 1]. Out-of-vocabulary values contribute nothing (zero block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KIND_SINGLE = "categorical_single"
KIND_MULTI = "categorical_multi"
KIND_NUMERIC = "numeric"


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class ViewingEvent:
    """One observed context-content interaction.

    Attribute values are strings (categorical), numbers (numeric), or
    tuples of strings (multi-valued categorical). Multi-valued attributes
    are stored as sorted tuples so events compare and serialize stably.
    """

    item_attributes: dict
    context_attributes: dict
    timestamp: float
    duration_min: float

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
        if isinstance(v, (list, set, frozenset, tuple)):
            v = tuple(sorted(v))
        out.append((name, v))
    return tuple(out)


@dataclass(frozen=True)
class FeatureSpec:
    """Encoding rule for one attribute."""

    name: str
    kind: str
    vocabulary: tuple = ()  # categorical kinds, lexicographically sorted
    min: float = 0.0  # numeric kind
    max: float = 0.0

    @property
    def width(self) -> int:
        return 1 if self.kind == KIND_NUMERIC else len(self.vocabulary)


@dataclass(frozen=True)
class FeatureSchema:
    context_specs: tuple
    item_specs: tuple

    @property
    def context_width(self) -> int:
        return sum(s.width for s in self.context_specs)

    @property
    def item_width(self) -> int:
        return sum(s.width for s in self.item_specs)


def _infer_kind(value_type: type) -> str:
    if issubclass(value_type, (list, set, frozenset, tuple)):
        return KIND_MULTI
    if issubclass(value_type, bool):
        return KIND_SINGLE
    if issubclass(value_type, (int, float, np.integer, np.floating)):
        return KIND_NUMERIC
    return KIND_SINGLE


def _build_specs(rows: list[dict]) -> tuple:
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


def _vectorize(attrs: dict, specs: tuple) -> np.ndarray:
    known = {s.name for s in specs}
    unknown = set(attrs) - known
    if unknown:
        raise SchemaError(f"unknown attribute names: {sorted(unknown)}")
    blocks = []
    for spec in specs:
        if spec.kind == KIND_NUMERIC:
            v = attrs.get(spec.name)
            if v is None:
                blocks.append(np.zeros(1))
            else:
                x = (float(v) - spec.min) / (spec.max - spec.min)
                blocks.append(np.array([min(max(x, 0.0), 1.0)]))
        else:
            block = np.zeros(len(spec.vocabulary))
            index = {c: i for i, c in enumerate(spec.vocabulary)}
            raw = attrs.get(spec.name)
            if raw is None:
                values = []
            elif spec.kind == KIND_MULTI:
                values = [str(v) for v in raw]
            else:
                values = [str(raw)]
            hits = [index[v] for v in values if v in index]
            if hits:
                block[hits] = 1.0
                block /= block.sum()  # L1: multi-hot block lives on the simplex
            blocks.append(block)
    return np.concatenate(blocks) if blocks else np.zeros(0)


def vectorize_context(event: ViewingEvent, schema: FeatureSchema) -> np.ndarray:
    return _vectorize(event.context_attributes, schema.context_specs)


def vectorize_item(item_attributes: dict, schema: FeatureSchema) -> np.ndarray:
    return _vectorize(item_attributes, schema.item_specs)
