"""Two-tower encoder pair and the serving path.

Context and content encoders map their vectorized inputs into a shared
E-dimensional space; a wide input arrives as nn_core.Cells, whose first
layer gathers weight columns instead of multiplying zeros. Serving
precomputes the catalog's content embeddings, judges whether they can
rank and caches their norms, once; each request is one context forward
pass, one matrix-vector product against the catalog, one divide and a
ranking. Ranking takes NumPy's default (fast) sort and falls back to a
stable sort only when the scores hold ties, so the order is always
descending score with ties broken by ascending item index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .features import (
    FeatureSchema,
    SchemaError,
    ViewingEvent,
    _infer_kind,
    canonical_key,
    item_ids,
    vectorize_context,
    vectorize_item,
)
from .nn_core import (Cells, LayerParams, check_finite, check_nonzero_norms, check_range,
                      encoder_forward, finite_row_norms, init_layers)


@dataclass(frozen=True)
class EncoderConfig:
    hidden_widths: tuple = (250, 250)  # () is the linear encoder
    embedding_dim: int = 50

    def __post_init__(self):
        check_range("embedding_dim", self.embedding_dim, 1, integer=True)
        for i, width in enumerate(self.hidden_widths):
            check_range(f"hidden_widths[{i}]", width, 1, integer=True)

    def widths(self, input_width: int) -> list[int]:
        return [input_width, *self.hidden_widths, self.embedding_dim]


@dataclass
class TwoTowerModel:
    """Paired context/content encoders sharing one embedding space."""

    schema: FeatureSchema
    context_encoder: list[LayerParams]
    item_encoder: list[LayerParams]
    config: EncoderConfig
    items: tuple = ()  # the catalog: the train split's distinct item dicts, in content-id order

    @classmethod
    def initialize(
        cls,
        schema: FeatureSchema,
        config: EncoderConfig,
        rng: np.random.Generator,
    ) -> "TwoTowerModel":
        return cls(schema, init_layers(config.widths(schema.context_width), rng),
                   init_layers(config.widths(schema.item_width), rng), config)

    def parameters(self) -> list[np.ndarray]:
        return [a for layer in self.context_encoder + self.item_encoder
                for a in (layer.weights, layer.biases)]


def embed_context(model: TwoTowerModel, context_vector: np.ndarray | Cells) -> np.ndarray:
    """Serving-mode context embedding (no dropout) of a vector or a batch."""
    emb, _ = encoder_forward(model.context_encoder, context_vector, training=False)
    return emb


def embed_item(model: TwoTowerModel, item_vector: np.ndarray | Cells) -> np.ndarray:
    """Serving-mode content embedding (no dropout) of a vector or a batch."""
    emb, _ = encoder_forward(model.item_encoder, item_vector, training=False)
    return emb


@dataclass(frozen=True)
class Catalog:
    """All recommendable items with their precomputed embeddings."""

    items: list[dict]  # ordered distinct item descriptors
    embeddings: np.ndarray  # (M, E)

    @property
    def size(self) -> int:
        return len(self.items)

    @cached_property
    def norms(self) -> np.ndarray:
        return finite_row_norms("content embedding norms", self.embeddings)


def catalog_from_log(log: list[ViewingEvent]) -> list[dict]:
    """Distinct item descriptors from a log (each content's first item dict),
    in sorted content-key order, which is content-id order."""
    first = np.unique(item_ids(log)[0], return_index=True)[1].tolist()  # per id, its first event
    return [log[i].item_attributes for i in first]


def check_catalog_items(items, schema: FeatureSchema) -> None:
    """ValueError unless items are at least 2 dicts of distinct canonical_key;
    SchemaError naming the item and attribute for a value whose kind is not
    that of the schema's feature of its name (an unknown name is left to the
    vectorizer)."""
    if len(items) < 2:
        raise ValueError(f"a catalog needs at least 2 items, got {len(items)}")
    if len(set(map(canonical_key, items))) != len(items):
        raise ValueError("duplicate item descriptors in catalog")
    kinds = {spec.name: spec.kind for spec in schema.item_specs}
    for i, item in enumerate(items):
        for name, value in item.items():
            kind = _infer_kind(type(value))
            if kinds.get(name, kind) != kind:
                raise SchemaError(f"item {i} attribute {name!r} is {kind}, but its feature "
                                  f"is {kinds[name]}")


def precompute_catalog(model: TwoTowerModel, items: list[dict]) -> Catalog:
    """Embed every distinct item once; static until the model changes. The one
    judge of whether a catalog can rank: past check_catalog_items, a non-finite row
    norm is a FloatingPointError, rows all alike a SchemaError, a zero-norm row a
    DegenerateMeasure."""
    check_catalog_items(items, model.schema)
    # one item at a time, so each row has the bits of a fresh embed_item of
    # its one-row batch, dense or cells: a row of one cell sums to those bits
    with np.errstate(all="ignore"):
        rows = [embed_item(model, vectorize_item([it], model.schema))[0] for it in items]
    catalog = Catalog(items=list(items), embeddings=np.stack(rows))
    catalog.norms  # checked here, once, and cached for every request
    if (catalog.embeddings == catalog.embeddings[0]).all():
        raise SchemaError(f"all {catalog.size} catalog items have the same embedding, so every "
                          "score ties")
    check_nonzero_norms(catalog.norms)
    return catalog


@dataclass
class RecommendationList:
    ranked_item_indices: np.ndarray  # permutation of 0..M-1, best first
    scores: np.ndarray  # aligned with the ranking, non-increasing


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Descending score order with ties broken by ascending item index.

    NaN scores rank last and -0.0 ties with 0.0.
    """
    keys = -scores
    order = np.argsort(keys)
    ranked = keys[order]
    if np.all(ranked[1:] > ranked[:-1]):
        return order  # no ties and no NaN: the order is unique
    return np.argsort(keys, kind="stable")


def recommend(
    model: TwoTowerModel, context_event: ViewingEvent, catalog: Catalog
) -> RecommendationList:
    """Rank the whole catalog for one viewing context: one context-encoder forward
    pass, then one product with the catalog and one divide by the norms. A non-finite
    norm is a FloatingPointError, a zero-norm context a DegenerateMeasure."""
    with np.errstate(all="ignore"):
        ctx = embed_context(model, vectorize_context([context_event], model.schema))[0]
        cn = np.linalg.norm(ctx)
    check_finite("context embedding norm", cn)
    check_nonzero_norms(cn)
    scores = (catalog.embeddings @ ctx) / (catalog.norms * cn)
    order = rank_scores(scores)
    return RecommendationList(ranked_item_indices=order, scores=scores[order])
