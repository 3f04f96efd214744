"""Two-tower encoder pair and the serving path.

Context and content encoders map their vectorized inputs into a shared
E-dimensional space. Serving precomputes the catalog's content
embeddings, and caches their norms, once; each request is one context
forward pass, one matrix-vector product against the catalog and a
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
    ViewingEvent,
    canonical_key,
    item_ids,
    vectorize_context,
    vectorize_item,
)
from .nn_core import LayerParams, check_range, encoder_forward, init_layers

ARCHITECTURES = ("linear", "mlp")


@dataclass(frozen=True)
class EncoderConfig:
    architecture: str = "mlp"
    hidden_widths: tuple = (250, 250)
    embedding_dim: int = 50

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        check_range("embedding_dim", self.embedding_dim, 1, integer=True)
        for i, width in enumerate(self.hidden_widths):
            check_range(f"hidden_widths[{i}]", width, 1, integer=True)

    def widths(self, input_width: int) -> list[int]:
        if self.architecture == "linear":
            return [input_width, self.embedding_dim]
        return [input_width, *self.hidden_widths, self.embedding_dim]


@dataclass
class TwoTowerModel:
    """Paired context/content encoders sharing one embedding space."""

    schema: FeatureSchema
    context_encoder: list[LayerParams]
    item_encoder: list[LayerParams]
    config: EncoderConfig

    @classmethod
    def initialize(
        cls,
        schema: FeatureSchema,
        config: EncoderConfig,
        rng: np.random.Generator,
    ) -> "TwoTowerModel":
        return cls(
            schema=schema,
            context_encoder=init_layers(config.widths(schema.context_width), rng),
            item_encoder=init_layers(config.widths(schema.item_width), rng),
            config=config,
        )

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.context_encoder + self.item_encoder:
            out.append(layer.weights)
            out.append(layer.biases)
        return out


def embed_context(model: TwoTowerModel, context_vector: np.ndarray) -> np.ndarray:
    """Serving-mode context embedding (no dropout)."""
    emb, _ = encoder_forward(model.context_encoder, context_vector, training=False)
    return emb


def embed_item(model: TwoTowerModel, item_vector: np.ndarray) -> np.ndarray:
    """Serving-mode content embedding (no dropout)."""
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
        return np.linalg.norm(self.embeddings, axis=1)

    @cached_property
    def nonzero(self) -> np.ndarray:
        """Rows that can be scored; zero-norm rows keep score 0."""
        return self.norms >= 1e-12


def catalog_from_log(log: list[ViewingEvent]) -> list[dict]:
    """Distinct item descriptors from a log (each content's first item dict),
    in sorted content-key order, which is content-id order."""
    first = np.unique(item_ids(log)[0], return_index=True)[1].tolist()  # per id, its first event
    return [log[i].item_attributes for i in first]


def precompute_catalog(model: TwoTowerModel, items: list[dict]) -> Catalog:
    """Embed every distinct item once; static until the model changes."""
    if len(items) < 2:
        raise ValueError("catalog needs at least 2 items")
    keys = [canonical_key(it) for it in items]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate item descriptors in catalog")
    # one item at a time so each row is bit-identical to a fresh embed_item
    rows = [embed_item(model, vectorize_item([it], model.schema)[0]) for it in items]
    return Catalog(items=list(items), embeddings=np.stack(rows))


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
    """Rank the whole catalog for one viewing context.

    One context-encoder forward pass; item embeddings come from the
    precomputed catalog.
    """
    ctx = embed_context(model, vectorize_context([context_event], model.schema)[0])
    cn = np.linalg.norm(ctx)
    scores = np.zeros(catalog.size)
    if cn >= 1e-12:
        ok = catalog.nonzero
        scores[ok] = (catalog.embeddings @ ctx)[ok] / (catalog.norms[ok] * cn)
    order = rank_scores(scores)
    return RecommendationList(ranked_item_indices=order, scores=scores[order])
