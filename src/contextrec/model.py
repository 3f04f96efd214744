"""Two-tower encoder pair and the serving path.

Context and content encoders map their vectorized inputs into a shared
E-dimensional space. Serving precomputes the catalog's content
embeddings once and ranks by cosine similarity with a single context
forward pass per request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import (
    FeatureSchema,
    ViewingEvent,
    canonical_key,
    vectorize_context,
    vectorize_item,
)
from .nn_core import LayerParams, ShapeError, encoder_forward, init_layers

ARCHITECTURES = ("linear", "mlp")


@dataclass(frozen=True)
class EncoderConfig:
    architecture: str = "mlp"
    hidden_widths: tuple = (250, 250)
    embedding_dim: int = 50

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")

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


def relevance(context_embedding: np.ndarray, item_embedding: np.ndarray) -> float:
    """Cosine similarity; near-zero-norm inputs score 0 (never crash a serve)."""
    x = np.asarray(context_embedding, dtype=np.float64)
    y = np.asarray(item_embedding, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("embeddings must be 1-D vectors of equal length")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx < 1e-12 or ny < 1e-12:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


@dataclass
class Catalog:
    """All recommendable items with their precomputed embeddings."""

    items: list[dict]  # ordered distinct item descriptors
    embeddings: np.ndarray  # (M, E)

    @property
    def size(self) -> int:
        return len(self.items)


def catalog_from_log(log: list[ViewingEvent]) -> list[dict]:
    """Distinct item descriptors from a log, in deterministic sorted order."""
    seen = {}
    for e in log:
        seen.setdefault(canonical_key(e.item_attributes), e.item_attributes)
    return [seen[k] for k in sorted(seen)]


def precompute_catalog(model: TwoTowerModel, items: list[dict]) -> Catalog:
    """Embed every distinct item once; static until the model changes."""
    if len(items) < 2:
        raise ValueError("catalog needs at least 2 items")
    keys = [canonical_key(it) for it in items]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate item descriptors in catalog")
    # one item at a time so each row is bit-identical to a fresh embed_item
    rows = [embed_item(model, vectorize_item(it, model.schema)) for it in items]
    return Catalog(items=list(items), embeddings=np.stack(rows))


@dataclass
class RecommendationList:
    ranked_item_indices: np.ndarray  # permutation of 0..M-1, best first
    scores: np.ndarray  # aligned with the ranking, non-increasing


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Descending score order with ties broken by ascending item index."""
    # lexsort's last key dominates; negate scores for descending order
    return np.lexsort((np.arange(len(scores)), -scores))


def recommend(
    model: TwoTowerModel, context_event: ViewingEvent, catalog: Catalog
) -> RecommendationList:
    """Rank the whole catalog for one viewing context.

    One context-encoder forward pass; item embeddings come from the
    precomputed catalog.
    """
    ctx = embed_context(model, vectorize_context(context_event, model.schema))
    norms = np.linalg.norm(catalog.embeddings, axis=1)
    cn = np.linalg.norm(ctx)
    scores = np.zeros(catalog.size)
    if cn >= 1e-12:
        ok = norms >= 1e-12  # zero-norm rows keep score 0
        scores[ok] = (catalog.embeddings[ok] @ ctx) / (norms[ok] * cn)
    order = rank_scores(scores)
    return RecommendationList(ranked_item_indices=order, scores=scores[order])
