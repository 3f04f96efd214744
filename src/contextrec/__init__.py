"""Context-aware two-tower recommender with N-pairs style objectives."""

from .features import FeatureSchema, FeatureSpec, ViewingEvent, build_schema
from .model import (
    Catalog,
    EncoderConfig,
    RecommendationList,
    TwoTowerModel,
    precompute_catalog,
    recommend,
)
from .trainer import TrainConfig, TrainHistory, train

__all__ = [
    "FeatureSchema",
    "FeatureSpec",
    "ViewingEvent",
    "build_schema",
    "Catalog",
    "EncoderConfig",
    "RecommendationList",
    "TwoTowerModel",
    "precompute_catalog",
    "recommend",
    "TrainConfig",
    "TrainHistory",
    "train",
]
