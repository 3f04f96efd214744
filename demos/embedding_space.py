"""Inspect the shared embedding space of a trained model.

Trains briefly on a planted log, then shows the two representation
diagnostics: the soft-nearest-neighbor entanglement curve (trained vs
freshly initialized — lower means contexts of the same content cluster
together) and the diagonal of the context/content similarity matrix.
"""

import numpy as np

from contextrec.analysis import (
    LabeledEmbeddings,
    context_embeddings_by_content,
    similarity_matrix,
    snnm_sweep,
)
from contextrec.datagen import GeneratorConfig, filter_log, generate, temporal_split
from contextrec.features import build_schema
from contextrec.model import TwoTowerModel, precompute_catalog
from contextrec.nn_core import make_rng
from contextrec.trainer import TrainConfig, train

log = filter_log(
    generate(
        GeneratorConfig(
            n_weeks=2,
            events_per_day=800,
            n_genres=12,
            habit_strength=4.0,
            temporal_strength=1.0,
            seed=2,
        )
    )
)
train_log, test_log = temporal_split(log)
schema = build_schema(train_log)

print("training ...")
model, _ = train(
    train_log, schema, TrainConfig(objective="jcce", batch_size=12, max_steps=1000, seed=2)
)
fresh = TwoTowerModel.initialize(schema, model.config, make_rng(3))

print("sweeping entanglement temperatures ...")
for name, m in (("trained", model), ("fresh", fresh)):
    emb, labels = context_embeddings_by_content(test_log, m)
    curve = snnm_sweep(
        LabeledEmbeddings(emb, labels),
        repetitions=5,
        n=min(256, len(labels)),
        rng=make_rng(0),
    )
    best = int(np.argmin(curve.means))
    print(
        f"  {name:<8} min entanglement {curve.means[best]:.3f} "
        f"(T={curve.temperatures[best]:.3g}, ±{curve.ci95[best]:.3f})"
    )

catalog = precompute_catalog(model, model.items)
sim = similarity_matrix(test_log, model, catalog)
hits = sum(
    int(np.argmax(sim.values[i])) == i
    for i in range(len(sim.content_keys))
    if not sim.empty_rows[i]
)
total = int((~sim.empty_rows).sum())
print(f"similarity-matrix rows whose argmax is their own content: {hits}/{total}")
