"""Train a two-tower model on a synthetic viewing log and compare it
against the non-personalized baselines.

Walks the whole pipeline: generate a planted log, filter and split it
temporally, train with the relaxed objective, then score HR@K / MRR /
AUC next to Random, Toppop and per-timeslot Toppop.
"""

from contextrec.datagen import GeneratorConfig, filter_log, generate, temporal_split
from contextrec.evaluation import evaluate, random_ranker, toppop, toppop_temporal
from contextrec.features import build_schema
from contextrec.model import precompute_catalog, recommend
from contextrec.nn_core import make_rng
from contextrec.trainer import TrainConfig, train

KS = [1, 3, 5, 10]

# A log with strong viewer habits and a moderate hour-of-day pattern.
print("generating a planted synthetic log ...")
log = filter_log(
    generate(
        GeneratorConfig(
            n_weeks=3,
            events_per_day=800,
            n_genres=20,
            habit_strength=3.0,
            temporal_strength=1.0,
            seed=0,
        )
    )
)
train_log, test_log = temporal_split(log)
print(f"  {len(train_log)} train events, {len(test_log)} test events")

schema = build_schema(train_log)
config = TrainConfig(objective="rjcce", batch_size=64, max_steps=1500, seed=0)
print(f"training ({config.objective}, up to {config.max_steps} steps) ...")
model, history = train(train_log, schema, config)
print(f"  stopped at step {history.stopping_step} ({history.stopping_reason}), "
      f"best validation loss {history.best_validation_loss:.4f}")

catalog = precompute_catalog(model, model.items)
items = catalog.items

rankers = {
    "model": lambda e: recommend(model, e, catalog).ranked_item_indices,
    "random": random_ranker(len(items), make_rng(1)),
    "toppop": toppop(train_log, items),
    "toppop_temporal": toppop_temporal(train_log, items),
}

print(f"\n{'method':<16}" + "".join(f"HR@{k:<5}" for k in KS) + "MRR     AUC")
for name, ranker in rankers.items():
    rep = evaluate(ranker, test_log, items, KS)
    cells = "".join(f"{rep.hr[k]:<8.3f}" for k in KS)
    print(f"{name:<16}{cells}{rep.mrr:<8.3f}{rep.auc:.3f}")
