"""Does knowing every viewer in front of the TV help?

Generates a log where 30% of events are co-viewed, trains one model on
the full viewer sets and one on a single-viewer ablation (each group
collapsed to one random member), and compares HR@1 on the co-viewed
test events.
"""

from contextrec.datagen import GeneratorConfig, filter_log, generate, temporal_split
from contextrec.evaluation import evaluate
from contextrec.features import build_schema
from contextrec.model import precompute_catalog, recommend
from contextrec.nn_core import make_rng
from contextrec.trainer import TrainConfig, ablate_to_single_viewer, train

log = filter_log(
    generate(
        GeneratorConfig(
            n_weeks=3,
            events_per_day=600,
            n_genres=15,
            n_households=12,
            n_users=30,
            habit_strength=4.0,
            coviewing_prob=0.3,
            seed=1,
        )
    )
)
train_log, test_log = temporal_split(log)
coviewed = [e for e in test_log if len(e.context_attributes["viewer_ids"]) >= 2]
print(f"{len(coviewed)} of {len(test_log)} test events are co-viewed")

for name, fit_log in (
    ("full viewer sets", train_log),
    ("single-viewer ablation", ablate_to_single_viewer(train_log, make_rng(8))),
):
    schema = build_schema(fit_log)
    model, _ = train(
        fit_log,
        schema,
        TrainConfig(objective="jcce", batch_size=15, max_steps=1200, seed=1),
    )
    catalog = precompute_catalog(model, model.items)
    rep = evaluate(
        lambda e: recommend(model, e, catalog).ranked_item_indices, coviewed, catalog.items, [1]
    )
    print(f"  {name:<24} HR@1 on co-viewed events: {rep.hr[1]:.3f}")
