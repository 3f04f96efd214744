"""End-to-end acceptance gate.

Eleven criteria, one test each, each printing a single pass/fail line.
The heavy planted-log artifacts (generation + training) are shared by
module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from contextrec.analysis import LabeledEmbeddings, similarity_matrix, snnm, snnm_sweep
from contextrec.cli import main as cli_main
from contextrec.datagen import GeneratorConfig, filter_log, generate, temporal_split
from contextrec.evaluation import evaluate, metrics, random_ranker, toppop_temporal
from contextrec.features import build_schema, vectorize_context, vectorize_item
from contextrec.losses import (
    bpr_loss,
    jcce_objective,
    l2_reg,
    npairs_loss,
    relaxed_npairs_loss,
    rjcce_objective,
)
from contextrec.model import (
    EncoderConfig,
    TwoTowerModel,
    catalog_from_log,
    embed_context,
    embed_item,
    precompute_catalog,
    recommend,
)
from contextrec.nn_core import encoder_backward, encoder_forward, init_layers, make_rng
from contextrec.trainer import TrainConfig, ablate_to_single_viewer, train

from conftest import cells_of, finite_difference, relative_error, sparse_rows


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {description}")
    assert ok, f"criterion {number:02d} failed: {description}"


# ---------------------------------------------------------------------------
# shared planted-log artifacts (criteria 5, 8, 9, 10)

PLANTED_SEED = 7


@pytest.fixture(scope="module")
def planted():
    """A strongly planted log (~1e5 events) and a model trained on it."""
    gcfg = GeneratorConfig(
        n_weeks=4,
        events_per_day=4000,
        n_genres=30,
        habit_strength=5.0,
        temporal_strength=2.0,
        seed=PLANTED_SEED,
    )
    log = filter_log(generate(gcfg))
    train_log, test_log = temporal_split(log)
    schema = build_schema(train_log)
    items = catalog_from_log(train_log)
    tcfg = TrainConfig(
        objective="jcce",
        batch_size=30,
        max_steps=2000,
        eval_every=200,
        patience=5,
        seed=PLANTED_SEED,
    )
    t0 = time.monotonic()
    model, history = train(train_log, schema, tcfg)
    train_seconds = time.monotonic() - t0
    catalog = precompute_catalog(model, items)
    return {
        "log": log,
        "train_log": train_log,
        "test_log": test_log,
        "schema": schema,
        "items": items,
        "model": model,
        "catalog": catalog,
        "train_seconds": train_seconds,
    }


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences end to end


def _random_ids(n, rng):
    return rng.integers(0, max(1, n // 2), size=n)


def test_criterion_01_gradient_suite(rng):
    """All six losses, through both encoder architectures, vs central FD;
    dense inputs, then cells (L1 multi-hot and numeric) into both towers."""
    t0 = time.monotonic()
    instances = 0
    worst = 0.0
    for form, repeats in (("dense", 2), ("cells", 1)):
        for arch in ("mlp", "linear"):
            for loss_kind in ("npairs", "relaxed", "reg", "jcce", "rjcce", "bpr"):
                for _ in range(repeats):
                    n = int(rng.integers(3, 9))
                    e = int(rng.integers(2, 7))
                    dc, di = int(rng.integers(2, 6)), int(rng.integers(2, 6))
                    if form == "cells":
                        dc, di = dc + 6, di + 6
                    hidden = [int(rng.integers(3, 7))] if arch == "mlp" else []
                    ctx_layers = init_layers([dc] + hidden + [e], rng)
                    item_layers = init_layers([di] + hidden + [e], rng)
                    # keep relu pre-activations away from the kink so the
                    # central-difference step never crosses it
                    while True:
                        if form == "dense":
                            xc = rng.normal(size=(n, dc))
                            xi = rng.normal(size=(n, di))
                        else:
                            xc = cells_of(sparse_rows(rng, n, dc))
                            xi = cells_of(sparse_rows(rng, n, di))
                        margins = [
                            np.min(np.abs(z))
                            for layers, x in ((ctx_layers, xc), (item_layers, xi))
                            for layer, z in zip(
                                layers, encoder_forward(layers, x)[1].pre_activations
                            )
                            if layer.activation == "relu"
                        ]
                        if not margins or min(margins) > 1e-3:
                            break
                    ids = _random_ids(n, rng)
                    negs = np.array([(i + 1) % n for i in range(n)])
                    lam = 0.01

                    def compute(return_grads=False):
                        c_emb, c_tape = encoder_forward(ctx_layers, xc)
                        i_emb, i_tape = encoder_forward(item_layers, xi)
                        if loss_kind == "npairs":
                            res = npairs_loss(c_emb, i_emb)
                        elif loss_kind == "relaxed":
                            res = relaxed_npairs_loss(c_emb, i_emb, ids)
                        elif loss_kind == "reg":
                            res = l2_reg(c_emb, i_emb, lam)
                        elif loss_kind == "jcce":
                            res = jcce_objective(c_emb, i_emb, lam)
                        elif loss_kind == "rjcce":
                            res = rjcce_objective(c_emb, i_emb, ids, lam)
                        else:
                            res = bpr_loss(c_emb, i_emb, negs, lam)
                        if not return_grads:
                            return res.value
                        grads = encoder_backward(c_tape, res.grad_anchors)
                        return grads + encoder_backward(i_tape, res.grad_positives)

                    params = []
                    for layer in ctx_layers + item_layers:
                        params.extend([layer.weights, layer.biases])
                    analytic = np.concatenate(
                        [np.ravel(g) for g in compute(return_grads=True)]
                    )
                    numeric = np.concatenate(
                        [np.ravel(g) for g in finite_difference(lambda _: compute(), params)]
                    )
                    # floor above central-difference noise (~1e-11) so gradients
                    # that are structurally zero don't register as mismatches
                    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
                    worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
                    instances += 1
    elapsed = time.monotonic() - t0
    ok = instances >= 20 and worst < 1e-4 and elapsed < 30.0
    verdict(
        1,
        f"gradient suite: {instances} instances, max rel err {worst:.2e}, {elapsed:.1f}s",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 2: relaxed loss reduces exactly to the strict loss


def test_criterion_02_reduction_identity(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        e = int(rng.integers(2, 7))
        a = rng.normal(size=(n, e))
        p = rng.normal(size=(n, e))
        strict = npairs_loss(a, p)
        relaxed = relaxed_npairs_loss(a, p, np.arange(n))
        worst = max(
            worst,
            abs(strict.value - relaxed.value),
            float(np.max(np.abs(strict.grad_anchors - relaxed.grad_anchors))),
            float(np.max(np.abs(strict.grad_positives - relaxed.grad_positives))),
        )
    # a batch where every row shares one content class
    n = 6
    a = rng.normal(size=(n, 4))
    p = rng.normal(size=(n, 4))
    degenerate = relaxed_npairs_loss(a, p, np.zeros(n, dtype=int))
    ok = worst <= 1e-12 and degenerate.value == 0.0
    verdict(
        2,
        f"reduction identity: max deviation {worst:.2e}, same-content value {degenerate.value!r}",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 3: ranking-metric identities


def test_criterion_03_metric_identities(rng):
    ok = True
    for _ in range(50):
        m = int(rng.integers(2, 60))
        pis = list(rng.integers(1, m + 1, size=int(rng.integers(1, 40))))
        rep = metrics(pis, m, ks=[1])
        ok &= abs(rep.mean_position - (m - rep.auc * (m - 1))) < 1e-9
    perfect = metrics([1] * 10, m=25, ks=[1, 5])
    ok &= perfect.hr[1] == 1.0 and perfect.mrr == 1.0 and perfect.auc == 1.0
    implied = 94 - 0.832 * (94 - 1)
    ok &= abs(implied - 16.624) < 1e-12 and round(implied) == 17
    verdict(3, f"metric identities hold; M=94, AUC=0.832 -> mean position {implied}", ok)


# ---------------------------------------------------------------------------
# criterion 4: random baseline calibration


def test_criterion_04_random_baseline():
    t0 = time.monotonic()
    gcfg = GeneratorConfig(
        n_weeks=1,
        events_per_day=1600,
        n_genres=20,
        habit_strength=0.0,
        temporal_strength=0.0,
        popularity_skew=0.0,
        seed=3,
    )
    log = filter_log(generate(gcfg), min_item_count=1)
    test_log = log[:10_000]
    assert len(test_log) == 10_000
    items = catalog_from_log(log)
    assert len(items) == 20
    rep = evaluate(random_ranker(len(items), make_rng(4)), test_log, items, [1])
    elapsed = time.monotonic() - t0
    ok = abs(rep.hr[1] - 0.05) <= 0.01 and abs(rep.auc - 0.5) <= 0.01 and elapsed < 10.0
    verdict(
        4,
        f"random baseline: HR@1={rep.hr[1]:.4f} (0.05±0.01), AUC={rep.auc:.4f} (0.5±0.01), {elapsed:.1f}s",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 5: learning signal on a strongly planted log


def test_criterion_05_learning_signal(planted):
    model, catalog, items = planted["model"], planted["catalog"], planted["items"]
    test_log = planted["test_log"]
    model_rep = evaluate(
        lambda e: recommend(model, e, catalog).ranked_item_indices, test_log, items, [1]
    )
    base_rep = evaluate(
        toppop_temporal(planted["train_log"], items), test_log, items, [1]
    )
    ratio = model_rep.hr[1] / max(base_rep.hr[1], 1e-12)
    ok = ratio >= 1.5 and planted["train_seconds"] < 300.0
    verdict(
        5,
        f"learning signal: model HR@1={model_rep.hr[1]:.3f}, temporal-pop HR@1="
        f"{base_rep.hr[1]:.3f}, ratio {ratio:.2f} (needs >=1.5), trained in "
        f"{planted['train_seconds']:.0f}s",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 6: strict/relaxed objective trade-off across seeds


def test_criterion_06_objective_tradeoff():
    wins = 0
    details = []
    for seed in range(5):
        gcfg = GeneratorConfig(
            n_weeks=3,
            events_per_day=800,
            n_genres=30,
            habit_strength=1.0,
            temporal_strength=0.5,
            popularity_skew=1.2,
            seed=seed,
        )
        log = filter_log(generate(gcfg))
        train_log, test_log = temporal_split(log)
        schema = build_schema(train_log)
        items = catalog_from_log(train_log)
        scores = {}
        for objective in ("jcce", "rjcce"):
            tcfg = TrainConfig(
                objective=objective,
                batch_size=24,
                max_steps=1500,
                eval_every=300,
                patience=10,
                seed=seed,
            )
            model, _ = train(train_log, schema, tcfg)
            catalog = precompute_catalog(model, items)
            rep = evaluate(
                lambda e: recommend(model, e, catalog).ranked_item_indices,
                test_log,
                items,
                [1],
            )
            scores[objective] = (rep.hr[1], rep.auc)
        strict, relaxed = scores["jcce"], scores["rjcce"]
        won = relaxed[0] >= strict[0] and strict[1] >= relaxed[1]
        wins += won
        details.append(
            f"seed {seed}: strict HR@1={strict[0]:.3f}/AUC={strict[1]:.3f} "
            f"relaxed HR@1={relaxed[0]:.3f}/AUC={relaxed[1]:.3f} {'ok' if won else 'miss'}"
        )
    ok = wins >= 3
    verdict(6, f"objective trade-off: {wins}/5 seeds ({'; '.join(details)})", ok)


# ---------------------------------------------------------------------------
# criterion 7: full viewer sets beat the single-viewer ablation


def test_criterion_07_coviewing_ablation():
    wins = 0
    details = []
    for seed in range(5):
        gcfg = GeneratorConfig(
            n_weeks=3,
            events_per_day=600,
            n_genres=15,
            n_households=12,
            n_users=30,
            habit_strength=4.0,
            temporal_strength=0.5,
            coviewing_prob=0.3,
            popularity_skew=0.3,
            seed=seed,
        )
        log = filter_log(generate(gcfg))
        train_log, test_log = temporal_split(log)
        coviewed = [
            e for e in test_log if len(e.context_attributes["viewer_ids"]) >= 2
        ]
        items = catalog_from_log(train_log)
        hr = {}
        for name, fit_log in (
            ("full", train_log),
            ("1id", ablate_to_single_viewer(train_log, make_rng(seed + 7))),
        ):
            schema = build_schema(fit_log)
            tcfg = TrainConfig(
                objective="jcce",
                batch_size=15,
                max_steps=1200,
                eval_every=300,
                patience=10,
                seed=seed,
            )
            model, _ = train(fit_log, schema, tcfg)
            catalog = precompute_catalog(model, items)
            rep = evaluate(
                lambda e: recommend(model, e, catalog).ranked_item_indices,
                coviewed,
                items,
                [1],
            )
            hr[name] = rep.hr[1]
        won = hr["full"] >= hr["1id"]
        wins += won
        details.append(
            f"seed {seed}: full={hr['full']:.3f} 1id={hr['1id']:.3f} {'ok' if won else 'miss'}"
        )
    ok = wins >= 3
    verdict(7, f"co-viewing ablation: {wins}/5 seeds ({'; '.join(details)})", ok)


# ---------------------------------------------------------------------------
# criterion 8: catalog serving path equals a per-item brute-force oracle, and
# the model's own items are the train split's catalog


def test_criterion_08_serving_equivalence(planted):
    model, catalog = planted["model"], planted["catalog"]
    # the model carries its catalog: the train split's distinct items
    own_catalog = list(model.items) == planted["items"]
    schema = planted["schema"]
    rng = make_rng(11)
    test_log = planted["test_log"]
    picks = rng.choice(len(test_log), size=1000, replace=len(test_log) < 1000)
    mismatches = 0
    for i in picks:
        event = test_log[int(i)]
        fast = recommend(model, event, catalog).ranked_item_indices
        c = embed_context(model, vectorize_context([event], schema)[0])
        nc = np.linalg.norm(c)
        scores = []
        for item in catalog.items:
            v = embed_item(model, vectorize_item([item], schema)[0])
            nv = np.linalg.norm(v)
            s = 0.0 if nc < 1e-12 or nv < 1e-12 else float(np.dot(c, v) / (nc * nv))
            scores.append(s)
        oracle = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
        if not np.array_equal(fast, np.array(oracle)):
            mismatches += 1
    ok = mismatches == 0 and own_catalog
    verdict(8, f"serving equivalence: {mismatches}/1000 mismatched rankings, "
               f"model items are the train split's catalog = {own_catalog}", ok)


# ---------------------------------------------------------------------------
# criterion 9: trained embeddings are less entangled than fresh ones


def test_criterion_09_entanglement_separation(planted):
    from contextrec.analysis import context_embeddings_by_content

    test_log = planted["test_log"]
    trained = planted["model"]
    fresh = TwoTowerModel.initialize(
        planted["schema"], trained.config, make_rng(PLANTED_SEED + 1)
    )
    emb_t, labels = context_embeddings_by_content(test_log, trained)
    emb_f, _ = context_embeddings_by_content(test_log, fresh)
    keep = (np.linalg.norm(emb_t, axis=1) >= 1e-12) & (
        np.linalg.norm(emb_f, axis=1) >= 1e-12
    )
    labels = [l for l, k in zip(labels, keep) if k]
    n = min(512, len(labels))
    mins = {}
    for name, emb in (("trained", emb_t[keep]), ("fresh", emb_f[keep])):
        curve = snnm_sweep(
            LabeledEmbeddings(emb, labels), repetitions=20, n=n, rng=make_rng(99)
        )
        mins[name] = float(curve.means.min())
    rng = make_rng(5)
    single = LabeledEmbeddings(rng.normal(size=(12, 6)), ["only"] * 12)
    single_value = float(snnm(single, [0.7])[0][0])
    ok = mins["trained"] < mins["fresh"] and single_value == 0.0
    verdict(
        9,
        f"entanglement: min trained {mins['trained']:.4f} < min fresh "
        f"{mins['fresh']:.4f}; single-class value {single_value!r}",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 10: similarity-matrix diagonal dominance


def test_criterion_10_similarity_diagonality(planted):
    sim = similarity_matrix(planted["test_log"], planted["model"], planted["catalog"])
    m = len(sim.content_keys)
    on_diag = 0
    for i in range(m):
        if sim.empty_rows[i]:
            continue
        if int(np.argmax(sim.values[i])) == i:
            on_diag += 1
    frac = on_diag / m
    ok = frac > 0.5
    verdict(10, f"similarity diagonality: argmax on diagonal for {on_diag}/{m} contents", ok)


# ---------------------------------------------------------------------------
# criterion 11: byte-identical pipeline outputs under a fixed seed


def test_criterion_11_reproducibility(tmp_path):
    import json

    cfg = {
        "n_weeks": 1,
        "events_per_day": 150,
        "n_genres": 8,
        "n_households": 10,
        "n_users": 25,
        "max_steps": 60,
        "eval_every": 30,
        "batch_size": 8,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    outputs = {}
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}.jsonl"
        ckpt = tmp_path / f"model_{run}.json"
        report = tmp_path / f"report_{run}.csv"
        assert cli_main(["gen", "--config", str(config_path), "--out", str(data)]) == 0
        assert (
            cli_main(
                [
                    "train",
                    "--config",
                    str(config_path),
                    "--dataset",
                    str(data),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "eval",
                    "--config",
                    str(config_path),
                    "--checkpoint",
                    str(ckpt),
                    "--dataset",
                    str(data),
                    "--report",
                    str(report),
                    "--baselines",
                ]
            )
            == 0
        )
        outputs[run] = (data.read_bytes(), ckpt.read_bytes(), report.read_bytes())
    same = [x == y for x, y in zip(outputs["a"], outputs["b"])]
    ok = all(same)
    verdict(
        11,
        f"reproducibility: dataset/checkpoint/report byte-identical = {same}",
        ok,
    )
