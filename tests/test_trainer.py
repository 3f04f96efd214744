import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from contextrec import losses, trainer
from contextrec import model as model_mod
from contextrec.datagen import GeneratorConfig, filter_log, generate, temporal_split
from contextrec.features import ViewingEvent, build_schema
from contextrec.model import EncoderConfig
from contextrec.nn_core import Cells, make_rng
from contextrec.sampling import NoAdmissibleNegative
from contextrec.serialization import save_checkpoint
from contextrec.trainer import TrainConfig, ablate_to_single_viewer, train

from conftest import wide_log


def toy_log(n_contents=4, per_content=12):
    """Tiny log with a one-to-one user-genre habit."""
    events = []
    t = 0.0
    for rep in range(per_content):
        for j in range(n_contents):
            events.append(
                ViewingEvent(
                    item_attributes={"genre": f"g{j}"},
                    context_attributes={"user": f"u{j}", "hour": f"{(j * 3) % 24:02d}"},
                    timestamp=t,
                    duration_min=10.0,
                )
            )
            t += 1.0
    return events


class TestTrain:
    def test_zero_steps_returns_initialized_model(self):
        log = toy_log()
        schema = build_schema(log)
        cfg = TrainConfig(objective="jcce", batch_size=4, max_steps=0, seed=0)
        model, history = train(log, schema, cfg)
        assert history.records == []
        assert model.config.hidden_widths == (250, 250)

    def test_overfit_probe(self):
        # repeated training on a 4-content toy log must crush the loss
        log = toy_log()
        schema = build_schema(log)
        cfg = TrainConfig(
            objective="jcce",
            batch_size=4,
            max_steps=2000,
            eval_every=100,
            patience=100,
            dropout_rate=0.0,
            seed=1,
        )
        model, history = train(log, schema, cfg, encoder_config=None)
        first_train_loss = history.records[0][1]
        last_train_loss = history.records[-1][1]
        assert last_train_loss < 0.1 * first_train_loss

    def test_determinism(self):
        log = toy_log()
        schema = build_schema(log)
        cfg = TrainConfig(objective="rjcce", batch_size=8, max_steps=50, eval_every=25, seed=7)
        m1, h1 = train(log, schema, cfg)
        m2, h2 = train(log, schema, cfg)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1, p2)
        assert h1.records == h2.records

    def test_wide_checkpoint_byte_identical(self, tmp_path, monkeypatch):
        # both towers train on cells; one seed gives one checkpoint's bytes
        log = wide_log()
        schema = build_schema(log)
        cfg = TrainConfig(objective="rjcce", batch_size=64, max_steps=6, eval_every=3, seed=4)
        inputs = []
        forward = trainer.encoder_forward

        def recording_forward(layers, x, *args):
            inputs.append(x)
            return forward(layers, x, *args)

        monkeypatch.setattr(trainer, "encoder_forward", recording_forward)
        for name in ("a.json", "b.json"):
            model, _ = train(log, schema, cfg, EncoderConfig(embedding_dim=8, hidden_widths=(16,)))
            save_checkpoint(model, tmp_path / name, objective="rjcce", seed=4)
        assert inputs and all(isinstance(x, Cells) for x in inputs)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_best_checkpoint_restored(self):
        log = toy_log()
        schema = build_schema(log)
        cfg = TrainConfig(
            objective="jcce", batch_size=4, max_steps=400, eval_every=50, patience=2, seed=3
        )
        model, history = train(log, schema, cfg)
        vals = [rec[2] for rec in history.records]
        assert history.best_validation_loss == pytest.approx(min(vals))

    def test_ljcce_uses_linear_encoders(self):
        log = toy_log()
        schema = build_schema(log)
        cfg = TrainConfig(objective="ljcce", batch_size=4, max_steps=10, eval_every=5, seed=0)
        model, _ = train(log, schema, cfg)
        assert model.config.hidden_widths == ()
        assert len(model.context_encoder) == 1

    def test_bpr_objective_trains(self):
        log = toy_log(n_contents=5, per_content=20)
        schema = build_schema(log)
        cfg = TrainConfig(
            objective="bpr", batch_size=8, max_steps=300, eval_every=100, patience=50,
            dropout_rate=0.0, seed=2,
        )
        model, history = train(log, schema, cfg)
        assert history.records[-1][1] < history.records[0][1]

    def test_bpr_keys_no_event_on_its_own(self, monkeypatch):
        # ids are keyed once per call, over the whole log: no event is keyed
        # on its own, in set-up or in any fit or validation batch
        calls = []
        for name in ("item_key", "context_key"):
            real = getattr(ViewingEvent, name)
            monkeypatch.setattr(
                ViewingEvent, name, lambda e, real=real: calls.append(e) or real(e)
            )
        log = toy_log(n_contents=5, per_content=20)
        cfg = TrainConfig(objective="bpr", batch_size=8, max_steps=20, eval_every=10, seed=2)
        train(log, build_schema(log), cfg)
        assert calls == []

    def test_bpr_redraws_counted(self, monkeypatch):
        # context u0 is seen only with g1 and u1..u5 only with g0, so a batch
        # has admissible negatives exactly when it holds both contents: about
        # half of the batches of 4 hold only g0 and are redrawn
        log = [
            ViewingEvent({"genre": "g1" if i % 6 == 0 else "g0"}, {"user": f"u{i % 6}"}, i, 10.0)
            for i in range(120)
        ]
        raised = []

        def counting(batch, pair_index, rng, real=trainer.bpr_negative):
            try:
                return real(batch, pair_index, rng)
            except NoAdmissibleNegative:
                raised.append(batch)
                raise

        monkeypatch.setattr(trainer, "bpr_negative", counting)
        cfg = TrainConfig(objective="bpr", batch_size=4, max_steps=20, eval_every=10, seed=0)
        _, history = train(log, build_schema(log), cfg)
        assert history.bpr_redraws == len(raised) > 0
        _, history = train(log, build_schema(log), TrainConfig(
            objective="rjcce", batch_size=4, max_steps=20, eval_every=10, seed=0))
        assert history.bpr_redraws == 0

    def test_strict_sampling_infeasible_batch_clamped(self):
        # batch_size above distinct-content count clamps to the count
        log = toy_log(n_contents=3)
        schema = build_schema(log)
        cfg = TrainConfig(objective="jcce", batch_size=64, max_steps=5, eval_every=5, seed=0)
        model, history = train(log, schema, cfg)
        assert history.records  # ran without SamplingError

    @pytest.mark.parametrize("objective", ["jcce", "bpr"])
    def test_log_not_kept_alive(self, objective):
        # nothing of the caller's log may outlive the train() call
        log = toy_log(n_contents=4, per_content=175)
        schema = build_schema(log)
        refs = [weakref.ref(e) for e in log]
        cfg = TrainConfig(objective=objective, batch_size=4, max_steps=3, eval_every=3, seed=0)
        train(log, schema, cfg)
        del log
        gc.collect()
        assert sum(r() is not None for r in refs) == 0

    @pytest.mark.parametrize("objective", trainer.OBJECTIVES)
    def test_objective_calls_its_own_sampler_and_loss(self, monkeypatch, objective):
        # samplers are reached through trainer's globals and losses through
        # the losses module when they run, so wrappers set after import (as
        # the benchmark's spans are) see every call
        sampler, loss, hidden_widths = {
            "jcce": ("sample_npairs", "jcce_objective", (250, 250)),
            "rjcce": ("sample_relaxed", "rjcce_objective", (250, 250)),
            "ljcce": ("sample_npairs", "jcce_objective", ()),
            "bpr": ("sample_relaxed", "bpr_loss", (250, 250)),
        }[objective]
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for owner, name in [(trainer, "sample_npairs"), (trainer, "sample_relaxed"),
                            (losses, "jcce_objective"), (losses, "rjcce_objective"),
                            (losses, "bpr_loss")]:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        log = toy_log(n_contents=5, per_content=20)
        cfg = TrainConfig(objective=objective, batch_size=4, max_steps=4, eval_every=2, seed=0)
        model, _ = train(log, build_schema(log), cfg)
        assert set(calls) == {sampler, loss}
        assert model.config.hidden_widths == hidden_widths

    def test_collapsed_item_tower_refused(self):
        # a huge lam at a high learning rate kills the item tower's ReLUs (the
        # CLI test config's shape): every item then embeds as the last bias,
        # so train() refuses the best parameters instead of returning them
        gen = GeneratorConfig(n_weeks=1, events_per_day=120, n_genres=8, n_households=10,
                              n_users=25)
        log, _ = temporal_split(filter_log(generate(gen), 3.0, None))
        cfg = TrainConfig(objective="rjcce", lam=100.0, learning_rate=0.01, batch_size=8,
                          max_steps=60, eval_every=30)
        message = ("at the best step, 60, the item tower cannot rank the catalog: all 8 catalog "
                   "items have the same embedding, so every score ties")
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            train(log, build_schema(log), cfg)

    def test_zero_norm_item_refused(self, monkeypatch):
        # g0 embeds to zero at the catalog build: it has no cosine, so train()
        # refuses the best parameters as it does a collapsed tower
        embed = model_mod.embed_item
        monkeypatch.setattr(model_mod, "embed_item", lambda m, v: embed(m, v) * (v[0, 0] == 0))
        log = toy_log()
        cfg = TrainConfig(objective="jcce", batch_size=4, max_steps=4, eval_every=2, seed=0)
        message = ("at the best step, 4, the item tower cannot rank the catalog: zero-norm "
                   "embedding rows are not allowed")
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            train(log, build_schema(log), cfg)

    def test_default_rjcce_learns(self):
        # the shipped default, rjcce at the default lam, on one week of the
        # generator's defaults: the item tower keeps every content apart and
        # the validation loss falls
        log, _ = temporal_split(filter_log(generate(GeneratorConfig(n_weeks=1)), 3.0, None))
        cfg = TrainConfig(objective="rjcce", max_steps=300, eval_every=50, seed=0)
        model, history = train(log, build_schema(log), cfg)
        catalog = model_mod.precompute_catalog(model, model.items)
        assert len(np.unique(catalog.embeddings, axis=0)) == catalog.size == 20
        assert history.records[-1][2] < history.records[0][2]

    def test_negative_seed_rejected(self):
        # the CLI checks seed before TrainConfig does; a library caller has only this check
        with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0, got -1")):
            TrainConfig(seed=-1)


class TestAblateToSingleViewer:
    def ev(self, viewers, t=0.0):
        return ViewingEvent(
            item_attributes={"genre": "g"},
            context_attributes={"viewer_ids": tuple(sorted(viewers)), "hour": "20"},
            timestamp=t,
            duration_min=5.0,
        )

    def test_solitary_unchanged(self):
        log = [self.ev(["u1"])]
        out = ablate_to_single_viewer(log, make_rng(0))
        assert out == log

    def test_group_collapsed_to_member(self):
        log = [self.ev(["u1", "u2"])]
        out = ablate_to_single_viewer(log, make_rng(1))
        kept = out[0].context_attributes["viewer_ids"]
        assert len(kept) == 1 and kept[0] in ("u1", "u2")
        assert out[0].context_attributes["hour"] == "20"

    def test_uniform_choice(self):
        rng = make_rng(2)
        counts = {"u1": 0, "u2": 0}
        for _ in range(10_000):
            out = ablate_to_single_viewer([self.ev(["u1", "u2"])], rng)
            counts[out[0].context_attributes["viewer_ids"][0]] += 1
        assert abs(counts["u1"] / 10_000 - 0.5) < 0.02

    def test_missing_feature_rejected(self):
        log = [
            ViewingEvent({"genre": "g"}, {"user": "u1"}, 0.0, 5.0),
        ]
        with pytest.raises(ValueError):
            ablate_to_single_viewer(log, make_rng(3))


def test_no_validation_leakage():
    # schema and pair index must come from the fit portion only; here we
    # check the split boundary: validation events are the temporal tail
    log = toy_log()
    schema = build_schema(log)
    cfg = TrainConfig(objective="jcce", batch_size=4, max_steps=10, eval_every=5,
                      validation_fraction=0.25, seed=0)
    model, history = train(log, schema, cfg)
    assert history.records


def test_dropout_only_during_fit():
    # validation loss with dropout_rate > 0 must be reproducible (no
    # stochastic masks during evaluation)
    log = toy_log()
    schema = build_schema(log)
    cfg = TrainConfig(objective="jcce", batch_size=4, max_steps=40, eval_every=20,
                      dropout_rate=0.5, seed=4)
    _, h1 = train(log, schema, cfg)
    _, h2 = train(log, schema, cfg)
    assert [r[2] for r in h1.records] == [r[2] for r in h2.records]


@pytest.mark.parametrize("objective, loss", [("jcce", "jcce_objective"),
                                             ("rjcce", "rjcce_objective"), ("bpr", "bpr_loss")])
def test_validation_computes_no_gradient(monkeypatch, objective, loss):
    # a loss computes its gradients when they are first read: each fit step
    # reads them, a validation batch only its value
    results = []
    original = getattr(losses, loss)

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(losses, loss, recording)
    log = toy_log(n_contents=6, per_content=20)
    cfg = TrainConfig(objective=objective, batch_size=4, max_steps=4, eval_every=2, seed=2)
    _, history = train(log, build_schema(log), cfg)
    assert len(history.records) == 2
    per_eval = (len(results) - 4) // 2  # the validation batches
    read = ["_pair" in vars(res) for res in results]
    assert per_eval > 0
    assert read == ([True] * 2 + [False] * per_eval) * 2
