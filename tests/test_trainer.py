import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from contextrec import losses, trainer
from contextrec.datagen import GeneratorConfig, filter_log, generate
from contextrec.features import ViewingEvent, build_schema
from contextrec.nn_core import make_rng
from contextrec.sampling import NoAdmissibleNegative
from contextrec.trainer import TrainConfig, ablate_to_single_viewer, train


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
        assert model.config.architecture == "mlp"

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
        assert model.config.architecture == "linear"
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
        sampler, loss, architecture = {
            "jcce": ("sample_npairs", "jcce_objective", "mlp"),
            "rjcce": ("sample_relaxed", "rjcce_objective", "mlp"),
            "ljcce": ("sample_npairs", "jcce_objective", "linear"),
            "bpr": ("sample_relaxed", "bpr_loss", "mlp"),
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
        assert model.config.architecture == architecture

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
