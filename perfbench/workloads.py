"""The benchmark's three workloads: set-up, timed operations and checks.

Every workload has the same shape:

- `setup` does what the matching CLI command does before its first
  result; the untraced run times it SETUP_REPEATS times;
- `timed_phase` interleaves the workload's operations, and a fixed
  reference kernel after each call, until `seconds` have passed, and
  reports them in three slots (`op1_rel`..`op3_rel`) as multiples of the
  reference kernel's mean time in the same run;
- `fixed_round` is one round of the same operations, run once untraced
  and once traced to give the per-layer figures and the tracing overhead.

Every operation (a `train()` call, a request, an `evaluate` call, an
analysis call) is checked against a reference that shares no code with
the program. It counts as failed when it raises or its check fails.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from contextrec import (
    analysis,
    cli,
    datagen,
    evaluation,
    features,
    losses,
    model as model_mod,
    nn_core,
    sampling,
    serialization,
    trainer,
)

import inputs
import oracles
from tracer import Tracer, train_markers

SETUP_REPEATS = 3
KS = cli.RUN_CONFIG_DEFAULTS["ks"]
SNNM_REPETITIONS = cli.RUN_CONFIG_DEFAULTS["snnm_repetitions"]
SNNM_SAMPLE = cli.RUN_CONFIG_DEFAULTS["snnm_sample_size"]

# (objective, batch size, optimizer steps per train() call). Step counts
# make each call take about a second on the seed code, except bpr, whose
# call-level preparation (validation negatives) alone takes about three.
TRAIN_PLAN = (("jcce", 30, 6), ("rjcce", 256, 15), ("bpr", 256, 3))
SMOKE_TRAIN_PLAN = (("jcce", 8, 2), ("rjcce", 16, 2), ("bpr", 16, 2))
# Shares of the timed phase: bpr calls are four times as long as the others,
# so it gets twice their share to be called more than once or twice.
TRAIN_WEIGHTS = {"jcce": 1, "rjcce": 1, "bpr": 2}

REQUEST_BLOCK = 1000  # requests per call of the request operation on `serve`
SMOKE_REQUEST_BLOCK = 20
SWEEP_SLICE = 2  # SNNM repetitions per timed slice of the sweep on `analyze`
ORACLE_REQUESTS = 200  # requests per run checked against the brute-force oracle
TRACED_REQUESTS = 2000
SMOKE_TRACED_REQUESTS = 50
SIMMATRIX_SPOT_CHECKS = 20

# Every workload reports the same end-to-end names; op1..op3 are its three
# timed operations, each as its time per unit of work divided by the mean
# time of the reference kernel in the same run (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op1_rel": "x_ref",
    "op2_rel": "x_ref",
    "op3_rel": "x_ref",
}

OBJECTIVES = ("jcce", "rjcce", "bpr")

PER_LAYER = {}
for _o in OBJECTIVES:
    PER_LAYER.update({
        f"sampling.batch_ms.{_o}": "ms",
        f"sampling.batches_per_step.{_o}": "batches/step",
        f"features.vectorize_ms.{_o}": "ms",
        f"features.vectorize_calls_per_step.{_o}": "calls/step",
        f"features.key_calls_per_step.{_o}": "calls/step",
        f"losses.objective_ms.{_o}": "ms",
        f"nn_core.forward_ms.{_o}": "ms",
        f"nn_core.backward_ms.{_o}": "ms",
        f"nn_core.adam_ms.{_o}": "ms",
        f"nn_core.step_mflop.{_o}": "MFLOP",
        f"trainer.self_ms_per_step.{_o}": "ms",
        f"trainer.prep_s.{_o}": "s",
    })
PER_LAYER.update({
    "sampling.bpr_negatives_ms": "ms",
    "sampling.duplicate_row_share.rjcce": "share",
    "sampling.assemble_share.rjcce": "share",
    "features.build_schema_s": "s",
    "features.vectorize_context_us": "us",
    "model.embed_context_us": "us",
    "model.score_us": "us",
    "model.rank_scores_us": "us",
    "model.precompute_catalog_s": "s",
    "model.catalog_from_log_s": "s",
    "model.catalog_items": "count",
    "evaluation.position_us": "us",
    "evaluation.scored_event_share": "share",
    "serialization.read_dataset_s": "s",
    "serialization.load_checkpoint_s": "s",
    "serialization.save_checkpoint_s": "s",
    "serialization.checkpoint_bytes": "bytes",
    "datagen.filter_split_s": "s",
    "datagen.generate_s": "s",
    "analysis.context_embeddings_s": "s",
    "analysis.snnm_ms": "ms",
    "analysis.snnm_calls": "count",
    "analysis.snnm_skipped_share": "share",
    "analysis.angular_distance_calls": "count",
    "analysis.angular_distance_s": "s",
    "analysis.similarity_matrix_self_s": "s",
    "trace.overhead_share": "share",
    "trace.self_sum_error_share": "share",
})


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    smoke: bool
    entry: Path  # verified input directory
    manifest: dict
    work: Path  # directory for the files a run writes


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {error}")

    def attempt(self, what: str, fn):
        """Run `fn`; an exception counts as one failed operation."""
        try:
            return fn()
        except Exception as exc:  # any failure of the program is a result here
            self.record(what, f"raised {type(exc).__name__}: {exc}")
            return None


def median(xs):
    return statistics.median(xs) if xs else None


def mean(xs):
    return statistics.fmean(xs) if xs else None


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


REFERENCE_RECORDS = 200_000  # about 25 MB of small Python objects
REFERENCE_VISITS = 50_000
_reference: dict = {}


def reference_kernel() -> float:
    """A fixed piece of work that shares no code with the program, in equal
    parts of the three kinds of work the workloads do: counting 50 000
    string-keyed records picked in a shuffled order from a 200 000-record
    table far larger than a core's own cache (each call visits the next
    slice of the order), 60 products of 256 x 256 by 256 x 128 matrices,
    and 160 cosine top-10 rankings over 2000 64-dimensional rows. About
    0.1 s on the machine it was sized on. Returns its wall time in seconds.
    Dividing a timed call by it cancels the speed of the shared machine at
    the time (see README.md, "Noise")."""
    if not _reference:
        rng = np.random.default_rng(0)
        keys = [f"k{i}" for i in range(16000)]
        _reference.update(
            records=[(keys[i % 16000], i) for i in range(REFERENCE_RECORDS)],
            order=rng.permutation(REFERENCE_RECORDS).tolist(), offset=0,
            a=rng.standard_normal((256, 256)), b=rng.standard_normal((256, 128)),
            rows=rng.standard_normal((2000, 64)), queries=rng.standard_normal((160, 64)),
        )
    r = _reference
    start = r["offset"]
    r["offset"] = (start + REFERENCE_VISITS) % REFERENCE_RECORDS
    visit = r["order"][start:start + REFERENCE_VISITS]
    records = r["records"]
    t0 = perf_counter()
    totals: dict = {}
    for j in visit:
        key, i = records[j]
        totals[key] = totals.get(key, 0) + i
    sorted(totals.items())
    for _ in range(60):
        r["a"] @ r["b"]
    norms = np.linalg.norm(r["rows"], axis=1)
    for q in r["queries"]:
        scores = r["rows"] @ q / norms
        np.argsort(-scores, kind="stable")[:10]
    return perf_counter() - t0


def balanced(seconds: float, ops: dict, weights: dict | None = None) -> dict:
    """Run the operations in `ops` (name -> function returning a list of
    samples to keep) until `seconds` have passed, each time calling the one
    that has used the least time so far, divided by its weight (default 1).
    Each operation gets its share of the phase, spread over all of it in
    calls of about a second, so a slow stretch of the machine weighs on
    every operation alike. Stops when the next call would end more than
    half a call past `seconds`; each operation runs at least once. Every
    call starts after a garbage collection, and the reference kernel runs
    after it; its times are kept under "reference". Returns name -> samples."""
    weights = weights or {}
    samples = {name: [] for name in ops}
    samples["reference"] = []
    used = dict.fromkeys(ops, 0.0)
    calls = dict.fromkeys(ops, 0)
    start = perf_counter()
    while True:
        name = min(ops, key=lambda n: (calls[n] > 0, used[n] / weights.get(n, 1)))
        elapsed = perf_counter() - start
        if calls[name] and elapsed + used[name] / calls[name] / 2 >= seconds:
            return samples
        gc.collect()
        t0 = perf_counter()
        samples[name].extend(ops[name]())
        used[name] += perf_counter() - t0
        calls[name] += 1
        samples["reference"].append(reference_kernel())


def relative(samples: dict):
    """Divider from seconds to multiples of the run's mean reference time,
    and a report line for the reference itself."""
    ref = statistics.fmean(samples["reference"])
    n = len(samples["reference"])
    return (lambda seconds: None if seconds is None else seconds / ref,
            line("reference_ms", ref * 1e3, "ms", f"mean of {n} reference kernel runs"))


def line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<24} {shown:>12} {unit:<5} {note}"


def _span(tr: Tracer, name: str, observe=None):
    return lambda fn: tr.span(name, fn, observe)


def _timed(tr: Tracer, name: str):
    return lambda fn: tr.timed(name, fn)


# ---------------------------------------------------------------------------
# train


class Train:
    """The CLI-train path: read, filter, split, build_schema, then train()
    and save_checkpoint for each objective."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cfg = inputs.config_for("train", ctx.smoke)
        self.plan = SMOKE_TRAIN_PLAN if ctx.smoke else TRAIN_PLAN
        self.train_log = self.schema = None
        self.roundtrip_checked: set = set()
        self.sha256: dict = {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.train_log = self.schema = None  # free the previous copy first
        log = serialization.read_dataset(self.ctx.entry / "dataset.jsonl")
        log = datagen.filter_log(log, min_item_count=self.cfg["min_item_count"])
        train_log, _ = datagen.temporal_split(log)
        self.schema = features.build_schema(train_log)
        self.train_log = train_log

    def fit(self, out: Outcome, objective: str, batch: int, steps: int, tr=None):
        """One train() call, its losses checked: (seconds, model) or None."""
        config = trainer.TrainConfig(
            objective=objective, batch_size=batch, max_steps=steps,
            eval_every=steps, seed=self.ctx.seed,
        )
        if tr is not None:
            tr.tag = objective
        res = out.attempt(f"train {objective}",
                          lambda: timed(trainer.train, self.train_log, self.schema, config))
        if res is None:
            return None
        train_s, (model, history) = res
        seen = [v for rec in history.records for v in rec[1:]] + [history.best_validation_loss]
        ok = all(math.isfinite(v) for v in seen)
        out.record(f"train {objective}", None if ok else f"non-finite loss in {history.records}")
        return (train_s, model) if ok else None

    def save(self, out: Outcome, objective: str, model, tr=None):
        """save_checkpoint of `model`, round-tripped the first time for each
        objective: seconds, or None on failure."""
        path = self.ctx.work / f"{objective}.json"
        if tr is not None:
            tr.tag = "save"
        res = out.attempt(f"save {objective}", lambda: timed(
            serialization.save_checkpoint, model, path, objective=objective, seed=self.ctx.seed))
        if res is None:
            return None
        if objective not in self.roundtrip_checked:
            self.roundtrip_checked.add(objective)
            error = self._roundtrip_error(model, objective, path)
            self.sha256[objective] = inputs.sha256_file(path)
            out.record(f"save {objective}", error)
            if error:
                return None
        return res[0]

    def _roundtrip_error(self, model, objective: str, path: Path) -> str | None:
        loaded, _ = serialization.load_checkpoint(path)
        if loaded.schema != model.schema or loaded.config != model.config:
            return "schema or encoder config changed in the checkpoint round trip"
        for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                return "parameters changed in the checkpoint round trip"
        again = path.with_suffix(".again.json")
        serialization.save_checkpoint(loaded, again, objective=objective, seed=self.ctx.seed)
        if again.read_bytes() != path.read_bytes():
            return "re-saving a loaded checkpoint changed its bytes"
        return None

    def timed_phase(self, out: Outcome) -> tuple[dict, list]:
        """train() calls of the three objectives, interleaved. After the
        timed phase the last model of each objective is saved and its
        checkpoint round-tripped."""
        last = {}

        def op(objective, batch, steps):
            def call():
                res = self.fit(out, objective, batch, steps)
                if res is None:
                    return []
                last[objective] = res[1]
                return [res[0]]
            return call

        train_s = balanced(self.ctx.seconds, {o: op(o, b, n) for o, b, n in self.plan},
                           TRAIN_WEIGHTS)
        save_s = [self.save(out, o, model) for o, model in last.items()]
        save_s = [x for x in save_s if x is not None]
        rel, ref_line = relative(train_s)
        metrics, report = {}, [ref_line]
        for i, (objective, batch, steps) in enumerate(self.plan, 1):
            calls = train_s[objective]
            wall = sum(calls)
            per_step = wall / (steps * len(calls)) if calls else None
            metrics[f"op{i}_rel"] = rel(per_step)
            report.append(line(f"{objective}_steps_per_s", 1 / per_step if calls else None,
                               "1/s", f"{len(calls)} train() calls of {steps} steps over their "
                               f"{wall:.1f} s, batch {batch} (op{i}_rel = time per step)"))
        report.append(line("checkpoint_save_s", median(save_s), "s",
                           f"median of {len(save_s)} saves, one per objective"))
        for objective, digest in sorted(self.sha256.items()):
            report.append(f"  checkpoint sha256 {objective}: {digest} (information, not a gate)")
        return metrics, report

    def fixed_round(self, out: Outcome, tr=None) -> dict:
        """One train() call and save per objective: op -> [seconds]."""
        samples = {"save": []}
        for objective, batch, steps in self.plan:
            res = self.fit(out, objective, batch, steps, tr)
            samples[objective] = [] if res is None else [res[0]]
            saved = None if res is None else self.save(out, objective, res[1], tr)
            samples["save"] += [] if saved is None else [saved]
        return samples

    def patches(self, tr: Tracer) -> list:
        def dup_rows(tracer, key, args, batch):
            tracer.values[key[:2] + ("rows",)] += batch.size
            tracer.values[key[:2] + ("dup_rows",)] += sum(len(g) > 1 for g in batch.groups)

        return train_markers(tr, trainer, nn_core) + [
            (serialization, "read_dataset", _span(tr, "serialization.read_dataset")),
            (datagen, "filter_log", _span(tr, "datagen.filter_log")),
            (datagen, "temporal_split", _span(tr, "datagen.temporal_split")),
            (features, "build_schema", _span(tr, "features.build_schema")),
            (serialization, "save_checkpoint", _span(tr, "serialization.save_checkpoint")),
            (trainer, "sample_npairs", _span(tr, "sampling.sample_npairs")),
            (trainer, "sample_relaxed", _span(tr, "sampling.sample_relaxed", dup_rows)),
            (trainer, "bpr_negative", _span(tr, "sampling.bpr_negative")),
            (sampling.PairIndex, "from_log", _span(tr, "sampling.PairIndex.from_log")),
            (sampling, "_assemble", _span(tr, "sampling._assemble")),
            (sampling, "group_positives", _span(tr, "sampling.group_positives")),
            (sampling, "vectorize_context", _timed(tr, "features.vectorize")),
            (sampling, "vectorize_item", _timed(tr, "features.vectorize")),
            (features.ViewingEvent, "item_key", lambda fn: tr.count("features.key", fn)),
            (features.ViewingEvent, "context_key", lambda fn: tr.count("features.key", fn)),
            (trainer, "encoder_backward", _span(tr, "nn_core.encoder_backward")),
            (trainer, "adam_step", _span(tr, "nn_core.adam_step")),
            (losses, "jcce_objective", _span(tr, "losses.objective")),
            (losses, "rjcce_objective", _span(tr, "losses.objective")),
            (losses, "bpr_loss", _span(tr, "losses.objective")),
        ]

    def layer_metrics(self, tr: Tracer) -> dict:
        T, S, C = tr.time, tr.self_time, tr.calls
        steps_of = {o: n for o, _, n in self.plan}
        m = {}
        fit_wall = {}
        for sid, name, tag, _, start, end, _, _ in tr.spans:
            if name != "trainer.train":
                continue
            fit_start = tr.fit_start[sid]
            fit_wall[tag] = end - fit_start
            children = sum(s[5] - s[4] for s in tr.spans if s[6] == sid and s[3] != "prep")
            m[f"trainer.prep_s.{tag}"] = fit_start - start
            m[f"trainer.self_ms_per_step.{tag}"] = (fit_wall[tag] - children) / steps_of[tag] * 1e3
        for objective, batch, steps in self.plan:
            def fit(table, *names):
                return tr.total(table, objective, "fit", *names)

            batches = fit(C, "sampling.sample_npairs", "sampling.sample_relaxed")
            m[f"sampling.batch_ms.{objective}"] = fit(
                S, "sampling.sample_npairs", "sampling.sample_relaxed",
                "sampling._assemble", "sampling.group_positives") / batches * 1e3
            m[f"sampling.batches_per_step.{objective}"] = batches / steps
            m[f"features.vectorize_ms.{objective}"] = fit(T, "features.vectorize") / steps * 1e3
            m[f"features.vectorize_calls_per_step.{objective}"] = fit(C, "features.vectorize") / steps
            m[f"features.key_calls_per_step.{objective}"] = fit(C, "features.key") / steps
            m[f"losses.objective_ms.{objective}"] = fit(T, "losses.objective") / steps * 1e3
            m[f"nn_core.forward_ms.{objective}"] = fit(T, "nn_core.encoder_forward") / steps * 1e3
            m[f"nn_core.backward_ms.{objective}"] = fit(T, "nn_core.encoder_backward") / steps * 1e3
            m[f"nn_core.adam_ms.{objective}"] = fit(T, "nn_core.adam_step") / steps * 1e3
            m[f"nn_core.step_mflop.{objective}"] = step_mflop(self.schema, batch, objective)
            if objective == "bpr":
                m["sampling.bpr_negatives_ms"] = fit(S, "sampling.bpr_negative") / batches * 1e3
            if objective == "rjcce":
                m["sampling.duplicate_row_share.rjcce"] = (
                    tr.values[("rjcce", "fit", "dup_rows")] / tr.values[("rjcce", "fit", "rows")])
                m["sampling.assemble_share.rjcce"] = fit(T, "sampling._assemble") / fit_wall["rjcce"]
        m["serialization.read_dataset_s"] = T[("setup", "", "serialization.read_dataset")]
        m["datagen.filter_split_s"] = tr.total(T, "setup", "", "datagen.filter_log", "datagen.temporal_split")
        m["features.build_schema_s"] = T[("setup", "", "features.build_schema")]
        key = ("save", "", "serialization.save_checkpoint")
        m["serialization.save_checkpoint_s"] = T[key] / C[key]
        m["serialization.checkpoint_bytes"] = float((self.ctx.work / "rjcce.json").stat().st_size)
        return m


def step_mflop(schema, batch: int, objective: str) -> float:
    """Arithmetic of one optimizer step computed from the array shapes, not
    measured: 2 flops per multiply-add; per dense layer one forward and two
    backward products (weights and inputs), both towers; plus, for the
    N-pairs objectives, the N x N logit product and its two gradients in
    both directions."""
    cfg = model_mod.EncoderConfig()
    macs = 0
    for width in (schema.context_width, schema.item_width):
        ws = cfg.widths(width)
        macs += sum(a * b for a, b in zip(ws, ws[1:]))
    flops = 2 * 3 * batch * macs
    if objective in ("jcce", "rjcce"):
        flops += 2 * 2 * 3 * batch * batch * cfg.embedding_dim
    return flops / 1e6


# ---------------------------------------------------------------------------
# serve


class Serve:
    """What `eval` and `recommend` do: load the checkpoint, rebuild the item
    universe from the dataset, precompute the catalog; then a closed loop
    of single requests and full evaluations of the test split."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cfg = inputs.config_for("serve", ctx.smoke)
        self.model = self.test_log = self.items = self.catalog = None
        self.reference = None
        self.rng = np.random.default_rng(ctx.seed)
        self.scored_share = None
        self.oracle_checks = self.oracle_exact = 0

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.model = self.test_log = self.items = self.catalog = None
        model, _ = serialization.load_checkpoint(self.ctx.entry / "checkpoint.json")
        log = serialization.read_dataset(self.ctx.entry / "dataset.jsonl")
        log = datagen.filter_log(log, min_item_count=self.cfg["min_item_count"])
        train_log, test_log = datagen.temporal_split(log)
        items = model_mod.catalog_from_log(train_log)
        self.catalog = model_mod.precompute_catalog(model, items)
        self.model, self.test_log, self.items = model, test_log, items

    def _reference_items(self) -> np.ndarray:
        if self.reference is None:
            specs = self.model.schema.item_specs
            vectors = np.stack([oracles.vectorize(it, specs) for it in self.items])
            self.reference = oracles.forward(self.model.item_encoder, vectors)
            self.item_keys = {oracles.canonical(it) for it in self.items}
        return self.reference

    def request(self, event):
        """One recommendation and its top-10 (item, score) list."""
        result = model_mod.recommend(self.model, event, self.catalog)
        top = [(self.catalog.items[j], float(s))
               for j, s in zip(result.ranked_item_indices[:10], result.scores[:10])]
        return result, top

    def requests(self, out: Outcome, stop) -> list:
        """Closed loop, one client: the next request is sent when the
        previous one has completed. Returns per-request seconds. The first
        ORACLE_REQUESTS requests of the run are checked against the oracle."""
        latencies, kept = [], []
        sent = 0
        while not stop(sent):
            sent += 1
            event = self.test_log[int(self.rng.integers(len(self.test_log)))]
            t0 = perf_counter()
            res = out.attempt("request", lambda: self.request(event))
            if res is None:
                continue
            latencies.append(perf_counter() - t0)
            if self.oracle_checks + len(kept) < ORACLE_REQUESTS:
                kept.append((event, res[0]))
            else:
                out.record("request", None)
        items = self._reference_items()
        schema = self.model.schema
        for event, result in kept:
            ctx = oracles.forward(self.model.context_encoder,
                                  oracles.vectorize(event.context_attributes, schema.context_specs))
            ref = oracles.cosine_scores(ctx, items)
            out.record("request", oracles.ranking_mismatch(
                result.ranked_item_indices, result.scores, ref))
            self.oracle_checks += 1
            self.oracle_exact += oracles.ranking(ref) == result.ranked_item_indices.tolist()
        return latencies

    def evaluate_once(self, out: Outcome):
        def ranker(event):
            return model_mod.recommend(self.model, event, self.catalog).ranked_item_indices

        res = out.attempt("evaluate", lambda: timed(
            evaluation.evaluate, ranker, self.test_log, self.items, KS))
        if res is None:
            return None
        seconds, report = res
        out.record("evaluate", self._report_error(report))
        self.scored_share = report.count / len(self.test_log)
        return seconds, report.count

    def _report_error(self, report) -> str | None:
        self._reference_items()
        hrs = [report.hr[k] for k in sorted(report.hr)]
        if any(b < a for a, b in zip(hrs, hrs[1:])):
            return f"HR@K is not monotone in K: {report.hr}"
        m = len(self.items)
        if abs(report.auc - (m - report.mean_position) / (m - 1)) > 1e-12:
            return "AUC differs from (M - mean position) / (M - 1)"
        expected = sum(oracles.canonical(e.item_attributes) in self.item_keys for e in self.test_log)
        if report.count != expected:
            return f"scored {report.count} test events, expected {expected}"
        return None

    def timed_phase(self, out: Outcome) -> tuple[dict, list]:
        """Blocks of single requests and full evaluate calls, interleaved."""
        block = SMOKE_REQUEST_BLOCK if self.ctx.smoke else REQUEST_BLOCK

        def evaluate():
            res = self.evaluate_once(out)
            return [] if res is None else [res]

        samples = balanced(self.ctx.seconds, {
            "request": lambda: self.requests(out, lambda sent: sent >= block),
            "evaluate": evaluate,
        })
        lat, evals = samples["request"], samples["evaluate"]
        p50, p90, p99 = (float(np.percentile(lat, q)) if lat else None for q in (50, 90, 99))
        wall = sum(s for s, _ in evals)
        count = sum(c for _, c in evals)
        rel, ref_line = relative(samples)
        metrics = {
            "op1_rel": rel(p50),
            "op2_rel": rel(p90),
            "op3_rel": rel(wall / count if count else None),
        }
        report = [
            ref_line,
            line("recommend_ms_p50", p50 and p50 * 1e3, "ms",
                 f"{len(lat)} requests, closed loop, 1 client (op1_rel)"),
            line("recommend_ms_p90", p90 and p90 * 1e3, "ms",
                 f"{len(lat)} requests, {int(len(lat) * 0.1)} beyond (op2_rel)"),
            line("recommend_ms_p99", p99 and p99 * 1e3, "ms",
                 f"{len(lat)} requests, {int(len(lat) * 0.01)} beyond (not gated: stalls of the "
                 f"shared machine set it)"),
            line("eval_events_per_s", count / wall if count else None, "1/s",
                 f"{count} scored events in {len(evals)} evaluate() calls over their {wall:.1f} s "
                 f"(op3_rel = time per event)"),
            f"  catalog items: {len(self.items)}, test events: {len(self.test_log)}; "
            f"oracle: {self.oracle_checks} requests checked, {self.oracle_exact} in exactly the "
            f"criterion-08 order",
        ]
        return metrics, report

    def fixed_round(self, out: Outcome, tr=None) -> dict:
        n = SMOKE_TRACED_REQUESTS if self.ctx.smoke else TRACED_REQUESTS
        if tr is not None:
            tr.tag = "request"
        latencies = self.requests(out, lambda sent: sent >= n)
        if tr is not None:
            tr.tag = "evaluate"
        res = self.evaluate_once(out)
        return {"request": latencies, "evaluate": [] if res is None else [res[0]]}

    def patches(self, tr: Tracer) -> list:
        return [
            (serialization, "load_checkpoint", _span(tr, "serialization.load_checkpoint")),
            (serialization, "read_dataset", _span(tr, "serialization.read_dataset")),
            (datagen, "filter_log", _span(tr, "datagen.filter_log")),
            (datagen, "temporal_split", _span(tr, "datagen.temporal_split")),
            (model_mod, "catalog_from_log", _span(tr, "model.catalog_from_log")),
            (model_mod, "precompute_catalog", _span(tr, "model.precompute_catalog")),
            (model_mod, "vectorize_item", _timed(tr, "features.vectorize_item")),
            (model_mod, "embed_item", _timed(tr, "model.embed_item")),
            (model_mod, "recommend", _span(tr, "model.recommend")),
            (model_mod, "vectorize_context", _timed(tr, "features.vectorize_context")),
            (model_mod, "embed_context", _span(tr, "model.embed_context")),
            (model_mod, "rank_scores", _span(tr, "model.rank_scores")),
            (evaluation, "evaluate", _span(tr, "evaluation.evaluate")),
            (evaluation, "position", _timed(tr, "evaluation.position")),
        ]

    def layer_metrics(self, tr: Tracer) -> dict:
        T, S, C = tr.time, tr.self_time, tr.calls

        def req(table, name):
            return table[("request", "", name)] / C[("request", "", "model.recommend")] * 1e6

        pos = ("evaluate", "", "evaluation.position")
        return {
            "features.vectorize_context_us": req(T, "features.vectorize_context"),
            "model.embed_context_us": req(T, "model.embed_context"),
            "model.score_us": req(S, "model.recommend"),
            "model.rank_scores_us": req(T, "model.rank_scores"),
            "model.precompute_catalog_s": T[("setup", "", "model.precompute_catalog")],
            "model.catalog_from_log_s": T[("setup", "", "model.catalog_from_log")],
            "model.catalog_items": float(len(self.items)),
            "evaluation.position_us": T[pos] / C[pos] * 1e6,
            "evaluation.scored_event_share": self.scored_share,
            "serialization.load_checkpoint_s": T[("setup", "", "serialization.load_checkpoint")],
            "serialization.read_dataset_s": T[("setup", "", "serialization.read_dataset")],
            "datagen.filter_split_s": tr.total(T, "setup", "", "datagen.filter_log", "datagen.temporal_split"),
        }


# ---------------------------------------------------------------------------
# analyze


class Analyze:
    """What `analyze` does after loading: per-event context embeddings (the
    timed set-up), then the SNNM temperature sweep with the CLI defaults,
    the similarity matrix and the embedding export."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cfg = inputs.config_for("analyze", ctx.smoke)
        self.model = self.test_log = self.catalog = None
        self.emb = self.labels = None
        self.reference_ctx = None
        self.sweeps = 0

    def prepare(self) -> None:
        self.model, _ = serialization.load_checkpoint(self.ctx.entry / "checkpoint.json")
        log = serialization.read_dataset(self.ctx.entry / "dataset.jsonl")
        log = datagen.filter_log(log, min_item_count=self.cfg["min_item_count"])
        train_log, self.test_log = datagen.temporal_split(log)
        self.catalog = model_mod.precompute_catalog(self.model, model_mod.catalog_from_log(train_log))

    def setup(self) -> None:
        self.emb = self.labels = None
        self.emb, self.labels = analysis.context_embeddings_by_content(self.test_log, self.model)

    def sweep(self, out: Outcome, repetitions: int = SNNM_REPETITIONS):
        """`snnm_sweep` at the CLI defaults, or a slice of it with fewer
        repetitions; each call draws fresh samples."""
        def run():
            return analysis.snnm_sweep(
                analysis.LabeledEmbeddings(self.emb, self.labels),
                repetitions=repetitions,
                n=min(SNNM_SAMPLE, len(self.labels)),
                rng=nn_core.make_rng(self.ctx.seed + self.sweeps),
            )

        self.sweeps += 1

        res = out.attempt("snnm_sweep", lambda: timed(run))
        if res is None:
            return None
        ok = np.all(np.isfinite(res[1].means))
        out.record("snnm_sweep", None if ok else "non-finite SNNM mean")
        return res[0]

    def simmatrix(self, out: Outcome):
        res = out.attempt("similarity_matrix", lambda: timed(
            analysis.similarity_matrix, self.test_log, self.model, self.catalog))
        if res is None:
            return None
        out.record("similarity_matrix", self._simmatrix_error(res[1]))
        return res[0]

    def _simmatrix_error(self, sim) -> str | None:
        rows = ~sim.empty_rows
        if not np.all(np.isnan(sim.values[sim.empty_rows])):
            return "rows of absent contents are not all NaN"
        vals = sim.values[rows]
        if not (np.all(vals >= 0.0) and np.all(vals <= 1.0)):
            return "similarity outside [0, 1]"
        if self.reference_ctx is None:
            specs = self.model.schema.context_specs
            vecs = np.stack([oracles.vectorize(e.context_attributes, specs) for e in self.test_log])
            self.reference_ctx = oracles.forward(self.model.context_encoder, vecs)
        rng = np.random.default_rng(self.ctx.seed)
        keys = [oracles.canonical(e.item_attributes) for e in self.test_log]
        present = np.flatnonzero(rows)
        m = self.catalog.size
        for _ in range(SIMMATRIX_SPOT_CHECKS):
            i = int(present[rng.integers(len(present))])
            j = int(rng.integers(m))
            key = oracles.canonical(self.catalog.items[i])
            mean = self.reference_ctx[[k == key for k in keys]].mean(axis=0)
            item = oracles.forward(self.model.item_encoder,
                                   oracles.vectorize(self.catalog.items[j], self.model.schema.item_specs))
            want = oracles.angular_similarity(mean, item)
            if abs(sim.values[i, j] - want) > oracles.SCORE_TOL:
                return f"entry ({i}, {j}) is {sim.values[i, j]!r}, reference {want!r}"
        return None

    def export(self, out: Outcome):
        path = self.ctx.work / "embeddings.csv"
        labels = [str(label) for label in self.labels]
        res = out.attempt("export_embeddings", lambda: timed(
            analysis.export_embeddings, self.emb, labels, path))
        if res is None:
            return None
        emb, back = analysis.import_embeddings(path)
        same = back == labels and emb.shape == self.emb.shape and np.array_equal(emb, self.emb)
        out.record("export_embeddings", None if same else "export/import round trip changed the data")
        return res[0]

    def fixed_round(self, out: Outcome, tr=None) -> dict:
        samples = {}
        for tag, op in (("sweep", self.sweep), ("simmatrix", self.simmatrix), ("export", self.export)):
            if tr is not None:
                tr.tag = tag
            seconds = op(out)
            samples[tag] = [] if seconds is None else [seconds]
        return samples

    def timed_phase(self, out: Outcome) -> tuple[dict, list]:
        """Slices of the SNNM sweep, similarity matrices and exports,
        interleaved. A slice is SWEEP_SLICE repetitions over the full
        temperature grid, so the sweep is timed in pieces of under a second."""
        def op(fn, *args):
            def call():
                seconds = fn(out, *args)
                return [] if seconds is None else [seconds]
            return call

        samples = balanced(self.ctx.seconds, {
            "sweep": op(self.sweep, SWEEP_SLICE),
            "simmatrix": op(self.simmatrix),
            "export": op(self.export),
        })
        per_rep, sim, export = (mean(samples[k]) for k in ("sweep", "simmatrix", "export"))
        per_rep = per_rep / SWEEP_SLICE if per_rep else None
        n = len(samples["sweep"])
        rel, ref_line = relative(samples)
        metrics = {"op1_rel": rel(per_rep), "op2_rel": rel(sim), "op3_rel": rel(export)}
        report = [
            ref_line,
            line("snnm_sweep_s", per_rep * SNNM_REPETITIONS if per_rep else None, "s",
                 f"{SNNM_REPETITIONS} reps x mean of {n} slices of {SWEEP_SLICE} reps x 20 "
                 f"temperatures x n={min(SNNM_SAMPLE, len(self.labels))} "
                 f"(op1_rel = time per repetition)"),
            line("simmatrix_s", sim, "s", f"mean of {len(samples['simmatrix'])} calls, "
                 f"{self.catalog.size} contents (op2_rel)"),
            line("export_s", export, "s", f"mean of {len(samples['export'])} exports, "
                 f"{len(self.labels)} rows (op3_rel)"),
        ]
        return metrics, report

    def patches(self, tr: Tracer) -> list:
        def skipped(tracer, key, args, result):
            tracer.values[key[:2] + ("snnm_rows",)] += args[0].size
            tracer.values[key[:2] + ("snnm_skipped",)] += result[1]

        return [
            (analysis, "context_embeddings_by_content", _span(tr, "analysis.context_embeddings_by_content")),
            (analysis, "vectorize_context", _timed(tr, "features.vectorize_context")),
            (analysis, "embed_context", _span(tr, "model.embed_context")),
            (analysis, "snnm_sweep", _span(tr, "analysis.snnm_sweep")),
            (analysis, "snnm", _span(tr, "analysis.snnm", skipped)),
            (analysis, "similarity_matrix", _span(tr, "analysis.similarity_matrix")),
            (analysis, "angular_distance", _timed(tr, "analysis.angular_distance")),
            (analysis, "export_embeddings", _span(tr, "analysis.export_embeddings")),
        ]

    def layer_metrics(self, tr: Tracer) -> dict:
        T, S, C, V = tr.time, tr.self_time, tr.calls, tr.values
        snnm = ("sweep", "", "analysis.snnm")
        sims = C[("simmatrix", "", "analysis.similarity_matrix")]
        ang = ("simmatrix", "", "analysis.angular_distance")
        return {
            "analysis.context_embeddings_s": T[("setup", "", "analysis.context_embeddings_by_content")],
            "analysis.snnm_ms": T[snnm] / C[snnm] * 1e3,
            "analysis.snnm_calls": C[snnm] / C[("sweep", "", "analysis.snnm_sweep")],
            "analysis.snnm_skipped_share": V[("sweep", "", "snnm_skipped")] / V[("sweep", "", "snnm_rows")],
            "analysis.angular_distance_calls": C[ang] / sims,
            "analysis.angular_distance_s": T[ang] / sims,
            "analysis.similarity_matrix_self_s": S[("simmatrix", "", "analysis.similarity_matrix")] / sims,
        }


WORKLOADS = {"train": Train, "serve": Serve, "analyze": Analyze}


# ---------------------------------------------------------------------------
# the two kinds of run


def settle() -> None:
    """After set-up: collect garbage and move what survives (the loaded log,
    model and catalog) out of the collector's reach, so that which timed call
    pays for a full collection does not depend on the order of the calls.
    Before each timed call `balanced` collects the previous call's garbage,
    so every call starts from the same heap."""
    gc.collect()
    gc.freeze()


def timed_run(w) -> tuple[dict, list, Outcome]:
    """End-to-end metrics with tracing off (peak RSS is added by the caller)."""
    w.prepare()
    setups = [timed(w.setup)[0] for _ in range(SETUP_REPEATS)]
    settle()
    out = Outcome()
    metrics, report = w.timed_phase(out)
    metrics["setup_s"] = median(setups)
    report.insert(0, line("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} set-ups"))
    return metrics, report, out


def traced_run(w) -> tuple[dict, list, Outcome, Tracer]:
    """Per-layer metrics: one fixed round untraced, then set-up and the same
    round traced. The overhead compares the time spent in the round's
    operations, checks excluded. Every per-layer name is emitted; layers a
    workload does not exercise read 0."""
    out = Outcome()
    w.prepare()
    w.setup()
    settle()
    untraced = sum(sum(v) for v in w.fixed_round(out).values())
    tr = Tracer()
    with tr.install(w.patches(tr)):
        tr.tag = "setup"
        w.setup()
        settle()
        traced = sum(sum(v) for v in w.fixed_round(out, tr).values())
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(w.layer_metrics(tr))
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    metrics["trace.self_sum_error_share"] = tr.self_sum_error()
    metrics["datagen.generate_s"] = w.ctx.manifest["generate_s"]
    report = [
        line("trace.overhead_share", metrics["trace.overhead_share"], "share",
             f"operations of one round: {untraced:.3f} s untraced, {traced:.3f} s traced"),
        line("spans recorded", float(len(tr.spans)), "count"),
    ]
    return metrics, report, out, tr
