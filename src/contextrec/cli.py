"""Command-line surface: gen, train, eval, recommend, analyze.

All commands are reproducible byte-for-byte given identical inputs, seeds and
NumPy/BLAS build, at any thread count where main can pin the BLAS to one thread.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric/degenerate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import analysis, evaluation, serialization
from .datagen import GeneratorConfig, SplitConfig, filter_log, generate, temporal_split
from .features import SchemaError, ViewingEvent, build_schema, universe_indices
from .model import precompute_catalog, recommend
from .nn_core import DegenerateMeasure, check_range, make_rng, one_blas_thread
from .sampling import SamplingError
from .trainer import OBJECTIVES, TrainConfig, ablate_to_single_viewer, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


RUN_CONFIG_DEFAULTS = {
    # generator, training, dataset protocol
    **{f.name: f.default for cls in (GeneratorConfig, TrainConfig, SplitConfig)
       for f in dataclasses.fields(cls)},
    # evaluation
    "ks": [1, 3, 5, 10],
    # analysis
    "snnm_repetitions": 20,
    "snnm_sample_size": 512,
    "analysis_max_events": 20000,
}


def _key_label(item_key) -> str:
    """Compact CSV-safe label for a canonical item key: ";" for ",", " " for CR and LF."""
    parts = []
    for name, value in item_key:
        if isinstance(value, tuple):
            value = "+".join(str(v) for v in value)
        parts.append(f"{name}={value}")
    return "|".join(parts).translate(str.maketrans(",\r\n", ";  "))


def _check_ks(ks):
    """HR cutoffs, from the config file or --Ks: positive integers."""
    if not (isinstance(ks, list) and ks and all(type(k) is int and k >= 1 for k in ks)):
        raise ConfigError(f"ks must be a non-empty list of positive integers, got {ks!r}")
    return ks


def load_run_config(path: str | None, overrides: dict, split: SplitConfig | None = None) -> dict:
    """Defaults, then config file, then command-line overrides.

    Unknown keys in the config file are rejected. With `split`, a checkpoint's
    data split, the protocol keys take its values and may not be set to others.
    """
    config = {**RUN_CONFIG_DEFAULTS, **(dataclasses.asdict(split) if split else {})}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must hold a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(config)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(doc)
    for k, v in overrides.items():
        if v is not None:
            config[k] = v
    _check_ks(config["ks"])
    try:
        given = SplitConfig(**{f.name: config[f.name] for f in dataclasses.fields(SplitConfig)})
        for key, low in (("seed", 0), ("snnm_repetitions", 1), ("snnm_sample_size", 2),
                         ("analysis_max_events", 1)):
            check_range(key, config[key], low, integer=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, value in (dataclasses.asdict(split) if split else {}).items():
        if getattr(given, key) != value:
            raise ConfigError(f"{key} is {getattr(given, key)!r} in the config but {value!r} in "
                              "the checkpoint, whose data split `contextrec train` fixed")
    return config


def _dataclass_config(cls, cfg: dict):
    """Build a GeneratorConfig, TrainConfig or SplitConfig; invalid values are ConfigErrors."""
    try:
        return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


def _prepared_split(split: SplitConfig | None, dataset_path: str):
    """The dataset's train and test logs under `split`; a data error if it is None."""
    if split is None:
        raise serialization.FormatError("the checkpoint records no data split, so write it with "
                                        "`contextrec train`")
    log = serialization.read_dataset(dataset_path)
    if not log:
        raise serialization.FormatError("dataset is empty")
    log = filter_log(log, split.min_duration_minutes, split.min_item_count)
    return temporal_split(log, split.train_fraction)


def _check_test_split(test_log, catalog=None) -> None:
    """A data error for a test split with nothing to score: empty, or none of it in the catalog."""
    if not test_log:
        raise serialization.FormatError("empty test split")
    if catalog is not None and not (universe_indices(test_log, catalog.items) >= 0).any():
        raise serialization.FormatError("no test event's content is in the catalog")


def cmd_gen(args) -> int:
    cfg = load_run_config(args.config, {"seed": args.seed})
    log = generate(_dataclass_config(GeneratorConfig, cfg))
    serialization.write_dataset(log, args.out)
    print(f"wrote {len(log)} events to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, {"seed": args.seed, "objective": args.objective})
    train_cfg, split = _dataclass_config(TrainConfig, cfg), _dataclass_config(SplitConfig, cfg)
    train_log, _ = _prepared_split(split, args.dataset)
    if args.one_id:
        train_log = ablate_to_single_viewer(train_log, make_rng(train_cfg.seed + 7))
    schema = build_schema(train_log)
    model, history = train(train_log, schema, train_cfg)
    serialization.save_checkpoint(model, args.checkpoint, objective=train_cfg.objective,
                                  seed=train_cfg.seed, split=split)
    if args.history:
        header = ("step", "train_loss", "val_loss")
        serialization.write_csv(args.history, header, history.records, 17)
    print(f"trained {train_cfg.objective} for {history.stopping_step} steps "
          f"({history.stopping_reason}); checkpoint at {args.checkpoint}")
    return EXIT_OK


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --Ks value {text!r}") from exc
    return _check_ks(ks)


def cmd_eval(args) -> int:
    model, meta = serialization.load_checkpoint(args.checkpoint)
    cfg = load_run_config(args.config, {"seed": args.seed}, meta["split"])
    if args.Ks:
        cfg["ks"] = _parse_ks(args.Ks)
    train_log, test_log = _prepared_split(meta["split"], args.dataset)
    catalog = precompute_catalog(model, model.items)
    _check_test_split(test_log, catalog)
    items = catalog.items
    ks = cfg["ks"]
    model_ranker = lambda event: recommend(model, event, catalog).ranked_item_indices
    rows = [evaluation.evaluate(model_ranker, test_log, items, ks).as_row(meta["objective"])]
    if args.baselines:
        rng = make_rng(cfg["seed"])
        for name, ranker in (
            ("random", evaluation.random_ranker(len(items), rng)),
            ("toppop", evaluation.toppop(train_log, items)),
            ("toppop_temporal", evaluation.toppop_temporal(train_log, items)),
        ):
            rows.append(evaluation.evaluate(ranker, test_log, items, ks).as_row(name))
    serialization.write_csv(args.report, list(rows[0]), [list(r.values()) for r in rows], 6)
    for row in rows:
        print(",".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
    return EXIT_OK


def cmd_recommend(args) -> int:
    if args.top_k < 1:
        raise ConfigError("--top-k must be >= 1")
    model, _ = serialization.load_checkpoint(args.checkpoint)
    try:
        with open(args.context, encoding="utf-8") as fh:
            doc = json.load(fh)
        attrs = serialization.attrs_from_json(
            doc.get("context", doc) if isinstance(doc, dict) else doc
        )
    except (OSError, json.JSONDecodeError, serialization.FormatError) as exc:
        raise serialization.FormatError(f"cannot read context document: {exc}") from exc
    event = ViewingEvent(
        item_attributes={}, context_attributes=attrs, timestamp=0.0, duration_min=0.0
    )
    catalog = precompute_catalog(model, model.items)
    result = recommend(model, event, catalog)
    for idx, score in list(zip(result.ranked_item_indices, result.scores))[: args.top_k]:
        label = json.dumps(serialization.attrs_to_json(catalog.items[idx]), sort_keys=True)
        print(f"{label}\t{score:.6f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    model, meta = serialization.load_checkpoint(args.checkpoint)
    cfg = load_run_config(args.config, {"seed": args.seed}, meta["split"])
    _, test_log = _prepared_split(meta["split"], args.dataset)
    _check_test_split(test_log)
    rng = make_rng(cfg["seed"])
    if len(test_log) > cfg["analysis_max_events"]:
        idx = rng.choice(len(test_log), size=cfg["analysis_max_events"], replace=False)
        test_log = [test_log[i] for i in sorted(idx)]

    if args.mode == "simmatrix":
        catalog = precompute_catalog(model, model.items)
        _check_test_split(test_log, catalog)
        sim = analysis.similarity_matrix(test_log, model, catalog)
        names = [_key_label(k) for k in sim.content_keys]
        rows = ([n, *v, d] for n, v, d in zip(names, sim.values.tolist(), sim.dispersion.tolist()))
        serialization.write_csv(args.out, ["content", *names, "dispersion"], rows, 6)
        print(f"wrote similarity matrix to {args.out}")
        return EXIT_OK

    emb, labels = analysis.context_embeddings_by_content(test_log, model)
    if args.mode == "export":
        analysis.export_embeddings(emb, [_key_label(l) for l in labels], args.out)
        print(f"exported {len(labels)} embeddings to {args.out}")
        return EXIT_OK

    # snnm
    curve = analysis.snnm_sweep(
        analysis.LabeledEmbeddings(emb, labels),
        repetitions=cfg["snnm_repetitions"],
        n=min(cfg["snnm_sample_size"], len(labels)),
        rng=rng,
    )
    columns = (curve.temperatures, curve.means, curve.ci95, curve.skipped_term_counts)
    serialization.write_csv(args.out, ("T", "mean", "ci95", "skipped"), zip(*columns), 17)
    print(f"wrote SNNM curve to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextrec",
        description="Context-aware two-tower recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("gen", help="generate a synthetic viewing log")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset file")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--history", help="optional training-history CSV path")
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument(
        "--1id",
        dest="one_id",
        action="store_true",
        help="collapse co-viewing groups to one random viewer before training",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--baselines", action="store_true")
    p.add_argument("--Ks", help="comma-separated HR cutoffs, e.g. 1,3,5")
    p.set_defaults(func=cmd_eval)

    # no --seed, --config or --dataset: it draws no numbers and ranks the checkpoint's items
    p = sub.add_parser("recommend", help="rank the checkpoint's catalog for one context")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--context", required=True, help="JSON context document")
    p.add_argument("--top-k", type=int, default=10)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("analyze", help="representation-quality exports")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=["snnm", "simmatrix", "export"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (serialization.FormatError, SchemaError, SamplingError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, DegenerateMeasure) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
