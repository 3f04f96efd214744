import json

import pytest

from contextrec.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    ConfigError,
    _parse_ks,
    load_run_config,
    main,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small end-to-end run shared across CLI tests."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = {
        "n_weeks": 1,
        "events_per_day": 120,
        "n_genres": 8,
        "n_households": 10,
        "n_users": 25,
        "max_steps": 60,
        "eval_every": 30,
        "batch_size": 8,
        "snnm_repetitions": 2,
        "snnm_sample_size": 64,
    }
    config_path = ws / "config.json"
    config_path.write_text(json.dumps(cfg))
    dataset = ws / "data.jsonl"
    ckpt = ws / "model.json"
    assert main(["gen", "--config", str(config_path), "--out", str(dataset)]) == EXIT_OK
    assert (
        main(
            [
                "train",
                "--config",
                str(config_path),
                "--dataset",
                str(dataset),
                "--checkpoint",
                str(ckpt),
                "--objective",
                "rjcce",
            ]
        )
        == EXIT_OK
    )
    return ws, config_path, dataset, ckpt


class TestLoadRunConfig:
    def test_defaults_without_file(self):
        cfg = load_run_config(None, {})
        assert cfg["objective"] == "rjcce"
        assert cfg["ks"] == [1, 3, 5, 10]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"not_a_real_knob": 1}')
        with pytest.raises(ConfigError):
            load_run_config(str(path), {})

    def test_override_precedence(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 5}')
        assert load_run_config(str(path), {"seed": 9})["seed"] == 9
        assert load_run_config(str(path), {"seed": None})["seed"] == 5

    def test_parse_ks(self):
        assert _parse_ks("1,3,5") == [1, 3, 5]
        with pytest.raises(ConfigError):
            _parse_ks("1,zero")
        with pytest.raises(ConfigError):
            _parse_ks("0,3")


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_weeks": 1, "events_per_day": 30}')
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["gen", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_weeks": 1, "events_per_day": 30}')
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen", "--config", str(cfg), "--out", str(a)])
        main(["gen", "--config", str(cfg), "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"mystery": true}')
        out = tmp_path / "x.jsonl"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG


class TestTrain:
    def test_checkpoint_byte_identical_across_runs(self, workspace, tmp_path):
        ws, config_path, dataset, ckpt = workspace
        second = tmp_path / "model2.json"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--dataset",
                str(dataset),
                "--checkpoint",
                str(second),
                "--objective",
                "rjcce",
            ]
        )
        assert code == EXIT_OK
        assert ckpt.read_bytes() == second.read_bytes()

    def test_missing_dataset_exit_code(self, workspace, tmp_path):
        _, config_path, _, _ = workspace
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--dataset",
                str(tmp_path / "nope.jsonl"),
                "--checkpoint",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == EXIT_DATA

    def test_one_id_flag(self, workspace, tmp_path):
        ws, config_path, dataset, _ = workspace
        ckpt = tmp_path / "oneid.json"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--dataset",
                str(dataset),
                "--checkpoint",
                str(ckpt),
                "--1id",
            ]
        )
        assert code == EXIT_OK and ckpt.exists()

    def test_history_written(self, workspace, tmp_path):
        ws, config_path, dataset, _ = workspace
        hist = tmp_path / "hist.csv"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--dataset",
                str(dataset),
                "--checkpoint",
                str(tmp_path / "m.json"),
                "--history",
                str(hist),
            ]
        )
        assert code == EXIT_OK
        assert hist.read_text().splitlines()[0] == "step,train_loss,val_loss"


class TestEval:
    def test_report_schema_and_determinism(self, workspace, tmp_path):
        ws, config_path, dataset, ckpt = workspace
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = [
            "eval",
            "--config",
            str(config_path),
            "--checkpoint",
            str(ckpt),
            "--dataset",
            str(dataset),
            "--baselines",
        ]
        assert main(args + ["--report", str(r1)]) == EXIT_OK
        assert main(args + ["--report", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()
        lines = r1.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "model"
        assert "HR@1" in header and "MRR" in header and "AUC" in header
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["rjcce", "random", "toppop", "toppop_temporal"]

    def test_custom_ks_columns(self, workspace, tmp_path):
        ws, config_path, dataset, ckpt = workspace
        report = tmp_path / "r.csv"
        code = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(dataset),
                "--report",
                str(report),
                "--Ks",
                "2,7",
            ]
        )
        assert code == EXIT_OK
        header = report.read_text().splitlines()[0]
        assert "HR@2" in header and "HR@7" in header and "HR@1" not in header

    def test_corrupt_checkpoint_exit_code(self, workspace, tmp_path):
        ws, config_path, dataset, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 42}')
        code = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--checkpoint",
                str(bad),
                "--dataset",
                str(dataset),
                "--report",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_DATA


class TestRecommend:
    def test_prints_top_k(self, workspace, tmp_path, capsys):
        ws, config_path, dataset, ckpt = workspace
        ctx = tmp_path / "ctx.json"
        # borrow a context from the dataset itself
        first = json.loads(dataset.read_text().splitlines()[0])
        ctx.write_text(json.dumps({"context": first["context"]}))
        code = main(
            [
                "recommend",
                "--config",
                str(config_path),
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(dataset),
                "--context",
                str(ctx),
                "--top-k",
                "3",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        scores = [float(line.split("\t")[1]) for line in out]
        assert scores == sorted(scores, reverse=True)


class TestAnalyze:
    def test_snnm_curve_file(self, workspace, tmp_path):
        ws, config_path, dataset, ckpt = workspace
        out = tmp_path / "snnm.csv"
        code = main(
            [
                "analyze",
                "--config",
                str(config_path),
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(dataset),
                "--mode",
                "snnm",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "T,mean,ci95,skipped"
        assert len(lines) == 21  # 20 temperatures

    def test_simmatrix_file(self, workspace, tmp_path):
        ws, config_path, dataset, ckpt = workspace
        out = tmp_path / "sim.csv"
        code = main(
            [
                "analyze",
                "--config",
                str(config_path),
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(dataset),
                "--mode",
                "simmatrix",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        n_cols = len(lines[0].split(","))
        assert lines[0].endswith(",dispersion")
        assert all(len(ln.split(",")) == n_cols for ln in lines[1:])

    def test_export_round_trip(self, workspace, tmp_path):
        ws, config_path, dataset, ckpt = workspace
        out = tmp_path / "emb.csv"
        code = main(
            [
                "analyze",
                "--config",
                str(config_path),
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(dataset),
                "--mode",
                "export",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header.startswith("label,e0,")


def _record(i, **context):
    return {
        "context": {"user": f"u{i % 3}", **context},
        "duration_min": 30.0,
        "item": {"genre": f"g{i % 2}"},
        "timestamp": float(i),
    }


def _mixed_kind_dataset(path):
    rows = [_record(0, size="big")] + [_record(i, size=float(i)) for i in range(1, 20)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _non_finite_dataset(path):
    rows = [_record(i) for i in range(20)]
    rows[5]["timestamp"] = float("nan")
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


TRAIN_ARGS = ["train", "--config", "{config}", "--dataset", "{dataset}", "--checkpoint", "{out}"]
RECOMMEND_ARGS = ["recommend", "--config", "{config}", "--checkpoint", "{checkpoint}",
                  "--dataset", "{dataset}", "--context", "{context}"]

# id: (config overrides, argv template, dataset writer, exit code, message prefix)
BOUNDARY_CASES = {
    "train_batch_size_1": (
        {"batch_size": 1}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: batch_size must be >= 2",
    ),
    "train_batch_size_text": (
        {"batch_size": "many"}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig:",
    ),
    "gen_single_genre": (
        {"n_genres": 1}, ["gen", "--config", "{config}", "--out", "{out}"], None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: need at least one user/household",
    ),
    "recommend_negative_top_k": (
        {}, RECOMMEND_ARGS + ["--top-k", "-2"], None, EXIT_CONFIG,
        "config error: --top-k must be >= 1",
    ),
    "train_mixed_kind_feature": (
        {}, TRAIN_ARGS, _mixed_kind_dataset, EXIT_DATA,
        "data error: feature 'size' mixes value kinds",
    ),
    "train_nan_timestamp": (
        {}, TRAIN_ARGS, _non_finite_dataset, EXIT_DATA,
        "data error: bad dataset record at line 6: timestamp and duration_min must be finite",
    ),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_boundary_exit_codes(workspace, tmp_path, capsys, case):
    """Bad input fails with the documented exit code and a one-line message."""
    overrides, template, write_dataset, code, message = case
    ws, config_path, dataset, ckpt = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(config_path.read_text()), **overrides}))
    if write_dataset is not None:
        dataset = tmp_path / "data.jsonl"
        write_dataset(dataset)
    context = tmp_path / "ctx.json"
    context.write_text(json.dumps({"context": _record(0)["context"]}))
    out = tmp_path / "out"
    paths = dict(config=config, dataset=dataset, checkpoint=ckpt, context=context, out=out)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in template]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert not out.exists()
