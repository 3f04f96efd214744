import csv
import json

import pytest

from contextrec.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
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

    def test_has_no_seed_option(self, workspace, tmp_path, capsys):
        # recommend draws no random numbers, so it takes no --seed
        ws, config_path, dataset, ckpt = workspace
        with pytest.raises(SystemExit) as exc:
            main(["recommend", "--seed", "3", "--checkpoint", str(ckpt), "--dataset",
                  str(dataset), "--context", str(tmp_path / "ctx.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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

    @pytest.mark.parametrize("genre", ["g0\n01", "g0\r01", "g0\r\n01"])
    def test_simmatrix_line_breaks_in_labels(self, workspace, tmp_path, genre):
        # a label holding CR or LF would split its row; the matrix must still
        # parse into M + 1 rows of M + 2 cells
        ws, config_path, dataset, ckpt = workspace
        data, out = tmp_path / "data.jsonl", tmp_path / "sim.csv"
        data.write_text(dataset.read_text().replace('"g001"', json.dumps(genre)))
        code = main(["analyze", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--dataset", str(data), "--mode", "simmatrix", "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        m = len(rows) - 1
        assert m >= 2 and all(len(row) == m + 2 for row in rows)
        assert "genre=" + genre.replace("\r", " ").replace("\n", " ") in rows[0]

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


def _mixed_kind_dataset(path, _original):
    rows = [_record(0, size="big")] + [_record(i, size=float(i)) for i in range(1, 20)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _non_finite_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[5]["timestamp"] = float("nan")
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _mean_age_literal(literal):
    """Writer of the generated dataset with line 6's mean_age set to a raw
    JSON number literal, such as NaN or 1e400."""

    def write(path, original):
        lines = original.read_text().splitlines(keepends=True)
        rec = json.loads(lines[5])
        rec["context"]["mean_age"] = "<age>"
        lines[5] = json.dumps(rec, sort_keys=True).replace('"<age>"', literal) + "\n"
        path.write_text("".join(lines))

    return write


def _context_nan_group_size(path, _original):
    # a context of the generated schema, so only the NaN is wrong
    context = {
        "activity": "live", "day_of_week": "0mon", "female_fraction": 0.0,
        "group_size": "<nan>", "guest_count": "0", "hour_of_day": "20",
        "mean_age": 40.0, "region": "north", "tv_location": "bedroom",
        "viewer_ids": ["u0001"],
    }
    path.write_text(json.dumps({"context": context}).replace('"<nan>"', "NaN"))


def _context_with(name, value):
    """Writer of a context document of the generated schema with one value
    replaced."""

    def write(path, _original):
        context = {
            "activity": "live", "day_of_week": "0mon", "female_fraction": 0.0,
            "group_size": 1.0, "guest_count": "0", "hour_of_day": "20",
            "mean_age": 40.0, "region": "north", "tv_location": "bedroom",
            "viewer_ids": ["u0001"], name: value,
        }
        path.write_text(json.dumps({"context": context}))

    return write


def _every_7th_genre_a_number(path, original):
    lines = original.read_text().splitlines(keepends=True)
    for i in range(0, len(lines), 7):
        rec = json.loads(lines[i])
        rec["item"]["genre"] = 5
        lines[i] = json.dumps(rec, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def _line_6_with(part, name, value):
    """Writer of the generated dataset with line 6's part[name] ("item" or
    "context") replaced by value, or removed when value is None; the line's
    duration passes the duration filter."""

    def write(path, original):
        lines = original.read_text().splitlines(keepends=True)
        rec = json.loads(lines[5])
        del rec[part][name]
        if value is not None:
            rec[part][name] = value
        rec["duration_min"] = 30.0
        lines[5] = json.dumps(rec, sort_keys=True) + "\n"
        path.write_text("".join(lines))

    return write


def _zero_context_tower(path, original):
    # the context tower's last layer maps everything to the zero vector
    doc = json.loads(original.read_text())
    last = doc["context_encoder"][-1]
    last["weights"] = [[0.0] * len(row) for row in last["weights"]]
    last["biases"] = [0.0] * len(last["biases"])
    path.write_text(json.dumps(doc))


def _test_split_group_size_text(path, original):
    # the last 20 lines fall in the test split; some pass the duration filter
    lines = original.read_text().splitlines(keepends=True)
    for i in range(len(lines) - 20, len(lines)):
        rec = json.loads(lines[i])
        rec["context"]["group_size"] = "two"
        lines[i] = json.dumps(rec, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def _test_split_genres_new(path, original):
    # with min_item_count 1 only the duration filter drops events, so the
    # test split is the last tenth of the lines that pass it
    lines = original.read_text().splitlines(keepends=True)
    kept = [i for i, line in enumerate(lines) if json.loads(line)["duration_min"] >= 3.0]
    for i in kept[round(0.9 * len(kept)):]:
        rec = json.loads(lines[i])
        rec["item"]["genre"] = "gNEW"
        lines[i] = json.dumps(rec, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def _non_utf8_dataset(path, _original):
    rows = [json.dumps(_record(i)).encode() + b"\n" for i in range(20)]
    rows[3] = b'{"\xff\xfe": 1}\n'
    path.write_bytes(b"".join(rows))


def _item_not_object_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[3]["item"] = ["g0"]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _nested_object_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[4]["context"]["user"] = {"id": "u1"}
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _nested_list_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[7]["item"]["genre"] = ["g0", ["g1"]]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _context_nested_value(path, _original):
    path.write_text(json.dumps({"context": {"user": ["u0", {"x": 1}]}}))


def _context_array(path, _original):
    path.write_text(json.dumps([_record(0)["context"]]))


def _context_field_not_object(path, _original):
    path.write_text(json.dumps({"context": "u0"}))


def _config_number(path, _original):
    path.write_text("5")


def _directory(path, _original):
    path.mkdir()


def _truncated_checkpoint(path, original):
    path.write_text(original.read_text()[:200])


def _checkpoint_without_schema(path, original):
    doc = json.loads(original.read_text())
    del doc["schema"]
    path.write_text(json.dumps(doc))


def _checkpoint_with_text_weights(path, original):
    doc = json.loads(original.read_text())
    doc["item_encoder"][0]["weights"][0][0] = "heavy"
    path.write_text(json.dumps(doc))


TRAIN_ARGS = ["train", "--config", "{config}", "--dataset", "{dataset}", "--checkpoint", "{out}"]
RECOMMEND_ARGS = ["recommend", "--config", "{config}", "--checkpoint", "{checkpoint}",
                  "--dataset", "{dataset}", "--context", "{context}"]
EVAL_ARGS = ["eval", "--config", "{config}", "--checkpoint", "{checkpoint}",
             "--dataset", "{dataset}", "--report", "{out}"]
ANALYZE_ARGS = ["analyze", "--config", "{config}", "--checkpoint", "{checkpoint}",
                "--dataset", "{dataset}", "--mode", "snnm", "--out", "{out}"]
SIMMATRIX_ARGS = [*ANALYZE_ARGS[:-3], "simmatrix", "--out", "{out}"]
GEN_ARGS = ["gen", "--config", "{config}", "--out", "{out}"]
MIXED_GENRE = "data error: feature 'genre' mixes value kinds ['categorical_single', 'numeric']"

# id: (config overrides, argv template, input writer, exit code, message prefix);
# a writer (path name, fn(path, original)) replaces that input; messages may
# name the inputs, e.g. {checkpoint}
BOUNDARY_CASES = {
    "train_batch_size_1": (
        {"batch_size": 1}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: batch_size must be an integer >= 2, got 1",
    ),
    "train_batch_size_text": (
        {"batch_size": "many"}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: batch_size must be an integer >= 2, got 'many'",
    ),
    "train_eval_every_0": (
        {"eval_every": 0}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: eval_every must be an integer >= 1, got 0",
    ),
    "train_negative_lam": (
        {"lam": -1}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: lam must be a finite number >= 0, got -1",
    ),
    "train_dropout_rate_1": (
        {"dropout_rate": 1.0}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: dropout_rate must be a number in [0, 1), got 1.0",
    ),
    "train_negative_max_steps": (
        {"max_steps": -3}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: max_steps must be an integer >= 0, got -3",
    ),
    "train_negative_learning_rate": (
        {"learning_rate": -0.1}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: learning_rate must be a finite number > 0, got -0.1",
    ),
    "train_fractional_batch_size": (
        {"batch_size": 8.5}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: batch_size must be an integer >= 2, got 8.5",
    ),
    "train_float_max_steps": (
        {"max_steps": 3.0}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: max_steps must be an integer >= 0, got 3.0",
    ),
    "train_bool_eval_every": (
        {"eval_every": True}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: eval_every must be an integer >= 1, got True",
    ),
    "train_bool_patience": (
        {"patience": True}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: patience must be an integer >= 1, got True",
    ),
    "train_fractional_patience": (
        {"patience": 1.5}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: patience must be an integer >= 1, got 1.5",
    ),
    "train_infinite_learning_rate": (
        {"learning_rate": float("inf")}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: learning_rate must be a finite number > 0, got inf",
    ),
    "train_infinite_lam": (
        {"lam": float("inf")}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: lam must be a finite number >= 0, got inf",
    ),
    "train_bool_dropout_rate": (
        {"dropout_rate": False}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: dropout_rate must be a number in [0, 1), got False",
    ),
    "train_validation_fraction_text": (
        {"validation_fraction": "x"}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: validation_fraction must be a number in (0, 0.5), "
        "got 'x'",
    ),
    "train_fraction_above_one": (
        {"train_fraction": 1.5}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: train_fraction must be a number in (0, 1), got 1.5",
    ),
    "eval_config_ks_zero": (
        {"ks": [0]}, EVAL_ARGS, None, EXIT_CONFIG,
        "config error: ks must be a non-empty list of positive integers, got [0]",
    ),
    "eval_empty_test_split": (
        {"train_fraction": 0.9999}, EVAL_ARGS, None, EXIT_DATA,
        "data error: empty test split",
    ),
    "eval_test_contents_not_in_catalog": (
        {"min_item_count": 1}, EVAL_ARGS, ("dataset", _test_split_genres_new), EXIT_DATA,
        "data error: no test event's content is in the catalog",
    ),
    "analyze_simmatrix_test_contents_not_in_catalog": (
        {"min_item_count": 1}, SIMMATRIX_ARGS, ("dataset", _test_split_genres_new), EXIT_DATA,
        "data error: no test event's content is in the catalog",
    ),
    "analyze_empty_test_split": (
        {"train_fraction": 0.9999}, ANALYZE_ARGS, None, EXIT_DATA,
        "data error: empty test split",
    ),
    "eval_min_item_count_empties_catalog": (
        {"min_item_count": 10**6}, EVAL_ARGS, None, EXIT_DATA,
        "data error: the train split holds 0 distinct item(s); a catalog needs at least 2",
    ),
    "analyze_snnm_repetitions_0": (
        {"snnm_repetitions": 0}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: snnm_repetitions must be an integer >= 1, got 0",
    ),
    "analyze_snnm_repetitions_negative": (
        {"snnm_repetitions": -2}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: snnm_repetitions must be an integer >= 1, got -2",
    ),
    "analyze_snnm_repetitions_bool": (
        {"snnm_repetitions": True}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: snnm_repetitions must be an integer >= 1, got True",
    ),
    "analyze_snnm_sample_size_1": (
        {"snnm_sample_size": 1}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: snnm_sample_size must be an integer >= 2, got 1",
    ),
    "analyze_max_events_negative": (
        {"analysis_max_events": -1}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: analysis_max_events must be an integer >= 1, got -1",
    ),
    "analyze_min_item_count_text": (
        {"min_item_count": "x"}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: min_item_count must be an integer >= 1, got 'x'",
    ),
    "analyze_min_item_count_0": (
        {"min_item_count": 0}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: min_item_count must be an integer >= 1, got 0",
    ),
    "analyze_min_duration_text": (
        {"min_duration_minutes": "x"}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: min_duration_minutes must be a finite number >= 0, got 'x'",
    ),
    "analyze_min_duration_nan": (
        {"min_duration_minutes": float("nan")}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: min_duration_minutes must be a finite number >= 0, got nan",
    ),
    "analyze_min_duration_negative": (
        {"min_duration_minutes": -1.0}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: min_duration_minutes must be a finite number >= 0, got -1.0",
    ),
    "analyze_config_not_object": (
        {}, ANALYZE_ARGS, ("config", _config_number), EXIT_CONFIG,
        "config error: config {config} must hold a JSON object, got int",
    ),
    "gen_single_genre": (
        {"n_genres": 1}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: n_genres must be an integer >= 2, got 1",
    ),
    "gen_fractional_genres": (
        {"n_genres": 2.5}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: n_genres must be an integer >= 2, got 2.5",
    ),
    "gen_negative_events_per_day": (
        {"events_per_day": -1}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: events_per_day must be an integer >= 1, got -1",
    ),
    "gen_zero_weeks": (
        {"n_weeks": 0}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: n_weeks must be an integer >= 1, got 0",
    ),
    "gen_bool_users": (
        {"n_users": True}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: n_users must be an integer >= 1, got True",
    ),
    "gen_negative_coviewing_prob": (
        {"coviewing_prob": -3}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: coviewing_prob must be a number in [0, 1], got -3",
    ),
    "gen_timeshift_prob_above_one": (
        {"timeshift_prob": 7}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: timeshift_prob must be a number in [0, 1], got 7",
    ),
    "gen_habit_strength_text": (
        {"habit_strength": "x"}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: habit_strength must be a finite number >= 0, "
        "got 'x'",
    ),
    "gen_popularity_skew_infinite": (
        {"popularity_skew": float("inf")}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: popularity_skew must be a finite number >= 0, "
        "got inf",
    ),
    "gen_negative_temporal_strength": (
        {"temporal_strength": -0.5}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: invalid GeneratorConfig: temporal_strength must be a finite number >= 0, "
        "got -0.5",
    ),
    "recommend_negative_top_k": (
        {}, RECOMMEND_ARGS + ["--top-k", "-2"], None, EXIT_CONFIG,
        "config error: --top-k must be >= 1",
    ),
    "gen_seed_text": (
        {"seed": "abc"}, GEN_ARGS, None, EXIT_CONFIG,
        "config error: seed must be an integer >= 0, got 'abc'",
    ),
    "train_seed_fraction": (
        {"seed": 1.5}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: seed must be an integer >= 0, got 1.5",
    ),
    "train_seed_flag_negative": (
        {}, TRAIN_ARGS + ["--seed", "-3"], None, EXIT_CONFIG,
        "config error: seed must be an integer >= 0, got -3",
    ),
    "eval_baselines_seed_negative": (
        {"seed": -1}, EVAL_ARGS + ["--baselines"], None, EXIT_CONFIG,
        "config error: seed must be an integer >= 0, got -1",
    ),
    "analyze_seed_bool": (
        {"seed": True}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: seed must be an integer >= 0, got True",
    ),
    "train_1id_viewers_text": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _line_6_with("context", "viewer_ids", "u0001")),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got str 'u0001'",
    ),
    "train_1id_viewers_number": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _line_6_with("context", "viewer_ids", 5)),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got int 5",
    ),
    "train_1id_viewers_missing": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _line_6_with("context", "viewer_ids", None)),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got NoneType None",
    ),
    "train_1id_viewers_unsortable": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _line_6_with("context", "viewer_ids", ["u1", 5])),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' holds list values that do not sort: '<' not supported",
    ),
    "train_mixed_kind_genre": (
        {"min_item_count": 1}, TRAIN_ARGS, ("dataset", _every_7th_genre_a_number), EXIT_DATA,
        MIXED_GENRE,
    ),
    "eval_mixed_kind_genre": (
        {"min_item_count": 1}, EVAL_ARGS, ("dataset", _every_7th_genre_a_number), EXIT_DATA,
        MIXED_GENRE,
    ),
    "recommend_mixed_kind_genre": (
        {"min_item_count": 1}, RECOMMEND_ARGS, ("dataset", _every_7th_genre_a_number), EXIT_DATA,
        MIXED_GENRE,
    ),
    "analyze_simmatrix_mixed_kind_genre": (
        {"min_item_count": 1}, SIMMATRIX_ARGS, ("dataset", _every_7th_genre_a_number), EXIT_DATA,
        MIXED_GENRE,
    ),
    "train_genre_list_that_does_not_sort": (
        {}, TRAIN_ARGS, ("dataset", _line_6_with("item", "genre", ["a", 1])), EXIT_DATA,
        "data error: attribute 'genre' holds list values that do not sort: '<' not supported",
    ),
    "train_bpr_viewers_that_do_not_sort": (
        {"objective": "bpr"}, TRAIN_ARGS,
        ("dataset", _line_6_with("context", "viewer_ids", ["u0001", 5])), EXIT_DATA,
        "data error: attribute 'viewer_ids' holds list values that do not sort: '<' not supported",
    ),
    "train_mixed_kind_feature": (
        {}, TRAIN_ARGS, ("dataset", _mixed_kind_dataset), EXIT_DATA,
        "data error: feature 'size' mixes value kinds",
    ),
    "train_nan_timestamp": (
        {}, TRAIN_ARGS, ("dataset", _non_finite_dataset), EXIT_DATA,
        "data error: bad dataset record at line 6: timestamp and duration_min must be finite",
    ),
    "train_nan_attribute": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("NaN")), EXIT_DATA,
        "data error: bad dataset record at line 6: attribute 'mean_age' is not a finite "
        "number (nan)",
    ),
    "train_infinite_attribute": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("Infinity")), EXIT_DATA,
        "data error: bad dataset record at line 6: attribute 'mean_age' is not a finite "
        "number (inf)",
    ),
    "train_overflowing_attribute": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("1e400")), EXIT_DATA,
        "data error: bad dataset record at line 6: attribute 'mean_age' is not a finite "
        "number (inf)",
    ),
    "train_integer_beyond_float_range": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("1" + "0" * 400)), EXIT_DATA,
        "data error: bad dataset record at line 6: attribute 'mean_age' is not a finite "
        "number (an integer beyond the float range)",
    ),
    "recommend_context_text_for_number": (
        {}, RECOMMEND_ARGS, ("context", _context_with("group_size", "abc")), EXIT_DATA,
        "data error: attribute 'group_size' takes a number, got str 'abc'",
    ),
    "recommend_context_scalar_for_multi_value": (
        {}, RECOMMEND_ARGS, ("context", _context_with("viewer_ids", 5)), EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got int 5",
    ),
    "recommend_context_text_for_multi_value": (
        {}, RECOMMEND_ARGS, ("context", _context_with("viewer_ids", "u0001")), EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got str 'u0001'",
    ),
    "recommend_context_list_for_single_value": (
        {}, RECOMMEND_ARGS, ("context", _context_with("hour_of_day", ["01", "02"])), EXIT_DATA,
        "data error: attribute 'hour_of_day' takes a single value, got tuple ('01', '02')",
    ),
    "eval_test_event_text_for_number": (
        {}, EVAL_ARGS, ("dataset", _test_split_group_size_text), EXIT_DATA,
        "data error: attribute 'group_size' takes a number, got str 'two'",
    ),
    "recommend_context_nan_value": (
        {}, RECOMMEND_ARGS, ("context", _context_nan_group_size), EXIT_DATA,
        "data error: cannot read context document: attribute 'group_size' is not a finite "
        "number (nan)",
    ),
    "train_non_utf8_dataset": (
        {}, TRAIN_ARGS, ("dataset", _non_utf8_dataset), EXIT_DATA,
        "data error: bad dataset record at line 4: 'utf-8' codec can't decode byte 0xff",
    ),
    "train_item_not_object": (
        {}, TRAIN_ARGS, ("dataset", _item_not_object_dataset), EXIT_DATA,
        "data error: bad dataset record at line 4: attributes must be a JSON object, got list",
    ),
    "train_nested_object_attribute": (
        {"objective": "rjcce"}, TRAIN_ARGS, ("dataset", _nested_object_dataset), EXIT_DATA,
        "data error: bad dataset record at line 5: attribute 'user' nests an object or array",
    ),
    "train_bpr_nested_list_attribute": (
        {"objective": "bpr"}, TRAIN_ARGS, ("dataset", _nested_list_dataset), EXIT_DATA,
        "data error: bad dataset record at line 8: attribute 'genre' nests an object or array",
    ),
    "recommend_context_nested_value": (
        {}, RECOMMEND_ARGS, ("context", _context_nested_value), EXIT_DATA,
        "data error: cannot read context document: attribute 'user' nests an object or array",
    ),
    "recommend_context_array": (
        {}, RECOMMEND_ARGS, ("context", _context_array), EXIT_DATA,
        "data error: cannot read context document: attributes must be a JSON object, got list",
    ),
    "recommend_context_field_not_object": (
        {}, RECOMMEND_ARGS, ("context", _context_field_not_object), EXIT_DATA,
        "data error: cannot read context document: attributes must be a JSON object, got str",
    ),
    "train_diverging": (
        {"learning_rate": 1e200, "objective": "rjcce"}, TRAIN_ARGS, None, EXIT_NUMERIC,
        "numeric error: training diverged at step",
    ),
    "analyze_snnm_zero_norm_contexts": (
        {}, ANALYZE_ARGS, ("checkpoint", _zero_context_tower), EXIT_NUMERIC,
        "numeric error: zero-norm embedding rows are not allowed",
    ),
    "analyze_simmatrix_zero_norm_contexts": (
        {}, SIMMATRIX_ARGS, ("checkpoint", _zero_context_tower), EXIT_NUMERIC,
        "numeric error: angular distance is undefined for zero-norm vectors",
    ),
    "eval_truncated_checkpoint": (
        {}, EVAL_ARGS, ("checkpoint", _truncated_checkpoint), EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: ",
    ),
    "eval_checkpoint_without_schema": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_without_schema), EXIT_DATA,
        "data error: checkpoint {checkpoint} lacks key 'schema'",
    ),
    "eval_checkpoint_is_directory": (
        {}, EVAL_ARGS, ("checkpoint", _directory), EXIT_DATA,
        "data error: [Errno 21] Is a directory: '{checkpoint}'",
    ),
    "eval_checkpoint_text_weights": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_with_text_weights), EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: could not convert string to float",
    ),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_boundary_exit_codes(workspace, tmp_path, capsys, case):
    """Bad input fails with the documented exit code and a one-line message."""
    overrides, template, writer, code, message = case
    ws, config_path, dataset, ckpt = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(config_path.read_text()), **overrides}))
    context = tmp_path / "ctx.json"
    context.write_text(json.dumps({"context": _record(0)["context"]}))
    out = tmp_path / "out"
    paths = dict(config=config, dataset=dataset, checkpoint=ckpt, context=context, out=out)
    if writer is not None:
        name, write = writer
        original, paths[name] = paths[name], tmp_path / f"written_{name}"
        write(paths[name], original)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in template]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(**paths))
    assert captured.err.count("\n") == 1
    assert not out.exists()
