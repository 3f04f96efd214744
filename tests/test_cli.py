import base64
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contextrec
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
from contextrec.serialization import write_dataset

from conftest import decode_dataset, encode_dataset, wide_log


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

    def test_wide_checkpoint_same_under_hash_seeds_and_threads(self, tmp_path):
        # the cells path's bits follow neither string hashing nor the BLAS
        # thread count: each run is a fresh interpreter, the first at one
        # OpenBLAS thread and the second asking for two, which main pins to one
        write_dataset(wide_log(co_viewers=True), tmp_path / "wide.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"min_item_count": 1, "batch_size": 32, "max_steps": 6, "eval_every": 3}
        ))
        src = str(Path(contextrec.__file__).resolve().parent.parent)
        checkpoints = []
        for hash_seed, threads in (("1", "1"), ("2", "2")):
            ckpt = tmp_path / f"hash{hash_seed}.json"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-c", "import sys; from contextrec.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "train", "--config", str(config),
                 "--dataset", str(tmp_path / "wide.jsonl"), "--checkpoint", str(ckpt),
                 "--objective", "rjcce"],
                env=env, check=True, timeout=120, capture_output=True,
            )
            checkpoints.append(ckpt.read_bytes())
        assert checkpoints[0] == checkpoints[1]

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

    def test_split_comes_from_the_checkpoint(self, workspace, tmp_path):
        # eval without a config scores the split that train used
        _, config_path, dataset, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(config_path.read_text()),
                                      "train_fraction": 0.7, "min_item_count": 1}))
        ckpt, with_config, without = (tmp_path / n for n in ("m.json", "a.csv", "b.csv"))
        assert main(["train", "--config", str(config), "--dataset", str(dataset),
                     "--checkpoint", str(ckpt)]) == EXIT_OK
        args = ["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset), "--baselines"]
        assert main(args + ["--config", str(config), "--report", str(with_config)]) == EXIT_OK
        assert main(args + ["--report", str(without)]) == EXIT_OK
        assert with_config.read_bytes() == without.read_bytes()

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
        first = decode_dataset(dataset.read_text())[0]
        ctx.write_text(json.dumps({"context": first["context"]}))
        code = main(["recommend", "--checkpoint", str(ckpt), "--context", str(ctx),
                     "--top-k", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        scores = [float(line.split("\t")[1]) for line in out]
        assert scores == sorted(scores, reverse=True)

    def test_ranks_the_checkpoint_catalog(self, workspace, tmp_path, capsys):
        # every item the checkpoint stores is ranked, each once
        ws, config_path, dataset, ckpt = workspace
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"context": CONTEXT}))
        assert main(["recommend", "--checkpoint", str(ckpt), "--context", str(ctx),
                     "--top-k", "1000"]) == EXIT_OK
        ranked = [json.loads(line.split("\t")[0])
                  for line in capsys.readouterr().out.splitlines()]
        items = json.loads(ckpt.read_text())["items"]
        assert sorted(ranked, key=json.dumps) == sorted(items, key=json.dumps)
        assert len(items) == 8

    def test_has_no_seed_option(self, workspace, tmp_path, capsys):
        # recommend draws no random numbers, so it takes no --seed
        ws, config_path, dataset, ckpt = workspace
        with pytest.raises(SystemExit) as exc:
            main(["recommend", "--seed", "3", "--checkpoint", str(ckpt),
                  "--context", str(tmp_path / "ctx.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--dataset data.jsonl", "--config config.json"])
    def test_has_no_dataset_or_config_option(self, workspace, tmp_path, capsys, option):
        # recommend serves the checkpoint's catalog, so it reads no dataset
        # and no run config
        ws, config_path, dataset, ckpt = workspace
        with pytest.raises(SystemExit) as exc:
            main(["recommend", *option.split(), "--checkpoint", str(ckpt),
                  "--context", str(tmp_path / "ctx.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


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
        # parse into M + 1 rows of M + 2 cells. The labels come from the
        # checkpoint's catalog, so a model is trained on the renamed log.
        ws, config_path, dataset, _ = workspace
        data, ckpt, out = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "sim.csv"
        config = tmp_path / "config.json"
        data.write_text(dataset.read_text().replace('"g001"', json.dumps(genre)))
        config.write_text(json.dumps({**json.loads(config_path.read_text()), "max_steps": 2}))
        common = ["--config", str(config), "--dataset", str(data), "--checkpoint", str(ckpt)]
        assert main(["train", *common]) == EXIT_OK
        code = main(["analyze", *common, "--mode", "simmatrix", "--out", str(out)])
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


def _write_records(path, records, version=2):
    path.write_text(encode_dataset(records, version))


def _mixed_kind_dataset(path, _original):
    _write_records(path, [_record(0, size="big")] + [_record(i, size=float(i))
                                                     for i in range(1, 20)])


def _non_finite_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[5]["timestamp"] = float("nan")
    _write_records(path, rows)


def _mean_age_literal(literal):
    """Writer of the generated dataset with the sixth event's mean_age set
    to a raw JSON number literal, such as NaN or 1e400, which lands in the
    header's mean_age values."""

    def write(path, original):
        records = decode_dataset(original.read_text())
        records[5]["context"]["mean_age"] = "<age>"
        path.write_text(encode_dataset(records).replace('"<age>"', literal))

    return write


def _edited_records(edit):
    """Writer of the generated dataset's records after edit(records)."""

    def write(path, original):
        records = decode_dataset(original.read_text())
        edit(records)
        _write_records(path, records)

    return write


def _format_1_dataset(path, original):
    # the generated events as format 1 wrote them: one JSON object a line
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                            for r in decode_dataset(original.read_text())))


def _dataset_format_version_3(path, original):
    _write_records(path, decode_dataset(original.read_text()), version=3)


def _row_at_line(lineno, row, n=20):
    """Writer of a dataset of n _record events, of a user (3 values) and a
    genre (2 values), whose line `lineno` is `row`."""

    def write(path, _original):
        lines = encode_dataset([_record(i) for i in range(n)]).splitlines(keepends=True)
        lines[lineno - 1] = row + "\n"
        path.write_text("".join(lines))

    return write


# a context of the generated schema: the context document a row reads
# unless it writes its own
CONTEXT = {
    "activity": "live", "day_of_week": "0mon", "female_fraction": 0.0,
    "group_size": 1.0, "guest_count": "0", "hour_of_day": "20",
    "mean_age": 40.0, "region": "north", "tv_location": "bedroom",
    "viewer_ids": ["u0001"],
}


def _context_nan_group_size(path, _original):
    # only the NaN is wrong
    context = {**CONTEXT, "group_size": "<nan>"}
    path.write_text(json.dumps({"context": context}).replace('"<nan>"', "NaN"))


def _context_with(name, value):
    """Writer of the context document with one value replaced."""

    def write(path, _original):
        path.write_text(json.dumps({"context": {**CONTEXT, name: value}}))

    return write


@_edited_records
def _every_7th_genre_a_number(records):
    for rec in records[::7]:
        rec["item"]["genre"] = 5


def _event_6_with(part, name, value):
    """Writer of the generated dataset with the sixth event's part[name]
    ("item" or "context") replaced by value, or removed when value is None;
    the event's duration passes the duration filter."""

    def edit(records):
        rec = records[5]
        del rec[part][name]
        if value is not None:
            rec[part][name] = value
        rec["duration_min"] = 30.0

    return _edited_records(edit)


def _encode(a):
    """A parameter array in checkpoint format 3, by this file's own codec."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(text, shape):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(shape)


def _shapes(doc):
    """The shape of each entry of a format 3 document's parameters, worked
    out here from its schema and encoder config: per tower, context first,
    each layer's (out, in) weights, then its (out,) biases."""
    config, shapes = doc["encoder_config"], []
    for specs in (doc["schema"]["context_specs"], doc["schema"]["item_specs"]):
        width = sum(1 if s["kind"] == "numeric" else len(s["vocabulary"]) for s in specs)
        w = [width, *config["hidden_widths"], config["embedding_dim"]]
        for n_in, n_out in zip(w, w[1:]):
            shapes += [(n_out, n_in), (n_out,)]
    return shapes


def _zero_context_tower(path, original):
    # the context tower's last layer maps everything to the zero vector
    doc = json.loads(original.read_text())
    params, shapes = doc["parameters"], _shapes(doc)
    half = len(params) // 2  # the towers have equally many layers
    for k in (half - 2, half - 1):
        params[k] = _encode(np.zeros(shapes[k]))
    path.write_text(json.dumps(doc))


def _zero_norm_genre(path, original):
    # the item tower's later biases are 0 and the first genre's first-layer
    # column is -1e3: that genre's ReLUs all die, so it embeds to the zero
    # vector, while the other genres keep a direction
    doc = json.loads(original.read_text())
    params, shapes = doc["parameters"], _shapes(doc)
    half = len(params) // 2  # the towers have equally many layers
    for k in range(half + 3, len(params), 2):
        params[k] = _encode(np.zeros(shapes[k]))
    weights = _decode(params[half], shapes[half]).copy()
    weights[:, 0] = -1e3  # genre is the one item feature: column 0 is its first value
    params[half] = _encode(weights)
    path.write_text(json.dumps(doc))


def _overflowing_tower(tower, factor):
    """Writer of the checkpoint with every weight matrix of the "context" or
    the "item" tower times factor: still finite, so it loads, but a large
    factor overflows the forward pass or the embeddings' norms."""

    def write(path, original):
        doc = json.loads(original.read_text())
        params, shapes = doc["parameters"], _shapes(doc)
        half = len(params) // 2  # the towers have equally many layers
        first = 0 if tower == "context" else half
        for k in range(first, first + half, 2):
            params[k] = _encode(_decode(params[k], shapes[k]) * factor)
        path.write_text(json.dumps(doc))

    return write


@_edited_records
def _test_split_group_size_text(records):
    # the last 20 events fall in the test split; some pass the duration filter
    for rec in records[-20:]:
        rec["context"]["group_size"] = "two"


@_edited_records
def _test_split_genres_new(records):
    # with min_item_count 1 only the duration filter drops events, so the
    # test split is the last tenth of the events that pass it
    kept = [rec for rec in records if rec["duration_min"] >= 3.0]
    for rec in kept[round(0.9 * len(kept)):]:
        rec["item"]["genre"] = "gNEW"


def _non_utf8_dataset(path, _original):
    lines = encode_dataset([_record(i) for i in range(20)]).encode().splitlines(keepends=True)
    lines[4] = b'["\xff\xfe",1]\n'
    path.write_bytes(b"".join(lines))


def _item_not_object_dataset(path, _original):
    header, *lines = encode_dataset([_record(i) for i in range(20)]).splitlines(keepends=True)
    doc = json.loads(header)
    doc["item"] = ["g0"]
    path.write_text(json.dumps(doc) + "\n" + "".join(lines))


def _nested_object_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[4]["context"]["user"] = {"id": "u1"}
    _write_records(path, rows)


def _nested_list_dataset(path, _original):
    rows = [_record(i) for i in range(20)]
    rows[7]["item"]["genre"] = ["g0", ["g1"]]
    _write_records(path, rows)


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


def _checkpoint_with_dataset_sha256(path, original):
    doc = json.loads(original.read_text())
    doc["dataset_sha256"] = "abc"
    path.write_text(json.dumps(doc))


def _checkpoint_with_text_weights(path, original):
    # format 1's decimal text inside a format 3 document, one entry a word
    doc = json.loads(original.read_text())
    k = len(doc["parameters"]) // 2  # item_encoder layer 0 weights
    weights = _decode(doc["parameters"][k], _shapes(doc)[k]).tolist()
    weights[0][0] = "heavy"
    doc["parameters"][k] = weights
    path.write_text(json.dumps(doc))


def _layer_0_array(tower, part, edit):
    """Writer of the checkpoint with the parameters entry of layer 0's
    `part` of `tower` replaced by edit(that entry, its shape)."""

    def write(path, original):
        doc = json.loads(original.read_text())
        params = doc["parameters"]
        k = (len(params) // 2 if tower == "item_encoder" else 0) + (part == "biases")
        params[k] = edit(params[k], _shapes(doc)[k])
        path.write_text(json.dumps(doc))

    return write


def _first_value(value):
    def edit(text, shape):
        a = _decode(text, shape).copy()
        a.flat[0] = value
        return _encode(a)

    return edit


def _checkpoint_key(key, edit):
    """Writer of the checkpoint with the value of `key` replaced by edit(value)."""

    def write(path, original):
        doc = json.loads(original.read_text())
        doc[key] = edit(doc[key])
        path.write_text(json.dumps(doc))

    return write


def _older_format(version, *keys):
    """Writer of the same model in format `version`, which stores none of `keys`."""

    def write(path, original):
        doc = json.loads(original.read_text())
        for key in keys:
            del doc[key]
        doc["format_version"] = version
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    return write


def _trained_with(**protocol):
    """Writer of the workspace's checkpoint as `train` writes it with the
    protocol keys set in the config; each setting is trained once, into the
    module's workspace directory."""

    def write(path, original):
        ws = original.parent
        name = "_".join(f"{k}_{v}" for k, v in sorted(protocol.items()))
        trained, config = ws / f"trained_{name}.json", ws / f"config_{name}.json"
        if not trained.exists():
            config.write_text(json.dumps({**json.loads((ws / "config.json").read_text()),
                                          **protocol}))
            assert main(["train", "--config", str(config), "--dataset", str(ws / "data.jsonl"),
                         "--checkpoint", str(trained), "--objective", "rjcce"]) == EXIT_OK
        shutil.copyfile(trained, path)

    return write


def _per_layer_format(version, array):
    """Writer of the checkpoint in the layout of formats 1 and 2: each tower
    a list of layers, each with its activation and array(values) of its
    weights and biases, and an encoder config with an architecture."""

    def write(path, original):
        doc = json.loads(original.read_text())
        arrays = [array(_decode(t, s)) for t, s in zip(doc.pop("parameters"), _shapes(doc))]
        half = len(arrays) // 2
        for tower, tower_arrays in (("context_encoder", arrays[:half]),
                                    ("item_encoder", arrays[half:])):
            n = len(tower_arrays) // 2
            doc[tower] = [{"weights": tower_arrays[2 * i], "biases": tower_arrays[2 * i + 1],
                           "activation": "identity" if i == n - 1 else "relu"} for i in range(n)]
        doc["encoder_config"]["architecture"] = "mlp"
        doc["format_version"] = version
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    return write


def _spec_edit(part, name, edit):
    """Writer of the checkpoint with edit(spec) applied to the schema's
    `part` spec ("context_specs" or "item_specs") of feature `name`."""

    def write(path, original):
        doc = json.loads(original.read_text())
        (spec,) = [s for s in doc["schema"][part] if s["name"] == name]
        edit(spec)
        path.write_text(json.dumps(doc))

    return write


def _vocabulary_as_text(spec):
    # a string as long as the vocabulary: as a tuple, its characters fit layer 0
    spec["vocabulary"] = "abcdefgh"[:len(spec["vocabulary"])]


def _one_context_two_genres(path, _original):
    # every genre is seen in the one context, so no BPR negative is admissible
    _write_records(path, [{**_record(i), "context": {"user": "u0"}} for i in range(40)])


@_edited_records
def _every_genre_renamed(records):
    # the same events, but no content is in the checkpoint's catalog
    for rec in records:
        rec["item"]["genre"] = "renamed-" + rec["item"]["genre"]


# no item value of the checkpoint's catalog is in its vocabulary
_EVERY_ITEM_RENAMED = ("checkpoint", _checkpoint_key("items", lambda items: [
    {**it, "genre": "renamed-" + it["genre"]} for it in items]))


@_edited_records
def _no_context_attribute(records):
    for rec in records:
        rec["context"].clear()


def _one_genre_dataset(path, _original):
    _write_records(path, [{**_record(i), "item": {"genre": "g0"}} for i in range(40)])


TRAIN_ARGS = ["train", "--config", "{config}", "--dataset", "{dataset}", "--checkpoint", "{out}"]
RECOMMEND_ARGS = ["recommend", "--checkpoint", "{checkpoint}", "--context", "{context}"]
EVAL_ARGS = ["eval", "--config", "{config}", "--checkpoint", "{checkpoint}",
             "--dataset", "{dataset}", "--report", "{out}"]
ANALYZE_ARGS = ["analyze", "--config", "{config}", "--checkpoint", "{checkpoint}",
                "--dataset", "{dataset}", "--mode", "snnm", "--out", "{out}"]
SIMMATRIX_ARGS = [*ANALYZE_ARGS[:-3], "simmatrix", "--out", "{out}"]
EXPORT_ARGS = [*ANALYZE_ARGS[:-3], "export", "--out", "{out}"]
GEN_ARGS = ["gen", "--config", "{config}", "--out", "{out}"]
MIXED_GENRE = "data error: feature 'genre' mixes value kinds ['categorical_single', 'numeric']"
# read_dataset refuses a header list that does not sort; write_dataset never writes one
UNSORTABLE = ("data error: bad dataset header at line 1: attribute '{name}' holds list values "
              "that do not sort: '<' not supported")
OBJECTIVE_NOT_KNOWN = ("data error: checkpoint {checkpoint} is malformed: objective must be one "
                       "of ['jcce', 'rjcce', 'ljcce', 'bpr'], got ")
SEED_NOT_KNOWN = ("data error: checkpoint {checkpoint} is malformed: seed must be an integer >= 0, "
                  "got ")
ALL_ITEMS_ALIKE = "data error: all 8 catalog items have the same embedding, so every score ties"
ZERO_NORM = "numeric error: zero-norm embedding rows are not allowed"

# checkpoints trained with the protocol keys that the eval and analyze rows
# below set in their config, as the checkpoint fixes the split
TRAINED_MIN_ITEM_COUNT_1 = ("checkpoint", _trained_with(min_item_count=1))
TRAINED_TRAIN_FRACTION_9999 = ("checkpoint", _trained_with(train_fraction=0.9999))

# id: (config overrides, argv template, input writer, exit code, message prefix);
# a writer (path name, fn(path, original)), or a list of them, replaces that
# input; messages may name the inputs, e.g. {checkpoint}
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
    "train_objective_unknown": (
        {"objective": "foo"}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: objective must be one of ['jcce', 'rjcce', 'ljcce', "
        "'bpr'], got 'foo'",
    ),
    "train_objective_list": (
        {"objective": ["jcce"]}, TRAIN_ARGS, None, EXIT_CONFIG,
        "config error: invalid TrainConfig: objective must be one of ['jcce', 'rjcce', 'ljcce', "
        "'bpr'], got ['jcce']",
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
        {"train_fraction": 0.9999}, EVAL_ARGS, TRAINED_TRAIN_FRACTION_9999, EXIT_DATA,
        "data error: empty test split",
    ),
    "eval_test_contents_not_in_catalog": (
        {"min_item_count": 1}, EVAL_ARGS,
        [TRAINED_MIN_ITEM_COUNT_1, ("dataset", _test_split_genres_new)], EXIT_DATA,
        "data error: no test event's content is in the catalog",
    ),
    "analyze_simmatrix_test_contents_not_in_catalog": (
        {"min_item_count": 1}, SIMMATRIX_ARGS,
        [TRAINED_MIN_ITEM_COUNT_1, ("dataset", _test_split_genres_new)], EXIT_DATA,
        "data error: no test event's content is in the catalog",
    ),
    "analyze_empty_test_split": (
        {"train_fraction": 0.9999}, ANALYZE_ARGS, TRAINED_TRAIN_FRACTION_9999, EXIT_DATA,
        "data error: empty test split",
    ),
    # a split other than the checkpoint's is refused before it can empty the catalog
    "eval_min_item_count_empties_catalog": (
        {"min_item_count": 10**6}, EVAL_ARGS, None, EXIT_CONFIG,
        "config error: min_item_count is 1000000 in the config but None in the checkpoint, "
        "whose data split `contextrec train` fixed",
    ),
    "eval_other_train_fraction": (
        {"train_fraction": 0.3}, EVAL_ARGS, None, EXIT_CONFIG,
        "config error: train_fraction is 0.3 in the config but 0.9 in the checkpoint, whose "
        "data split `contextrec train` fixed",
    ),
    "analyze_other_min_item_count": (
        {"min_item_count": 1}, ANALYZE_ARGS, None, EXIT_CONFIG,
        "config error: min_item_count is 1 in the config but None in the checkpoint, whose "
        "data split `contextrec train` fixed",
    ),
    "eval_checkpoint_without_split": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("split", lambda _: None)), EXIT_DATA,
        "data error: the checkpoint records no data split, so write it with `contextrec train`",
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
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _event_6_with("context", "viewer_ids", "u0001")),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got str 'u0001'",
    ),
    "train_1id_viewers_number": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _event_6_with("context", "viewer_ids", 5)),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got int 5",
    ),
    "train_1id_viewers_missing": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _event_6_with("context", "viewer_ids", None)),
        EXIT_DATA,
        "data error: attribute 'viewer_ids' takes a list, got NoneType None",
    ),
    "train_1id_viewers_unsortable": (
        {}, TRAIN_ARGS + ["--1id"], ("dataset", _event_6_with("context", "viewer_ids", ["u1", 5])),
        EXIT_DATA, UNSORTABLE.format(name="viewer_ids"),
    ),
    "train_mixed_kind_genre": (
        {"min_item_count": 1}, TRAIN_ARGS, ("dataset", _every_7th_genre_a_number), EXIT_DATA,
        MIXED_GENRE,
    ),
    "eval_mixed_kind_genre": (
        {"min_item_count": 1}, EVAL_ARGS,
        [TRAINED_MIN_ITEM_COUNT_1, ("dataset", _every_7th_genre_a_number)], EXIT_DATA,
        MIXED_GENRE,
    ),
    "analyze_simmatrix_mixed_kind_genre": (
        {"min_item_count": 1}, SIMMATRIX_ARGS,
        [TRAINED_MIN_ITEM_COUNT_1, ("dataset", _every_7th_genre_a_number)], EXIT_DATA,
        MIXED_GENRE,
    ),
    "train_genre_list_that_does_not_sort": (
        {}, TRAIN_ARGS, ("dataset", _event_6_with("item", "genre", ["a", 1])), EXIT_DATA,
        UNSORTABLE.format(name="genre"),
    ),
    "train_bpr_viewers_that_do_not_sort": (
        {"objective": "bpr"}, TRAIN_ARGS,
        ("dataset", _event_6_with("context", "viewer_ids", ["u0001", 5])), EXIT_DATA,
        UNSORTABLE.format(name="viewer_ids"),
    ),
    "eval_viewers_that_do_not_sort": (
        {}, EVAL_ARGS, ("dataset", _event_6_with("context", "viewer_ids", ["u0001", 5])),
        EXIT_DATA, UNSORTABLE.format(name="viewer_ids"),
    ),
    "train_mixed_kind_feature": (
        {}, TRAIN_ARGS, ("dataset", _mixed_kind_dataset), EXIT_DATA,
        "data error: feature 'size' mixes value kinds",
    ),
    "train_nan_timestamp": (
        {}, TRAIN_ARGS, ("dataset", _non_finite_dataset), EXIT_DATA,
        "data error: bad dataset record at line 7: timestamp and duration_min must be finite "
        "numbers",
    ),
    "train_nan_attribute": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("NaN")), EXIT_DATA,
        "data error: bad dataset header at line 1: attribute 'mean_age' is not a finite "
        "number (nan)",
    ),
    "train_infinite_attribute": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("Infinity")), EXIT_DATA,
        "data error: bad dataset header at line 1: attribute 'mean_age' is not a finite "
        "number (inf)",
    ),
    "train_overflowing_attribute": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("1e400")), EXIT_DATA,
        "data error: bad dataset header at line 1: attribute 'mean_age' is not a finite "
        "number (inf)",
    ),
    "train_integer_beyond_float_range": (
        {}, TRAIN_ARGS, ("dataset", _mean_age_literal("1" + "0" * 400)), EXIT_DATA,
        "data error: bad dataset header at line 1: attribute 'mean_age' is not a finite "
        "number (an integer beyond the float range)",
    ),
    "train_dataset_format_1": (
        {}, TRAIN_ARGS, ("dataset", _format_1_dataset), EXIT_DATA,
        "data error: unsupported dataset format_version: None; this version reads format 2 "
        "only, so re-run `contextrec gen` to write one",
    ),
    "eval_dataset_format_1": (
        {}, EVAL_ARGS, ("dataset", _format_1_dataset), EXIT_DATA,
        "data error: unsupported dataset format_version: None; this version reads format 2 "
        "only, so re-run `contextrec gen` to write one",
    ),
    "analyze_dataset_format_1": (
        {}, ANALYZE_ARGS, ("dataset", _format_1_dataset), EXIT_DATA,
        "data error: unsupported dataset format_version: None; this version reads format 2 "
        "only, so re-run `contextrec gen` to write one",
    ),
    "train_dataset_format_version_3": (
        {}, TRAIN_ARGS, ("dataset", _dataset_format_version_3), EXIT_DATA,
        "data error: unsupported dataset format_version: 3; this version reads format 2 only, "
        "so re-run `contextrec gen` to write one",
    ),
    "train_cell_out_of_range": (
        {}, TRAIN_ARGS, ("dataset", _row_at_line(6, "[4.0,30.0,3,0]")), EXIT_DATA,
        "data error: bad dataset record at line 6: context attribute 'user' cell must be an "
        "index in [-1, 3), got 3",
    ),
    "train_cell_minus_2": (
        {}, TRAIN_ARGS, ("dataset", _row_at_line(6, "[4.0,30.0,0,-2]")), EXIT_DATA,
        "data error: bad dataset record at line 6: item attribute 'genre' cell must be an index "
        "in [-1, 2), got -2",
    ),
    "train_cell_bool": (
        {}, TRAIN_ARGS, ("dataset", _row_at_line(6, "[4.0,30.0,true,0]")), EXIT_DATA,
        "data error: bad dataset record at line 6: context attribute 'user' cell must be an "
        "index in [-1, 3), got True",
    ),
    "train_cell_float": (
        {}, TRAIN_ARGS, ("dataset", _row_at_line(6, "[4.0,30.0,0,1.0]")), EXIT_DATA,
        "data error: bad dataset record at line 6: item attribute 'genre' cell must be an index "
        "in [-1, 2), got 1.0",
    ),
    "train_row_of_wrong_length": (
        {}, TRAIN_ARGS, ("dataset", _row_at_line(6, "[4.0,30.0,0]")), EXIT_DATA,
        "data error: bad dataset record at line 6: a record must be a JSON array of 4 values: "
        "timestamp, duration_min and 2 attribute cells",
    ),
    "train_bad_line_past_the_first_chunk": (
        {}, TRAIN_ARGS, ("dataset", _row_at_line(4500, "[4.0,30.0,0,0,0]", n=5000)), EXIT_DATA,
        "data error: bad dataset record at line 4500: a record must be a JSON array of 4 "
        "values: timestamp, duration_min and 2 attribute cells",
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
        "data error: bad dataset record at line 5: 'utf-8' codec can't decode byte 0xff",
    ),
    "train_item_not_object": (
        {}, TRAIN_ARGS, ("dataset", _item_not_object_dataset), EXIT_DATA,
        "data error: bad dataset header at line 1: 'item' must map each attribute name to a "
        "JSON list of its values",
    ),
    "train_nested_object_attribute": (
        {"objective": "rjcce"}, TRAIN_ARGS, ("dataset", _nested_object_dataset), EXIT_DATA,
        "data error: bad dataset header at line 1: attribute 'user' nests an object or array",
    ),
    "train_bpr_nested_list_attribute": (
        {"objective": "bpr"}, TRAIN_ARGS, ("dataset", _nested_list_dataset), EXIT_DATA,
        "data error: bad dataset header at line 1: attribute 'genre' nests an object or array",
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
        {}, ANALYZE_ARGS, ("checkpoint", _zero_context_tower), EXIT_NUMERIC, ZERO_NORM,
    ),
    "analyze_simmatrix_zero_norm_contexts": (
        {}, SIMMATRIX_ARGS, ("checkpoint", _zero_context_tower), EXIT_NUMERIC, ZERO_NORM,
    ),
    # every cosine refuses an embedding with no direction, in serving as in analysis
    "eval_zero_norm_contexts": (
        {}, EVAL_ARGS, ("checkpoint", _zero_context_tower), EXIT_NUMERIC, ZERO_NORM,
    ),
    "recommend_zero_norm_context": (
        {}, RECOMMEND_ARGS, ("checkpoint", _zero_context_tower), EXIT_NUMERIC, ZERO_NORM,
    ),
    "eval_zero_norm_content": (
        {}, EVAL_ARGS, ("checkpoint", _zero_norm_genre), EXIT_NUMERIC, ZERO_NORM,
    ),
    "recommend_zero_norm_content": (
        {}, RECOMMEND_ARGS, ("checkpoint", _zero_norm_genre), EXIT_NUMERIC, ZERO_NORM,
    ),
    "analyze_simmatrix_zero_norm_content": (
        {}, SIMMATRIX_ARGS, ("checkpoint", _zero_norm_genre), EXIT_NUMERIC, ZERO_NORM,
    ),
    "analyze_snnm_overflowing_contexts": (
        {}, ANALYZE_ARGS, ("checkpoint", _overflowing_tower("context", 1e120)), EXIT_NUMERIC,
        "numeric error: non-finite context embeddings",
    ),
    "analyze_export_overflowing_contexts": (
        {}, EXPORT_ARGS, ("checkpoint", _overflowing_tower("context", 1e120)), EXIT_NUMERIC,
        "numeric error: non-finite context embeddings",
    ),
    "analyze_simmatrix_overflowing_contexts": (
        {}, SIMMATRIX_ARGS, ("checkpoint", _overflowing_tower("context", 1e120)), EXIT_NUMERIC,
        "numeric error: non-finite context embeddings",
    ),
    # finite embeddings whose norms overflow, and non-finite content
    # embeddings: a cosine would divide by inf
    "analyze_snnm_overflowing_context_norms": (
        {}, ANALYZE_ARGS, ("checkpoint", _overflowing_tower("context", 1e100)), EXIT_NUMERIC,
        "numeric error: non-finite embedding norms",
    ),
    "analyze_simmatrix_overflowing_context_norms": (
        {}, SIMMATRIX_ARGS, ("checkpoint", _overflowing_tower("context", 1e100)), EXIT_NUMERIC,
        "numeric error: non-finite embedding norms",
    ),
    "recommend_overflowing_context": (
        {}, RECOMMEND_ARGS, ("checkpoint", _overflowing_tower("context", 1e120)), EXIT_NUMERIC,
        "numeric error: non-finite context embedding norm",
    ),
    "recommend_overflowing_items": (
        {}, RECOMMEND_ARGS, ("checkpoint", _overflowing_tower("item", 1e120)), EXIT_NUMERIC,
        "numeric error: non-finite content embedding norms",
    ),
    "eval_overflowing_items": (
        {}, EVAL_ARGS, ("checkpoint", _overflowing_tower("item", 1e120)), EXIT_NUMERIC,
        "numeric error: non-finite content embedding norms",
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
        "data error: checkpoint {checkpoint}: item_encoder layer 0 weights: data must be a "
        "base64 string, got list",
    ),
    "eval_checkpoint_payload_not_base64": (
        {}, EVAL_ARGS,
        ("checkpoint", _layer_0_array("item_encoder", "weights", lambda t, shape: "*" + t[1:])),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: item_encoder layer 0 weights: data is not base64",
    ),
    "eval_checkpoint_payload_one_value_short": (
        {}, EVAL_ARGS,
        ("checkpoint", _layer_0_array("context_encoder", "weights",
                                      lambda t, shape: _encode(_decode(t, shape).ravel()[1:]))),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: context_encoder layer 0 weights: data holds ",
    ),
    "eval_checkpoint_parameters_one_short": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("parameters", lambda texts: texts[:-1])),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: parameters must be a list of the 12 arrays that "
        "the schema and encoder_config give, got 11",
    ),
    "eval_checkpoint_parameters_not_a_list": (
        {}, EVAL_ARGS,
        ("checkpoint", _checkpoint_key("parameters", lambda texts: dict(enumerate(texts)))),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: parameters must be a list of the 12 arrays that "
        "the schema and encoder_config give, got dict",
    ),
    "eval_checkpoint_nan_weight": (
        {}, EVAL_ARGS,
        ("checkpoint", _layer_0_array("context_encoder", "weights", _first_value(np.nan))),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: context_encoder layer 0 weights: data holds a "
        "non-finite value",
    ),
    "recommend_checkpoint_infinite_bias": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _layer_0_array("item_encoder", "biases", _first_value(-np.inf))),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: item_encoder layer 0 biases: data holds a "
        "non-finite value",
    ),
    "eval_checkpoint_format_version_1": (
        {}, EVAL_ARGS, ("checkpoint", _per_layer_format(1, lambda a: a.tolist())), EXIT_DATA,
        "data error: checkpoint {checkpoint}: unsupported checkpoint format_version: 1; "
        "this version reads format 5 only, so re-run `contextrec train` to write one",
    ),
    "eval_checkpoint_format_version_2": (
        {}, EVAL_ARGS,
        ("checkpoint", _per_layer_format(2, lambda a: {"data": _encode(a), "shape": [*a.shape]})),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: unsupported checkpoint format_version: 2; "
        "this version reads format 5 only, so re-run `contextrec train` to write one",
    ),
    "eval_checkpoint_format_version_3": (
        {}, EVAL_ARGS, ("checkpoint", _older_format(3, "split", "items")), EXIT_DATA,
        "data error: checkpoint {checkpoint}: unsupported checkpoint format_version: 3; "
        "this version reads format 5 only, so re-run `contextrec train` to write one",
    ),
    "eval_format_4_checkpoint": (
        {}, EVAL_ARGS, ("checkpoint", _older_format(4, "split")), EXIT_DATA,
        "data error: checkpoint {checkpoint}: unsupported checkpoint format_version: 4; "
        "this version reads format 5 only, so re-run `contextrec train` to write one",
    ),
    "eval_checkpoint_split_empty": (
        # the split holds exactly SplitConfig's fields: no default fills a missing one
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("split", lambda _: {})), EXIT_DATA,
        "data error: checkpoint {checkpoint}: split lacks key 'min_duration_minutes'",
    ),
    "eval_checkpoint_extra_key": (
        # a key the format does not have is refused, not dropped unread
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_with_dataset_sha256), EXIT_DATA,
        "data error: checkpoint {checkpoint}: keys ['dataset_sha256'] are not in format 5",
    ),
    "recommend_checkpoint_items_not_a_list": (
        {}, RECOMMEND_ARGS, ("checkpoint", _checkpoint_key("items", lambda items: items[0])),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: items must be a list of attribute objects",
    ),
    "recommend_checkpoint_one_item": (
        {}, RECOMMEND_ARGS, ("checkpoint", _checkpoint_key("items", lambda items: items[:1])),
        EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: a catalog needs at least 2 items, "
        "got 1",
    ),
    "recommend_checkpoint_duplicate_items": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _checkpoint_key("items", lambda items: [*items, items[3]])), EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: duplicate item descriptors in catalog",
    ),
    "recommend_checkpoint_item_unknown_attribute": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _checkpoint_key("items", lambda items: [{**items[0], "mood": "calm"},
                                                               *items[1:]])),
        EXIT_DATA,
        "data error: unknown attribute names: ['mood']",
    ),
    "recommend_checkpoint_item_of_another_kind": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _checkpoint_key("items", lambda items: [{**items[0], "genre": 5},
                                                               *items[1:]])),
        EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: item 0 attribute 'genre' is numeric, "
        "but its feature is categorical_single",
    ),
    "eval_checkpoint_objective_csv": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("objective", lambda _: "a,b\nc")),
        EXIT_DATA, OBJECTIVE_NOT_KNOWN + "'a,b\\nc'",
    ),
    "eval_checkpoint_objective_number": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("objective", lambda _: 5)), EXIT_DATA,
        OBJECTIVE_NOT_KNOWN + "5",
    ),
    "eval_checkpoint_seed_negative": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("seed", lambda _: -1)), EXIT_DATA,
        SEED_NOT_KNOWN + "-1",
    ),
    "eval_checkpoint_seed_text": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("seed", lambda _: "x")), EXIT_DATA,
        SEED_NOT_KNOWN + "'x'",
    ),
    "eval_checkpoint_seed_bool": (
        {}, EVAL_ARGS, ("checkpoint", _checkpoint_key("seed", lambda _: True)), EXIT_DATA,
        SEED_NOT_KNOWN + "True",
    ),
    "recommend_checkpoint_vocabulary_short_of_layer_0": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _spec_edit("context_specs", "region", lambda s: s["vocabulary"].pop())),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: context_encoder layer 0 weights: data holds ",
    ),
    "recommend_checkpoint_unknown_kind": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _spec_edit("item_specs", "genre", lambda s: s.update(kind="mystery"))),
        EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: feature 'genre' has unknown kind "
        "'mystery'",
    ),
    "recommend_checkpoint_vocabulary_text": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _spec_edit("context_specs", "region", _vocabulary_as_text)),
        EXIT_DATA,
        "data error: checkpoint {checkpoint}: feature 'region' vocabulary is not a JSON list",
    ),
    "recommend_checkpoint_vocabulary_unsorted": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _spec_edit("context_specs", "region", lambda s: s["vocabulary"].reverse())),
        EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: feature 'region' vocabulary must be "
        "distinct strings in sorted order",
    ),
    "recommend_checkpoint_numeric_range_empty": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _spec_edit("context_specs", "group_size",
                                  lambda s: s.update(max=s["min"]))),
        EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: numeric feature 'group_size' needs "
        "finite min < max, got 1.0 and 1.0",
    ),
    "train_bpr_one_context_two_genres": (
        {"objective": "bpr"}, TRAIN_ARGS, ("dataset", _one_context_two_genres), EXIT_DATA,
        "data error: could not find admissible BPR negatives",
    ),
    "gen_out_under_a_file": (
        {}, ["gen", "--config", "{config}", "--out", "{dataset}/x.jsonl"], None, EXIT_DATA,
        "data error: [Errno 20] Not a directory: '{dataset}/.x.jsonl.",
    ),
    "eval_every_genre_renamed": (
        {}, EVAL_ARGS, ("dataset", _every_genre_renamed), EXIT_DATA,
        "data error: no test event's content is in the catalog",
    ),
    "recommend_every_genre_renamed": (
        {}, RECOMMEND_ARGS, _EVERY_ITEM_RENAMED, EXIT_DATA, ALL_ITEMS_ALIKE,
    ),
    "eval_every_item_renamed": ({}, EVAL_ARGS, _EVERY_ITEM_RENAMED, EXIT_DATA, ALL_ITEMS_ALIKE),
    "analyze_simmatrix_every_item_renamed": (
        {}, SIMMATRIX_ARGS, _EVERY_ITEM_RENAMED, EXIT_DATA, ALL_ITEMS_ALIKE,
    ),
    "train_collapsed_item_tower": (
        # lam 100 at learning rate 0.01 kills the item tower's ReLUs by step 60
        {"objective": "rjcce", "lam": 100, "learning_rate": 0.01}, TRAIN_ARGS, None, EXIT_NUMERIC,
        "numeric error: at the best step, 60, the item tower cannot rank the catalog: "
        "all 8 catalog items have the same embedding, so every score ties",
    ),
    "analyze_simmatrix_every_genre_renamed": (
        {}, SIMMATRIX_ARGS, ("dataset", _every_genre_renamed), EXIT_DATA,
        "data error: no test event's content is in the catalog",
    ),
    "train_one_genre": (
        {}, TRAIN_ARGS, ("dataset", _one_genre_dataset), EXIT_DATA,
        "data error: the training log holds 1 distinct content; a model needs at least 2",
    ),
    "train_no_context_attribute": (
        {}, TRAIN_ARGS, ("dataset", _no_context_attribute), EXIT_DATA,
        "data error: the context input is 0 wide: the schema has no context feature value to "
        "encode",
    ),
    "recommend_checkpoint_no_context_specs": (
        {}, RECOMMEND_ARGS,
        ("checkpoint", _checkpoint_key("schema", lambda schema: {**schema, "context_specs": []})),
        EXIT_DATA,
        "data error: checkpoint {checkpoint} is malformed: the context input is 0 wide: the "
        "schema has no context feature value to encode",
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
    context.write_text(json.dumps({"context": CONTEXT}))
    out = tmp_path / "out"
    paths = dict(config=config, dataset=dataset, checkpoint=ckpt, context=context, out=out)
    writers = writer if isinstance(writer, list) else [writer] if writer else []
    for name, write in writers:
        original, paths[name] = paths[name], tmp_path / f"written_{name}"
        write(paths[name], original)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in template]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(**paths))
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("tower", ["context", "item"])
def test_weight_scale_sweep(workspace, tmp_path, capsys, tower):
    """With one tower's weights scaled up to overflow, every scoring or
    measuring command either exits 0 with only finite numbers in what it
    prints and writes, or exits 4 with one line; a RuntimeWarning fails the
    test (pyproject's filterwarnings)."""
    _, config_path, dataset, original = workspace
    context = tmp_path / "ctx.json"
    context.write_text(json.dumps({"context": CONTEXT}))
    commands = {"recommend": RECOMMEND_ARGS, "eval": EVAL_ARGS, "snnm": ANALYZE_ARGS,
                "simmatrix": SIMMATRIX_ARGS, "export": EXPORT_ARGS}
    codes = {}
    for factor in (1.0, 1e50, 1e100, 1e120, 1e200, 1e300):
        ckpt = tmp_path / f"scaled_{factor:g}.json"
        _overflowing_tower(tower, factor)(ckpt, original)
        for name, template in commands.items():
            out = tmp_path / f"{name}_{factor:g}.out"
            paths = dict(config=config_path, dataset=dataset, checkpoint=ckpt, context=context,
                         out=out)
            capsys.readouterr()
            code = codes[name, factor] = main([arg.format(**paths) for arg in template])
            captured = capsys.readouterr()
            if code == EXIT_NUMERIC:
                assert captured.out == "" and not out.exists()
                assert captured.err.startswith("numeric error: ")
                assert captured.err.count("\n") == 1
                continue
            assert code == EXIT_OK and captured.err == ""
            if name == "recommend":  # label, tab, score
                cells = [line.split("\t")[1] for line in captured.out.splitlines()]
            else:  # eval's model=..,key=value lines; a CSV with a label column, but the curve
                cells = [c.split("=")[1] for line in captured.out.splitlines()
                         for c in line.split(",")[1:]]
                rows = list(csv.reader(out.read_text().splitlines()))[1:]
                if name == "simmatrix":  # a content absent from the test log is a NaN row
                    rows = [r for r in rows if not all(c == "nan" for c in r[1:])]
                cells += [c for r in rows for c in (r if name == "snnm" else r[1:])]
            assert cells and all(np.isfinite(float(c)) for c in cells), (name, factor)
    # the overflow cases are refused, not scored
    assert codes["recommend", 1e120] == codes["recommend", 1e300] == EXIT_NUMERIC
    assert codes["recommend", 1.0] == codes["eval", 1.0] == EXIT_OK
