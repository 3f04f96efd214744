"""Seeded benchmark inputs, built once and cached under a content hash.

Each workload's inputs are a dataset file written by the repository's own
generator and, for `serve` and `analyze`, a briefly trained checkpoint.
They depend only on the workload, the seed, the smoke flag and the source
of the program that makes them. A cache entry is a directory holding the
files plus `manifest.json` with each file's SHA-256; `ensure_inputs`
verifies every hash before the inputs are used and rebuilds the entry when
one does not match.

Creation runs in a child process (`python3 perfbench/inputs.py ...`), so
its time and memory never count towards the measuring process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

# Generator and protocol settings per workload. `min_item_count` None keeps
# the repository default (1% of the log); 1 keeps the long tail of items.
CONFIGS = {
    "train": {
        "generator": dict(n_weeks=4, events_per_day=4000, n_genres=30,
                          habit_strength=5.0, temporal_strength=2.0),
        "min_item_count": None,
        "checkpoint_steps": 0,
    },
    "serve": {
        "generator": dict(n_weeks=4, events_per_day=1000, n_genres=2000),
        "min_item_count": 1,
        "checkpoint_steps": 20,
    },
    "analyze": {
        "generator": dict(n_weeks=4, events_per_day=2000, n_genres=300),
        "min_item_count": 1,
        "checkpoint_steps": 20,
    },
}

SMOKE_CONFIGS = {
    "train": {
        "generator": dict(n_weeks=1, events_per_day=400, n_genres=12,
                          habit_strength=5.0, temporal_strength=2.0),
        "min_item_count": None,
        "checkpoint_steps": 0,
    },
    "serve": {
        "generator": dict(n_weeks=1, events_per_day=300, n_genres=40),
        "min_item_count": 1,
        "checkpoint_steps": 3,
    },
    "analyze": {
        "generator": dict(n_weeks=1, events_per_day=300, n_genres=15),
        "min_item_count": 1,
        "checkpoint_steps": 3,
    },
}


def config_for(workload: str, smoke: bool) -> dict:
    return (SMOKE_CONFIGS if smoke else CONFIGS)[workload]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    """Hash of the program source and of this file: inputs made by another
    version of the generator or trainer are never reused."""
    h = hashlib.sha256()
    for path in sorted((SRC / "contextrec").glob("*.py")) + [Path(__file__).resolve()]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def entry_dir(workload: str, seed: int, smoke: bool) -> Path:
    key = json.dumps(
        {"config": config_for(workload, smoke), "source": source_digest()},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    name = f"{workload}{'-smoke' if smoke else ''}-s{seed}-{digest}"
    return CACHE / "inputs" / name


def _verified(entry: Path) -> dict | None:
    manifest_path = entry / "manifest.json"
    if not manifest_path.is_file():
        return None
    manifest = json.loads(manifest_path.read_text())
    for name, digest in manifest["files"].items():
        path = entry / name
        if not path.is_file() or sha256_file(path) != digest:
            return None
    return manifest


def ensure_inputs(workload: str, seed: int, smoke: bool) -> tuple[Path, dict]:
    """Return (entry directory, manifest), creating the entry if needed."""
    entry = entry_dir(workload, seed, smoke)
    manifest = _verified(entry)
    if manifest is not None:
        return entry, manifest
    shutil.rmtree(entry, ignore_errors=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--out", str(entry)]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=600)
    manifest = _verified(entry)
    if manifest is None:
        raise RuntimeError(f"inputs in {entry} failed verification after creation")
    return entry, manifest


def create(workload: str, seed: int, smoke: bool, out: Path) -> None:
    """Generate the dataset (and checkpoint) into `out`, atomically."""
    sys.path.insert(0, str(SRC))
    from contextrec import datagen, serialization
    from contextrec.features import build_schema
    from contextrec.trainer import TrainConfig, train

    cfg = config_for(workload, smoke)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    t0 = time.perf_counter()
    log = datagen.generate(datagen.GeneratorConfig(seed=seed, **cfg["generator"]))
    generate_s = time.perf_counter() - t0
    serialization.write_dataset(log, tmp / "dataset.jsonl")
    manifest = {"events": len(log), "generate_s": generate_s, "checkpoint_train_s": 0.0}

    if cfg["checkpoint_steps"]:
        kept = datagen.filter_log(log, min_item_count=cfg["min_item_count"])
        train_log, _ = datagen.temporal_split(kept)
        steps = cfg["checkpoint_steps"]
        t0 = time.perf_counter()
        model, _ = train(
            train_log,
            build_schema(train_log),
            TrainConfig(objective="rjcce", max_steps=steps, eval_every=steps, seed=seed),
        )
        manifest["checkpoint_train_s"] = time.perf_counter() - t0
        serialization.save_checkpoint(model, tmp / "checkpoint.json", objective="rjcce", seed=seed)

    manifest["files"] = {
        p.name: sha256_file(p) for p in sorted(tmp.iterdir()) if p.is_file()
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    os.replace(tmp, out)


def main() -> int:
    ap = argparse.ArgumentParser(description="create one cached benchmark input set")
    ap.add_argument("--workload", choices=sorted(CONFIGS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    create(args.workload, args.seed, args.smoke, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
