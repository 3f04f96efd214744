"""Hash every output of a small seeded CLI pipeline, to check byte identity.

Usage: python scripts/byte_identity.py OUTDIR > hashes.txt

Runs gen, then train for each of the four objectives (each with a history
CSV), then eval --baselines, recommend and the three analyze modes on
every checkpoint, all through `contextrec.cli.main` on one small fixed
config. OUTDIR must be absent or empty. Each command's stdout is saved
under OUTDIR/stdout/ with OUTDIR replaced by a placeholder, so it counts
as an output too. Prints one sorted `sha256  relative-path` line per file.

Run it at two commits on the same machine and diff the printouts. The
hashes depend on the NumPy/BLAS build, so runs on different machines do
not compare.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contextrec.cli import main as cli_main  # noqa: E402

OBJECTIVES = ("jcce", "rjcce", "ljcce", "bpr")
CONFIG = {
    "n_weeks": 1,
    "events_per_day": 200,
    "n_genres": 8,
    "n_households": 12,
    "n_users": 30,
    "seed": 3,
    "batch_size": 16,
    "max_steps": 200,
    "eval_every": 10,
    "patience": 2,
    "snnm_repetitions": 2,
    "snnm_sample_size": 64,
}
PLACEHOLDER = "<OUTDIR>"


def run(out: Path, name: str, *argv) -> None:
    """One CLI command; a non-zero exit stops the script."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"{name}: exit {code}")
    (out / "stdout" / f"{name}.txt").write_text(
        buf.getvalue().replace(str(out), PLACEHOLDER), encoding="utf-8"
    )


def pipeline(out: Path) -> None:
    (out / "stdout").mkdir(parents=True)
    config, dataset = out / "config.json", out / "data.jsonl"
    config.write_text(json.dumps(CONFIG, sort_keys=True), encoding="utf-8")
    run(out, "gen", "gen", "--config", config, "--out", dataset)
    first = json.loads(dataset.read_text(encoding="utf-8").splitlines()[0])
    context = out / "context.json"
    context.write_text(json.dumps({"context": first["context"]}, sort_keys=True), encoding="utf-8")
    common = ["--config", config, "--dataset", dataset]
    for obj in OBJECTIVES:
        ckpt = out / f"{obj}.ckpt.json"
        run(out, f"train-{obj}", "train", *common, "--objective", obj,
            "--checkpoint", ckpt, "--history", out / f"{obj}.history.csv")
        with_ckpt = common + ["--checkpoint", ckpt]
        run(out, f"eval-{obj}", "eval", *with_ckpt, "--baselines",
            "--report", out / f"{obj}.report.csv")
        run(out, f"recommend-{obj}", "recommend", *with_ckpt, "--context", context,
            "--top-k", 1000)
        for mode in ("snnm", "simmatrix", "export"):
            run(out, f"analyze-{mode}-{obj}", "analyze", *with_ckpt, "--mode", mode,
                "--out", out / f"{obj}.{mode}.csv")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/byte_identity.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    pipeline(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
