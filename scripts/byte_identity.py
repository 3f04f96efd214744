"""Hash every output of a small seeded CLI pipeline, to check byte identity.

Usage: python scripts/byte_identity.py OUTDIR > hashes.txt
       python scripts/byte_identity.py OUTDIR --compare hashes.txt [--expect LIST]

Runs gen, then train for each of the four objectives (each with a history
CSV), then eval --baselines, recommend and the three analyze modes on
every checkpoint, all through `contextrec.cli.main` on one small fixed
config. OUTDIR must be absent or empty. Each command's stdout is saved
under OUTDIR/stdout/ with OUTDIR replaced by a placeholder, so it counts
as an output too. Prints one sorted `sha256  relative-path` line per file.

The hashes depend on the NumPy version and the BLAS build, so the printout
opens with a `# name: value` header of those conditions: the NumPy version,
the BLAS name and version, and `blas_threads: pinned to 1`. The script, like
every CLI command, first sets NumPy's bundled OpenBLAS to one thread, so the
thread count does not choose the bytes. Where no thread setter is found, it
does, and the header names the OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS variables and the number of CPUs the process may run on
instead of `blas_threads`.

Run it at two commits under the same conditions and compare: save the first
commit's printout, then run the second with `--compare` on that file. It
prints one `changed`, `missing` or `extra` line per differing path and a
summary on stderr, and exits 1 on any difference, 0 when every file
matches. With `--expect LIST` it exits 0 only when the differing paths are
exactly those that LIST names, one relative path a line (blank lines and
lines starting with `#` are skipped), and names on stderr each unlisted
difference and each listed path that did not differ. A printout whose
header names other conditions is refused with a one-line message and exit
2, before anything runs; a printout without a header is compared as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contextrec.cli import main as cli_main  # noqa: E402
from contextrec.nn_core import one_blas_thread  # noqa: E402
from contextrec.serialization import attrs_to_json, read_dataset  # noqa: E402
from contextrec.trainer import OBJECTIVES  # noqa: E402

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
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = {"blas_threads": "pinned to 1"}


def conditions(pinned: bool) -> dict[str, str]:
    """The NumPy version and BLAS build of this run, then PINNED if the BLAS
    runs on one thread, else its thread settings and usable CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # NumPy before 1.25 has no mode argument
        blas_name = "unknown"
    here = {"numpy": np.__version__, "blas": blas_name}
    if pinned:
        return {**here, **PINNED}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        **here,
        **{var: os.environ.get(var, "unset") for var in THREAD_VARIABLES},
        "cpus": str(cpus),
    }


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
    first = attrs_to_json(read_dataset(dataset)[0].context_attributes)
    context = out / "context.json"
    context.write_text(json.dumps({"context": first}, sort_keys=True), encoding="utf-8")
    common = ["--config", config, "--dataset", dataset]
    for obj in OBJECTIVES:
        ckpt = out / f"{obj}.ckpt.json"
        run(out, f"train-{obj}", "train", *common, "--objective", obj,
            "--checkpoint", ckpt, "--history", out / f"{obj}.history.csv")
        with_ckpt = common + ["--checkpoint", ckpt]
        run(out, f"eval-{obj}", "eval", *with_ckpt, "--baselines",
            "--report", out / f"{obj}.report.csv")
        run(out, f"recommend-{obj}", "recommend", "--checkpoint", ckpt, "--context", context,
            "--top-k", 1000)
        for mode in ("snnm", "simmatrix", "export"):
            run(out, f"analyze-{mode}-{obj}", "analyze", *with_ckpt, "--mode", mode,
                "--out", out / f"{obj}.{mode}.csv")


def read_conditions(lines) -> dict[str, str]:
    """{name: value} from the printout's `# name: value` header lines."""
    return dict(line[2:].rstrip("\n").split(": ", 1) for line in lines if line.startswith("# "))


def read_hashes(lines) -> dict[str, str]:
    """{relative path: sha256} from `sha256  relative-path` lines; header
    lines are skipped."""
    table = {}
    for line in lines:
        if not line.strip() or line.startswith("# "):
            continue
        digest, sep, rel = line.rstrip("\n").partition("  ")
        if not sep or len(digest) != 64:
            raise ValueError(f"not a `sha256  path` line: {line!r}")
        table[rel] = digest
    return table


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One `changed`, `missing` or `extra` line per differing path, sorted."""
    diffs = []
    for rel in sorted(expected.keys() | actual.keys()):
        if rel not in actual:
            diffs.append(f"missing  {rel}")
        elif rel not in expected:
            diffs.append(f"extra    {rel}")
        elif expected[rel] != actual[rel]:
            diffs.append(f"changed  {rel}")
    return diffs


def read_expected(lines) -> set[str]:
    """The relative paths a LIST file names, one a line; blank lines and
    `#` comments are skipped."""
    return {line.strip() for line in lines if line.strip() and not line.startswith("#")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="byte_identity.py")
    parser.add_argument("outdir", help="absent or empty directory for the outputs")
    parser.add_argument("--compare", metavar="HASHES",
                        help="a saved printout to compare against instead of printing")
    parser.add_argument("--expect", metavar="LIST",
                        help="with --compare: a file naming the paths that must differ")
    args = parser.parse_args(argv)
    if args.expect and not args.compare:
        parser.error("--expect needs --compare")
    expected = None
    listed = set()
    here = conditions(one_blas_thread())
    if args.expect:
        try:
            with open(args.expect, encoding="utf-8") as fh:
                listed = read_expected(fh)
        except OSError as exc:
            print(f"cannot read {args.expect}: {exc}", file=sys.stderr)
            return 2
    if args.compare:
        try:
            with open(args.compare, encoding="utf-8") as fh:
                lines = fh.readlines()
            recorded, expected = read_conditions(lines), read_hashes(lines)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.compare}: {exc}", file=sys.stderr)
            return 2
        if recorded and recorded != here:
            differ = "; ".join(
                f"{name} {recorded.get(name, 'absent')} there, {here.get(name, 'absent')} here"
                for name in sorted(recorded.keys() | here.keys())
                if recorded.get(name) != here.get(name)
            )
            print(f"{args.compare} was taken under other conditions ({differ}); "
                  "its hashes do not compare", file=sys.stderr)
            return 2
    out = Path(args.outdir).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    pipeline(out)
    actual = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in out.rglob("*") if p.is_file())
    }
    if expected is None:
        for name, value in here.items():
            print(f"# {name}: {value}")
        for rel, digest in actual.items():
            print(f"{digest}  {rel}")
        return 0
    diffs = compare(expected, actual)
    for line in diffs:
        print(line)
    same = sum(expected.get(rel) == digest for rel, digest in actual.items())
    print(f"{same} of {len(expected | actual)} files identical, {len(diffs)} differ",
          file=sys.stderr)
    differing = {rel for rel in expected | actual if expected.get(rel) != actual.get(rel)}
    if args.expect:
        for rel in sorted(differing - listed):
            print(f"unlisted difference: {rel}", file=sys.stderr)
        for rel in sorted(listed - differing):
            print(f"listed but identical: {rel}", file=sys.stderr)
    return 0 if differing == listed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
