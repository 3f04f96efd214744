"""contextrec benchmark entry point.

    python3 perfbench/run.py --workload train|serve|analyze|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The program is imported from `src/`; the
inputs are generated from `--seed` and cached in `.perfbench_cache/`.
With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics, with `--trace 1` the per-layer metrics. The lines
before it are a readable report, the environment facts and any failed
checks. `--workload all` runs the three workloads one after another, each
in its own process, and prints their reports. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "contextrec"

# One BLAS thread: the benchmark measures single-process work on a small
# machine, and one thread keeps run-to-run spread low. Set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOAD_NAMES = ("train", "serve", "analyze")


def pin_to_one_cpu() -> int:
    """Keep this process on one CPU, so the reference kernel and the timed
    calls run on the same one (the CPUs of a shared machine are slowed by
    their neighbours independently). Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for entry in packed.read_text().splitlines():
            if entry.endswith(" " + ref[5:]):
                return entry.split()[0]
    return None


def blas_facts(np) -> dict:
    """OpenBLAS version from NumPy's build info and its live thread count."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                threads = fn()
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_requested": int(BLAS_THREADS),
    }


def environment(np, seed: int, source_digest: str, nproc: int, cpu: int) -> dict:
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(np),
        "git_commit": git_commit(),
        "source_sha256": source_digest,
        "seed": seed,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"contextrec source not found at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import inputs

    entry, manifest = inputs.ensure_inputs(args.workload, args.seed, args.smoke)

    import contextrec
    import workloads

    if Path(contextrec.__file__).resolve().parent != PACKAGE:
        print(f"imported contextrec from {contextrec.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2

    work = inputs.CACHE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, args.smoke,
                            entry, manifest, work)
    w = workloads.WORKLOADS[args.workload](ctx)
    try:
        if args.trace:
            metrics, report, out, tracer = workloads.traced_run(w)
            units = workloads.PER_LAYER
            traces = inputs.CACHE / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_path = traces / f"{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path)
            report.append(f"  spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, report, out = workloads.timed_run(w)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = workloads.END_TO_END
            report.insert(1, workloads.line("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                                            "peak resident set of this process"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rate = out.failed / out.attempted if out.attempted else 0.0
    report.append(workloads.line("error_rate", rate, "share",
                                 f"{out.failed} failed of {out.attempted} operations"))
    report.append(workloads.line("datagen.generate_s", manifest["generate_s"], "s",
                                 f"input creation only, not in setup_s ({manifest['events']} events)"))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print("\n".join(report))
    for reason in out.reasons:
        print(f"  FAILED {reason}")
    print("env " + json.dumps(environment(np, args.seed, inputs.source_digest(), nproc, cpu), sort_keys=True))
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
