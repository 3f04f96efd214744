"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits every metric named in BENCHMARK.json
with its unit, in both trace modes, that the readable report names the
workload's end-to-end figures, that a failed correctness check is counted,
and that the benchmark refuses to run without the program's source.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPORTED = {
    "train": ["setup_s", "jcce_steps_per_s", "rjcce_steps_per_s", "bpr_steps_per_s",
              "checkpoint_save_s", "peak_rss_mb", "error_rate"],
    "serve": ["setup_s", "recommend_ms_p50", "recommend_ms_p99", "eval_events_per_s",
              "peak_rss_mb", "error_rate"],
    "analyze": ["setup_s", "snnm_sweep_s", "simmatrix_s", "peak_rss_mb", "error_rate"],
}


def run(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run(workload, trace, extra=["--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if trace == 0:
        report = "\n".join(lines[:-1])
        for name in REPORTED[workload]:
            assert f"  {name} " in report, name
        assert '"nproc"' in report and '"blas_threads"' in report


def test_failed_check_counts_in_error_rate(monkeypatch, capsys):
    """A ranking that breaks ties the wrong way fails the serving oracle."""
    sys.path.insert(0, str(BENCH_DIR))
    import run as bench

    sys.path.insert(0, str(ROOT / "src"))
    from contextrec import model

    def reversed_ranking(scores):
        return model.np.lexsort((-model.np.arange(len(scores)), scores))

    monkeypatch.setattr(model, "rank_scores", reversed_ranking)
    assert bench.main(["--workload", "serve", "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
