"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The end-to-end tests run the benchmark, one cycle per workload, in a copy
of the sources under pytest's tmp_path, so they leave the checkout alone.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(cwd: Path, workload: str, trace: int = 0, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, label = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and label == "p90"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert run.tail([float(i) for i in range(15)]) == (7.0, "p50")


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["cycle", 0.0, 10.0, -1, 0, 1, 10.0, False],
        ["spectra.sweep", 1.0, 9.0, 0, 0, 1, 8.0, False],
        ["quantum.steady_state_dm.5x5", 2.0, 6.0, 1, 0, 1, 4.0, False],
        ["quantum.steady_state_dm.5x5", 3.0, 7.0, 1, 0, 1, 4.0, False],  # a second worker
        ["analytic.steady_state", 7.0, 8.5, 1, 0, 3, 0.5, True],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.5, 4.0, 4.0, 0.5])


def test_inputs_follow_the_seed():
    for w in inputs.WORKLOADS:
        assert inputs.texts(w, 7) == inputs.texts(w, 7)
    assert inputs.texts("cli-cold", 1) != inputs.texts("cli-cold", 2)
    assert "lambda = 0.5\ng = 0.5\n" in inputs.texts("cli-cold", inputs.DEFAULT_SEED)["sweep"]
    ladder = {inputs.ladder_detuning(seed) for seed in range(50)}
    assert ladder <= {round(-1.5 + 0.3 * k, 12) for k in range(inputs.QUANTUM_POINTS)}
    assert len(ladder) > 1


def test_a_digest_that_differs_is_a_failed_check():
    ck = run.Checks()
    want = run.REFERENCE["digests"]["cli-cold/sweep/spectrum.csv"]
    ck.digest("cli-cold/sweep/spectrum.csv", want)
    ck.digest("cli-cold/sweep/spectrum.csv", run.sha("corrupted"))
    assert [ok for _, ok, _ in ck.rows] == [True, False]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(tmp_path, workload):
    proc, result = _bench(_checkout(tmp_path), workload, seed=5)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert '"NIT_SIM_THREADS"' in proc.stdout and "failed_frac = 0 " in proc.stdout


@pytest.mark.parametrize("workload", ["cli-cold", "quantum-pool"])
def test_traced_run_prints_every_per_layer_metric(tmp_path, workload):
    proc, result = _bench(_checkout(tmp_path), workload, trace=1)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert 0.5 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0
    assert (tmp_path / ".perfbench_out" / f"trace-{workload}-seed0.json").is_file()


def test_corrupted_output_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    spectra = root / "src" / "nit_sim" / "spectra.py"
    text = spectra.read_text()
    assert '{ab:.17g}"' in text
    spectra.write_text(text.replace('{ab:.17g}"', '{ab:.16g}"'))
    proc, result = _bench(root, "cli-cold")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "check FAIL digest cli-cold/sweep/spectrum.csv" in proc.stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    proc, result = _bench(_checkout(tmp_path, with_sources=False), "cli-cold")
    assert proc.returncode != 0 and result is None
