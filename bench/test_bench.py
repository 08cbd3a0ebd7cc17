"""Self-test of the benchmark: each workload at minimum size, in both modes.

    python3 -m pytest bench/test_bench.py

It runs outside the repository's tier-1 suite (``testpaths`` is ``tests``)
because each case starts a dozen interpreters.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED_THROUGHPUT = {
    "mc_tables": "reps_per_s",
    "power_size": "decisions_per_s",
    "signal_screen": "msamples_per_s",
}

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, Op  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "min"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    report, result = json.loads(report), json.loads(result)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in got.items()}
    assert all(isinstance(v["value"], (int, float)) for v in got.values())

    assert report["error_rate"] == 0.0
    assert {"nproc", "python", "numpy", "scipy", "git_commit", "seed",
            "held_out_seed", "thread_caps"} <= set(report["provenance"])
    if trace:
        assert got["rng.generator_calls"]["value"] > 0
        assert got["trace.coverage"]["value"] > 0.5
    else:
        assert report[NAMED_THROUGHPUT[workload]] > 0
        assert all(v["value"] > 0 for v in got.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, "mc_tables", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_reject_broken_outputs(tmp_path):
    tables = WORKLOADS["mc_tables"]
    path = tmp_path / "gpd.json"
    entries = [
        {"family": "gpd", "params": {}, "n": n, "c": c, "side": "lower", "value": 1.5}
        for n in (10, 50) for c in (0.05, 0.01)
    ]
    path.write_text(json.dumps({"metadata": {"M": 1000}, "entries": entries}))
    errors, _ = tables.check(Op("gpd", [], 0, [str(path)]), "min")
    assert any("outside [1/n, 1]" in e for e in errors)

    power = WORKLOADS["power_size"]
    path = tmp_path / "power.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "param", "n", "replications", "rejection_rate"])
        for alpha in power.grid:
            writer.writerow(["stable", alpha, 10, 100, 0.5])  # flat: no power, bad size
    (tmp_path / "power.csv.json").write_text(json.dumps({"test_kind": "mg2"}))
    errors, _ = power.check(Op("mg2", [], 0, [str(path), str(path) + ".json"]), "min")
    assert any("size" in e for e in errors)
    assert any("not clearly above" in e for e in errors)
