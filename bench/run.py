"""Benchmark of the greenwood CLI on three workloads.

    python3 bench/run.py --workload mc_tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run sets the workload up ``SETUP_REPEATS`` times, then repeats passes
over the workload's CLI commands (each command in a fresh interpreter, one
at a time) until ``--seconds`` have gone by, and checks every output file.

With ``--trace 0`` it runs at least ``MIN_PASSES`` passes and reports the
end-to-end metrics from each command's median over the passes:

* ``setup_s``: fresh interpreter through ``import greenwood`` to the
  workload's input files being written (median over the set-ups);
* ``wall_s``: wall time of one pass, cold starts included;
* ``units_per_s``: workload units per second of in-process command time
  (``main`` only, no interpreter start or import). The unit depends on the
  workload: null replications (``mc_tables``), test decisions
  (``power_size``) or signal samples screened, time and tf passes counted
  (``signal_screen``);
* ``peak_rss_mb``: the largest peak resident set of one command.

With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from the traced ones (see ``spans.py`` and ``_layers``).

The second-to-last line of standard output is a report with provenance, the
workload's own name for its throughput (``reps_per_s``, ``decisions_per_s``
or ``msamples_per_s``) and ``error_rate``; the last line is the result.
A failed command or output check makes the run exit 1.

Seeds: develop against any seed; confirm a performance claim on
``HELD_OUT_SEED`` as well, which is kept out of tuning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HELD_OUT_SEED = 1009
SETUP_REPEATS = 3
MIN_PASSES = 3  # medians of fewer untraced passes are too noisy
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a command hangs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

# metric names and units come from the benchmark's own definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

FAMILIES = ("gaussian", "gpd", "student_t", "stable")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(_thread_caps())
    return env


def _thread_caps() -> dict:
    n = str(_nproc())
    return {v: n for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _spawn(args: list, result: Path, deadline: float) -> tuple:
    """Run ``child.py`` with ``args``; return (wall seconds, result dict or None, stderr)."""
    if result.exists():
        result.unlink()
    start = time.perf_counter()
    timeout = max(deadline - start, 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            env=_child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - start
    doc = None
    if proc.returncode == 0 and result.exists():
        with open(result, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    return wall, doc, proc.stderr.strip()[-2000:]


def _run_pass(workload, ops: list, size: str, workdir: Path, traced: bool, deadline: float) -> dict:
    runs = []
    for op in ops:
        for path in op.outputs:  # so a check never reads an earlier pass's file
            if os.path.exists(path):
                os.unlink(path)
        wall, doc, stderr = _spawn(
            ["op", str(workdir / "op.result.json"), "1" if traced else "0", *op.argv],
            workdir / "op.result.json",
            deadline,
        )
        errors, fingerprint = [], None
        if doc is None:
            errors.append(f"command failed: {stderr}")
        else:
            try:
                errors, fingerprint = workload.check(op, size)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        written = sum(os.path.getsize(p) for p in op.outputs if os.path.exists(p))
        runs.append({
            "op": op, "wall": wall, "doc": doc or {}, "errors": errors,
            "fingerprint": fingerprint, "bytes_written": written,
        })
    return {"traced": traced, "runs": runs, "wall": sum(r["wall"] for r in runs)}


def _end_to_end(setups: list, passes: list) -> dict:
    """Each command's median over its runs, summed (or, for memory, maxed) over a pass."""
    by_label = {}
    for p in passes:
        for r in p["runs"]:
            by_label.setdefault(r["op"].label, []).append(r)
    wall = busy = units = rss = 0.0
    for runs in by_label.values():
        per_pass = len(runs) / len(passes)  # a command may run several times a pass
        wall += per_pass * statistics.median(r["wall"] for r in runs)
        rss = max(rss, statistics.median(r["doc"].get("maxrss_kb", 0) for r in runs) / 1024.0)
        if runs[0]["op"].units:
            units += per_pass * runs[0]["op"].units
            busy += per_pass * statistics.median(r["doc"].get("main_s", 0.0) for r in runs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "units_per_s": units / busy if busy else 0.0,
        "peak_rss_mb": rss,
    }


def _layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    spans, counters = {}, {}
    import_s = process_s = instrumentation = 0.0
    for r in p["runs"]:
        trace = r["doc"].get("trace", {})
        for name, (calls, total, self_s) in trace.get("spans", {}).items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in trace.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        import_s += r["doc"].get("import_s", 0.0)
        process_s += r["wall"] - r["doc"].get("lifetime_s", r["wall"])
        instrumentation += trace.get("instrumentation_s", 0.0)

    def pick(prefix, field):
        return sum(v[field] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    def calls(prefix):
        return pick(prefix, 0)

    def self_time(prefix):
        return pick(prefix, 2)

    def count(name):
        return counters.get(name, 0)

    values = sum(count(f"distributions.values.{f}") for f in FAMILIES) + count("testing.baseline_values")
    generators = calls("rng.generator")
    out = {
        "rng.generator_calls": generators,
        "rng.generator_s": self_time("rng.generator"),
        "rng.values_per_generator": values / generators if generators else 0.0,
        "distributions.sample_calls": calls("distributions.sample"),
        "distributions.sample_s": self_time("distributions.sample"),
    }
    for f in FAMILIES:
        drawn = count(f"distributions.values.{f}")
        out[f"distributions.ns_per_value.{f}"] = (
            1e9 * self_time(f"distributions.sample.{f}") / drawn if drawn else 0.0
        )
    out.update({
        "statistic.scalar_calls": calls("statistic.scalar"),
        "statistic.scalar_s": self_time("statistic.scalar"),
        "statistic.batch_rows": count("statistic.batch_rows"),
        "statistic.batch_s": self_time("statistic.batch"),
        "statistic.decision_mismatches": count("statistic.decision_mismatches"),
        "critical.estimate_s": self_time("critical.estimate"),
        "critical.quantile_s": self_time("critical.quantile"),
        "critical.lookup_calls": calls("critical.lookup"),
        "critical.lookup_s": self_time("critical.lookup"),
        "critical.save_s": self_time("critical.save"),
        "critical.load_s": self_time("critical.load"),
        "critical.table_bytes": count("critical.table_bytes"),
        "testing.run_test_calls": calls("testing.run_test"),
        "testing.run_test_s": self_time("testing.run_test"),
        "testing.baseline_threshold_calls": calls("testing.baseline_threshold"),
        "testing.baseline_threshold_s": self_time("testing.baseline_threshold"),
        "testing.baseline_sim_reps": count("testing.baseline_sim_reps"),
        "power.study_s": self_time("power.study"),
        "power.export_s": self_time("power.export"),
        "signal.read_s": self_time("signal.read"),
        "signal.bytes_read": count("signal.bytes_read"),
        "signal.segment_s": self_time("signal.segment"),
        "signal.spectrogram_s": self_time("signal.spectrogram"),
        "signal.spectrogram_null_s": pick("signal.null_estimate", 1),
        "signal.batch_test_s": self_time("signal.batch_test"),
        "signal.units_tested": count("signal.units_tested"),
        "cli.import_s": import_s,
        "cli.process_s": process_s,
        "cli.self_s": self_time("cli.main"),
        "cli.bytes_written": sum(r["bytes_written"] for r in p["runs"]),
        "trace.coverage": (sum(v[2] for v in spans.values()) + import_s + process_s)
        / (p["wall"] - instrumentation),
    })
    return out


def _per_layer(passes: list) -> dict:
    traced = [_layers(p) for p in passes if p["traced"]]
    out = {name: statistics.median_low(t[name] for t in traced) for name in traced[0]}
    out["trace.overhead_s"] = statistics.median(
        p["wall"] for p in passes if p["traced"]
    ) - statistics.median(p["wall"] for p in passes if not p["traced"])
    return out


def _provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None  # a checkout without .git (an exported tree) has only the digest
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": _nproc(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "thread_caps": _thread_caps(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "min"), default="full",
        help="min shrinks every workload for the benchmark's self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "greenwood" / "__init__.py").is_file():
        print(f"error: no greenwood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            wall, doc, stderr = _spawn(
                ["setup", str(workdir / "setup.result.json"), args.workload,
                 str(args.seed), args.size, str(workdir)],
                workdir / "setup.result.json",
                deadline,
            )
            if doc is None:
                print(f"error: {args.workload} set-up failed: {stderr}", file=sys.stderr)
                return 1
            setups.append(wall)

        ops = workload.ops(args.seed, args.size, str(workdir))
        passes = []
        min_passes = 2 if args.trace else MIN_PASSES
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            passes.append(_run_pass(workload, ops, args.size, workdir, traced, deadline))
            if time.perf_counter() - start >= args.seconds and len(passes) >= min_passes:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the same seed must give the same outputs in every pass
    failures, first = [], {}
    for p in passes:
        for r in p["runs"]:
            fingerprint = r["fingerprint"]
            if fingerprint is not None and first.setdefault(r["op"].label, fingerprint) != fingerprint:
                r["errors"].append("output differs from an earlier pass with this seed")
            failures += [f"{r['op'].label}: {e}" for e in r["errors"]]
    attempted = sum(len(p["runs"]) for p in passes)
    failed = sum(1 for p in passes for r in p["runs"] if r["errors"])

    values, units = (
        (_per_layer(passes), LAYER_UNITS) if args.trace else (_end_to_end(setups, passes), END_TO_END_UNITS)
    )
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json names {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "passes": len(passes),
        "setups": setups,
        "provenance": _provenance(args.seed),
        "error_rate": failed / attempted,
        "failures": failures[:20],
    }
    untraced = [p for p in passes if not p["traced"]]
    if not args.trace:
        report[workload.unit_metric] = metrics["units_per_s"]["value"] * workload.unit_scale
    report["pass_walls"] = [p["wall"] for p in untraced]
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
