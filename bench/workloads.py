"""The three benchmark workloads: their input files, CLI commands and output checks.

A workload pass is a list of ``greenwood`` CLI commands; each runs in its own
fresh interpreter, so every pass pays the cold import and cold in-process
caches (the baseline-threshold cache, the stable-cdf ``lru_cache``) that a
user of the CLI pays. Only ``setup`` imports greenwood in-process; the checks
read the written files with the standard library alone, so they judge the
program's output without trusting its parsers.

The checks tolerate Monte Carlo noise: they use ranges, orderings and
binomial bands at five standard deviations, never pinned bytes, so a change
of the RNG layout that moves values within noise still passes.

Why these workloads:

* ``mc_tables`` is replication-bound and write-side: many small null
  samples (per-replication generator construction dominates at small n,
  sampler kernels and the batch statistic at n = 1000). It never touches
  the scalar statistic, ``run_test`` or table lookup.
* ``power_size`` is the read-side decide loop: scalar ``S_n``, table
  lookup, ``run_test`` dispatch per replication, plus the Jarque-Bera
  baseline's cold threshold simulation.
* ``signal_screen`` is the long-signal path: read, segment, spectrogram and
  per-unit tests on large units. It builds no per-replication generators
  except in the time-frequency null, so an RNG change predicts no change
  in its screening throughput.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

C = 0.05
SIGMAS = 5.0  # width of every binomial band, in standard deviations

# Reference quantiles of tests/test_acceptance.py at M = 100000, as
# (n, c, value); the tolerance there is max(0.002, 2% of value), widened
# here by sqrt(100000 / M) for a table built from M replications.
REFERENCE_M = 100000
REFERENCES = {
    ("gaussian", "upper"): (
        (10, 0.025, 0.2125), (10, 0.005, 0.2468), (50, 0.025, 0.0365),
        (50, 0.005, 0.0387), (100, 0.025, 0.0175), (100, 0.005, 0.0182),
        (200, 0.025, 0.0085), (200, 0.005, 0.0087), (500, 0.025, 0.0033),
        (500, 0.005, 0.0033), (1000, 0.025, 0.0016), (1000, 0.005, 0.0016),
    ),
    ("gpd", "lower"): (
        (10, 0.05, 0.1456), (10, 0.01, 0.1300), (100, 0.05, 0.0247),
        (100, 0.01, 0.0220), (200, 0.05, 0.0143), (200, 0.01, 0.0127),
        (500, 0.05, 0.0068), (500, 0.01, 0.0061), (1000, 0.05, 0.0039),
        (1000, 0.01, 0.0035),
    ),
    ("student_t", "lower"): (
        (10, 0.05, 0.1312), (10, 0.01, 0.1205), (50, 0.05, 0.0345),
        (50, 0.01, 0.0316), (100, 0.05, 0.0192), (100, 0.01, 0.0177),
        (200, 0.05, 0.0106), (200, 0.01, 0.0098), (500, 0.05, 0.0049),
        (500, 0.01, 0.0045), (1000, 0.05, 0.0027), (1000, 0.01, 0.0025),
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass."""

    label: str
    argv: list
    units: int  # workload units it completes (replications, decisions, samples)
    outputs: list  # files it writes


def _band(rate: float, c: float, *counts: int) -> bool:
    """True when ``rate`` lies within SIGMAS binomial deviations of ``c``."""
    sd = math.sqrt(c * (1.0 - c) * sum(1.0 / m for m in counts))
    return abs(rate - c) <= SIGMAS * sd


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_decisions(units: list, errors: list, n: int) -> None:
    """Per-unit sanity shared by both analyze reports (mg2: reject iff S_n >= q)."""
    for u in units:
        s, (q,) = u["statistic"], u["thresholds"]
        if u["n"] != n or not (1.0 / n <= s <= 1.0):
            errors.append(f"unit {u['unit']}: n={u['n']} statistic={s} out of range")
            return
        if u["reject"] != (s >= q):
            errors.append(f"unit {u['unit']}: reject={u['reject']} but S_n={s}, q={q}")
            return


# --------------------------------------------------------------------------


class McTables:
    """``greenwood quantiles`` for the four acceptance families."""

    unit_metric = "reps_per_s"
    unit_scale = 1.0
    sizes = {
        "full": {"ns": (10, 50, 100, 200, 500, 1000), "reps": 2000},
        "min": {"ns": (10, 50), "reps": 1000},
    }
    # (tag, family flags, side, levels); the Gaussian call also carries the
    # halved levels the acceptance table holds, so its references apply
    families = (
        ("gaussian", ["--family", "gaussian"], "upper", (0.05, 0.01, 0.025, 0.005)),
        ("gpd", ["--family", "gpd", "--gamma", "0.5"], "lower", (0.05, 0.01)),
        ("student_t", ["--family", "student_t", "--nu", "2"], "lower", (0.05, 0.01)),
        ("stable", ["--family", "stable", "--alpha", "1.5"], "both", (0.05, 0.01)),
    )

    def setup(self, seed: int, size: str, workdir: str) -> None:
        """No input files: set-up is the cold start and ``import greenwood``."""

    def ops(self, seed: int, size: str, workdir: str) -> list:
        p = self.sizes[size]
        out = []
        for k, (tag, flags, side, cs) in enumerate(self.families):
            path = os.path.join(workdir, f"{tag}.json")
            argv = [
                "quantiles", *flags,
                "--n", ",".join(map(str, p["ns"])),
                "--c", ",".join(map(str, cs)),
                "--side", side,
                "--reps", str(p["reps"]),
                "--seed", str(seed * 10 + k),
                "--out", path,
            ]
            out.append(Op(tag, argv, p["reps"] * len(p["ns"]), [path]))
        return out

    def check(self, op: Op, size: str):
        p = self.sizes[size]
        tag, _, side, cs = next(f for f in self.families if f[0] == op.label)
        doc = _load_json(op.outputs[0])
        errors = []
        sides = ("lower", "upper") if side == "both" else (side,)
        values = {}
        for e in doc["entries"]:
            n, c, s, v = e["n"], e["c"], e["side"], e["value"]
            if e["family"] != tag:
                errors.append(f"entry family {e['family']} != {tag}")
            if not (1.0 / n <= v <= 1.0):
                errors.append(f"n={n} c={c} {s}: value {v} outside [1/n, 1]")
            values[(n, c, s)] = v
        expected = {(n, c, s) for n in p["ns"] for c in cs for s in sides}
        if set(values) != expected:
            errors.append(f"entries {sorted(values)} != requested {sorted(expected)}")
            return errors, None
        if doc["metadata"].get("M") != p["reps"]:
            errors.append(f"metadata M={doc['metadata'].get('M')} != {p['reps']}")
        for n in p["ns"]:
            for c in cs:
                if side == "both" and values[(n, c, "lower")] > values[(n, c, "upper")]:
                    errors.append(f"n={n} c={c}: lower quantile above upper")
            # one sample per n, so a smaller level moves the quantile outward
            for s in sides:
                ordered = [values[(n, c, s)] for c in sorted(cs)]
                if s == "upper":
                    ordered.reverse()
                if ordered != sorted(ordered):
                    errors.append(f"n={n} {s}: quantiles not monotone in c")
        widen = math.sqrt(REFERENCE_M / p["reps"])
        for s in sides:
            for n, c, ref in REFERENCES.get((tag, s), ()):
                if (n, c, s) in values:
                    tol = max(0.002, 0.02 * ref) * widen
                    if abs(values[(n, c, s)] - ref) > tol:
                        errors.append(
                            f"n={n} c={c} {s}: {values[(n, c, s)]} vs reference {ref} (tol {tol:.4g})"
                        )
        return errors, sorted(values.items())


class PowerSize:
    """``greenwood power`` for mg2 and Jarque-Bera over a stable alpha grid."""

    unit_metric = "decisions_per_s"
    unit_scale = 1.0
    grid = (1.0, 1.25, 1.5, 1.75, 2.0)  # alpha = 2 is Gaussian: the size point
    sizes = {
        "full": {"ns": (10, 50, 100), "reps": 1000, "table_reps": 10000},
        "min": {"ns": (10,), "reps": 100, "table_reps": 1000},
    }
    jb_reps = 100000  # replications behind the Jarque-Bera threshold

    def setup(self, seed: int, size: str, workdir: str) -> None:
        """Build the mg2 (Gaussian upper-tail) table the study reads."""
        from greenwood.cli import main

        p = self.sizes[size]
        rc = main([
            "quantiles", "--family", "gaussian",
            "--n", ",".join(map(str, p["ns"])),
            "--c", str(C), "--side", "upper",
            "--reps", str(p["table_reps"]),
            "--seed", str(seed * 10),
            "--out", os.path.join(workdir, "mg2_table.json"),
        ])
        if rc != 0:
            raise RuntimeError(f"mg2 table build exited {rc}")

    def ops(self, seed: int, size: str, workdir: str) -> list:
        p = self.sizes[size]
        units = len(self.grid) * len(p["ns"]) * p["reps"]
        out = []
        for k, (kind, extra) in enumerate((
            ("mg2", ["--table", os.path.join(workdir, "mg2_table.json")]),
            ("jarque_bera", []),
        )):
            path = os.path.join(workdir, f"power_{kind}.csv")
            argv = [
                "power", "--kind", kind, *extra,
                "--data-family", "stable",
                "--grid", ",".join(map(str, self.grid)),
                "--n", ",".join(map(str, p["ns"])),
                "--c", str(C),
                "--reps", str(p["reps"]),
                "--seed", str(seed * 10 + 1 + k),
                "--out", path,
            ]
            out.append(Op(kind, argv, units, [path, path + ".json"]))
        return out

    def check(self, op: Op, size: str):
        p = self.sizes[size]
        reps = p["reps"]
        errors = []
        with open(op.outputs[0], "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if tuple(rows[0]) != ("family", "param", "n", "replications", "rejection_rate"):
            return [f"unexpected CSV header {rows[0]}"], None
        rates = {}
        for family, param, n, r, rate in rows[1:]:
            if family != "stable" or int(r) != reps:
                errors.append(f"row {family},{param},{n},{r}: wrong family or replications")
            rates[(float(param), int(n))] = float(rate)
        if set(rates) != {(a, n) for a in self.grid for n in p["ns"]}:
            return errors + [f"grid points {sorted(rates)} do not match the request"], None
        if _load_json(op.outputs[1]).get("test_kind") != op.label:
            errors.append("sidecar test_kind does not match")
        threshold_reps = p["table_reps"] if op.label == "mg2" else self.jb_reps
        for n in p["ns"]:
            curve = [rates[(a, n)] for a in self.grid]
            if any(not (0.0 <= r <= 1.0) for r in curve):
                errors.append(f"n={n}: rate outside [0, 1]")
            # heavier tails (smaller alpha) must not reject less, up to noise
            for heavy, light in zip(curve, curve[1:]):
                mean = max((heavy + light) / 2.0, C)
                tol = SIGMAS * math.sqrt(2.0 * mean * (1.0 - mean) / reps)
                if heavy < light - tol:
                    errors.append(f"n={n}: rates {curve} fall as tails get heavier")
            if curve[0] < curve[-1] + 0.2:
                errors.append(f"n={n}: alpha=1 rate {curve[0]} not clearly above size {curve[-1]}")
            if not _band(curve[-1], C, reps, threshold_reps):
                errors.append(f"n={n}: size {curve[-1]} outside the binomial band around {C}")
        return errors, sorted(rates.items())


class SignalScreen:
    """``greenwood analyze`` in time and time-frequency mode on a long signal."""

    unit_metric = "msamples_per_s"
    unit_scale = 1e-6
    # each analyze call does ~0.2 s of work behind a ~1 s cold start; running
    # it several times a pass gives its median enough samples to be steady
    analyze_repeats = 3
    sizes = {
        "full": {"length": 10**6, "segment": 1000, "window": 2000, "signals": 50, "table_reps": 5000},
        "min": {"length": 10**5, "segment": 1000, "window": 2000, "signals": 2, "table_reps": 1000},
    }

    def setup(self, seed: int, size: str, workdir: str) -> None:
        """Write the half-Gaussian, half-Stable(1.7) signal and the raw n = segment table."""
        import numpy as np

        from greenwood import Gaussian, RngStream, Signal, Stable, sample, write_signal
        from greenwood.cli import main

        p = self.sizes[size]
        half = p["length"] // 2
        rng = RngStream(seed * 10 + 3)
        x = np.concatenate([
            sample(Gaussian(0.0, 1.0), half, rng.substream(0)),
            sample(Stable(1.7, 1.0), p["length"] - half, rng.substream(1)),
        ])
        write_signal(os.path.join(workdir, "signal.bin"), Signal(x))
        rc = main([
            "quantiles", "--family", "gaussian",
            "--n", str(p["segment"]), "--c", str(C), "--side", "upper",
            "--reps", str(p["table_reps"]),
            "--seed", str(seed * 10 + 4),
            "--out", os.path.join(workdir, "raw_table.json"),
        ])
        if rc != 0:
            raise RuntimeError(f"raw table build exited {rc}")

    def ops(self, seed: int, size: str, workdir: str) -> list:
        p = self.sizes[size]
        signal = os.path.join(workdir, "signal.bin")
        tf_table = os.path.join(workdir, "tf_table.json")
        time_report = os.path.join(workdir, "time_report.json")
        tf_report = os.path.join(workdir, "tf_report.json")
        null = Op("tf_null", [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--window-length", str(p["window"]),
                "--signal-length", str(p["length"]),
                "--signals", str(p["signals"]),
                "--c", str(C), "--side", "upper",
                "--seed", str(seed * 10 + 5),
                "--out", tf_table,
            ], 0, [tf_table])
        time_mode = Op("time", [
                "analyze", "--input", signal, "--mode", "time",
                "--segment-length", str(p["segment"]),
                "--table", os.path.join(workdir, "raw_table.json"),
                "--c", str(C), "--out", time_report,
            ], p["length"], [time_report])
        tf_mode = Op("tf", [
                "analyze", "--input", signal, "--mode", "tf",
                "--window-length", str(p["window"]),
                "--table", tf_table, "--c", str(C), "--out", tf_report,
            ], p["length"], [tf_report])
        return [null] + [time_mode, tf_mode] * self.analyze_repeats

    def check(self, op: Op, size: str):
        p = self.sizes[size]
        frames = p["length"] // p["window"]
        doc = _load_json(op.outputs[0])
        errors = []
        if op.label == "tf_null":
            (entry,) = doc["entries"]
            v = entry["value"]
            if entry["n"] != frames or entry["params"].get("domain") != "spectrogram":
                errors.append(f"tf entry n={entry['n']} params={entry['params']}")
            if not (1.0 / frames <= v <= 1.0):
                errors.append(f"tf threshold {v} outside [1/n, 1]")
            return errors, v
        units = doc["units"]
        if op.label == "time":
            count = p["length"] // p["segment"]
            if doc["domain"] != "time" or len(units) != count:
                return [f"time report: domain {doc['domain']}, {len(units)} units != {count}"], None
            _check_decisions(units, errors, p["segment"])
            half = count // 2
            gauss = sum(u["reject"] for u in units[:half]) / half
            heavy = sum(u["reject"] for u in units[half:]) / (count - half)
            if not _band(gauss, C, half, p["table_reps"]):
                errors.append(f"Gaussian half rejects {gauss}, outside the band around {C}")
            if heavy < 0.9:
                errors.append(f"Stable(1.7) half rejects only {heavy}")
        else:
            rows = p["window"] // 2 + 1
            if doc["domain"] != "time-frequency" or len(units) != rows:
                return [f"tf report: domain {doc['domain']}, {len(units)} units != {rows} rows"], None
            _check_decisions(units, errors, frames)
        pct = 100.0 * sum(u["reject"] for u in units) / len(units)
        if abs(pct - doc["rejection_percentage"]) > 1e-9:
            errors.append(f"rejection_percentage {doc['rejection_percentage']} != {pct}")
        return errors, [(u["unit"], u["statistic"], u["reject"]) for u in units]


WORKLOADS = {
    "mc_tables": McTables(),
    "power_size": PowerSize(),
    "signal_screen": SignalScreen(),
}
