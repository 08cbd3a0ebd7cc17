"""End-to-end tests of the command-line interface (in-process via main)."""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenwood
from greenwood import cli, testing
from greenwood.cli import main
from greenwood.critical import QuantileTable, TableRequest, build_quantile_table
from greenwood.distributions import (
    GPD,
    Gaussian,
    Stable,
    StudentT,
    family_tag,
    params_dict,
)
from greenwood.power import (
    PowerStudyConfig,
    export_curve,
    import_curve,
    run_power_study,
    size_check,
)
from greenwood.rng import RngStream
from greenwood.signal import (
    Signal,
    build_spectrogram_quantile_table,
    kaiser_window,
    read_signal,
    spectrogram,
    write_signal,
)
from greenwood.testing import BASELINE_KINDS, MG_KINDS, TestSpec


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    requests = [
        TableRequest(Gaussian(0.0, 1.0), n, 0.05, side)
        for n in (10, 50, 100)
        for side in ("lower", "upper")
    ]
    table = build_quantile_table(requests, 1000, RngStream(66))
    table.save(d / "raw_table.json")

    heavy = RngStream(67).generator().standard_cauchy(50)
    np.savetxt(d / "heavy.csv", heavy)
    write_signal(d / "signal.bin", Signal(RngStream(68).generator().standard_cauchy(300)))
    tf = build_spectrogram_quantile_table(
        Gaussian(0.0, 1.0), [(0.05, "upper")], 300, 32, 5.0, 0, 2, RngStream(70),
    )
    tf.save(d / "tf_table.json")
    return d


def _exit_code(argv) -> int:
    """The exit status of ``greenwood argv``: main's return value or its SystemExit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _env_with_package() -> dict:
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    src = str(Path(greenwood.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# a replication or signal count of more blocks than a list can index
HUGE = "100000000000000000000000"


@pytest.fixture
def nan_jarque_bera(monkeypatch):
    """Make the Jarque-Bera statistic NaN on samples whose first value is 0.125.

    No sample gives a baseline a NaN statistic, since far samples are scaled
    into range; this stands in for one, so the refusal to write NaN is tested.
    """
    real = testing._jb_values

    def kernel(x, overwrite_input=False):
        marked = x[:, 0] == 0.125
        out = real(x, overwrite_input)
        out[marked] = np.nan
        return out

    entry = replace(testing._KINDS["jarque_bera"], exact=kernel, fast=kernel)
    monkeypatch.setitem(testing._KINDS, "jarque_bera", entry)


# 10-value samples whose deviations' powers, or whose sum, overflow or underflow
FAR_SAMPLES = {
    "1e200": np.linspace(1e200, 1e201, 10),
    "1e-200": np.linspace(1e-200, 1e-199, 10),
    "sum-overflows": np.linspace(-2.0, 17.0, 10) * 1e307,
}


def _into_range(x):
    """``x`` times the power of two that brings its max ``|x|`` into ``[2**9, 2**10)``."""
    return np.ldexp(x, 10 - np.frexp(np.abs(x).max())[1])


def _table_doc(**changes) -> dict:
    """A table document with one entry, well formed but for ``changes``."""
    entry = {
        "family": "gaussian", "params": {"mu": 0.0, "sigma2": 1.0}, "n": 50,
        "c": 0.05, "side": "upper", "value": 0.1,
    }
    return {"schema_version": 1, "entries": [{**entry, **changes}]}


class TestQuantilesCommand:
    def test_builds_raw_table(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(
            [
                "quantiles", "--family", "gaussian", "--n", "10", "--c", "0.05",
                "--side", "upper", "--reps", "1000", "--seed", "7", "--out", str(out),
            ]
        )
        assert rc == 0
        assert "wrote 1 entries" in capsys.readouterr().out
        table = QuantileTable.load(out)
        assert table.value_for(Gaussian(0.0, 1.0), 10, 0.05, "upper") > 0.1

    @pytest.mark.parametrize(
        "args",
        [
            # one row of 1e11 float64 values is 745 GiB: the allocation fails at once
            ["quantiles", "--family", "gaussian", "--n", "100000000000", "--reps", "1000"],
            # more blocks than a list can index
            ["quantiles", "--family", "gaussian", "--n", "10", "--reps", HUGE],
            [
                "power", "--kind", "jarque_bera", "--data-family", "stable", "--grid", "1.5",
                "--n", "10", "--reps", HUGE,
            ],
            [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--signal-length", "300", "--window-length", "32", "--signals", HUGE,
            ],
        ],
        ids=["n", "reps", "power_reps", "signals"],
    )
    def test_unallocatable_sample_size_is_an_error_not_a_traceback(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        rc = main([*args, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_replication_floor(self, tmp_path, capsys):
        rc = main(
            [
                "quantiles", "--family", "gaussian", "--n", "10", "--reps", "999",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "at least 1000" in capsys.readouterr().err

    def test_builds_spectrogram_table(self, tmp_path, capsys):
        out = tmp_path / "tf.json"
        rc = main(
            [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--window-length", "32", "--signal-length", "200", "--signals", "3",
                "--c", "0.05", "--side", "upper", "--seed", "9", "--out", str(out),
            ]
        )
        assert rc == 0
        rec = QuantileTable.load(out).records[0]
        assert rec["params"]["domain"] == "spectrogram"
        assert rec["n"] == 6  # (200 - 32) // 32 + 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "10,50", "--reps", "1000"],
            ["--domain", "spectrogram", "--window-length", "32", "--signal-length", "200",
             "--signals", "3"],
        ],
        ids=["raw", "spectrogram"],
    )
    def test_rebuild_writes_the_same_bytes(self, tmp_path, args):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            argv = ["quantiles", "--family", "gaussian", *args, "--seed", "3", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_the_order_of_the_sizes_changes_no_entry(self, tmp_path):
        # every n of a null is read from rows drawn at the largest n
        entries = []
        for ns in ("1000,10,50", "10,50,1000"):
            out = tmp_path / f"{ns}.json"
            argv = ["quantiles", "--family", "gaussian", "--n", ns, "--side", "both",
                    "--reps", "1000", "--seed", "3", "--out", str(out)]
            assert main(argv) == 0
            entries.append({
                (e["n"], e["c"], e["side"]): e["value"]
                for e in json.loads(out.read_text())["entries"]
            })
        assert len(entries[0]) == 6
        assert entries[0] == entries[1]

    def test_spectrogram_domain_needs_geometry(self, tmp_path, capsys):
        rc = main(
            [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--out", str(tmp_path / "tf.json"),
            ]
        )
        assert rc == 2
        assert "--window-length" in capsys.readouterr().err


class TestTestCommand:
    def test_outcome_json_on_stdout_and_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "outcome.json"
        rc = main(
            [
                "test", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--input", str(workdir / "heavy.csv"), "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "mg2"
        assert doc["n"] == 50
        assert isinstance(doc["reject"], bool)

    def test_baseline_needs_no_table(self, workdir, capsys):
        rc = main(
            ["test", "--kind", "jarque_bera", "--input", str(workdir / "heavy.csv")]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "jarque_bera"

    def test_mg_kind_requires_table(self, workdir, capsys):
        rc = main(["test", "--kind", "mg2", "--input", str(workdir / "heavy.csv")])
        assert rc == 2
        assert "--table is required" in capsys.readouterr().err

    def test_two_sided_requires_family(self, workdir, capsys):
        rc = main(
            [
                "test", "--kind", "mg_two_sided",
                "--table", str(workdir / "raw_table.json"),
                "--input", str(workdir / "heavy.csv"),
            ]
        )
        assert rc == 2
        assert "--family is required" in capsys.readouterr().err

    def test_a_negative_zero_parameter_reads_the_zero_entry(self, workdir, tmp_path, capsys):
        table = tmp_path / "t.json"
        argv = ["quantiles", "--family", "gaussian", "--n", "50", "--reps", "1000", "--side",
                "both", "--c", "0.025", "--out", str(table)]
        assert main(argv) == 0
        capsys.readouterr()
        docs = []
        for mu in ("-0", "0"):
            rc = main(
                ["test", "--kind", "mg_two_sided", "--family", "gaussian", "--mu", mu,
                 "--table", str(table), "--input", str(workdir / "heavy.csv")]
            )
            assert rc == 0
            docs.append(capsys.readouterr().out)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize(
        "sample, expected",
        [([1e200, 1.0, 2.0], 1.0), ([1e308, 1e308, 1.0], 0.5), ([1e-200, 1e-200, 3e-200], 0.44)],
    )
    def test_samples_at_the_ends_of_the_float_range(self, tmp_path, capsys, sample, expected):
        request = TableRequest(Gaussian(0.0, 1.0), 3, 0.05, "upper")
        build_quantile_table([request], 1000, RngStream(69)).save(tmp_path / "t.json")
        np.savetxt(tmp_path / "x.csv", sample)
        rc = main(
            ["test", "--kind", "mg2", "--table", str(tmp_path / "t.json"),
             "--input", str(tmp_path / "x.csv")]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["statistic"] == pytest.approx(expected, rel=1e-14)

    def test_uncovered_sample_size(self, workdir, tmp_path, capsys):
        short = tmp_path / "short.csv"
        np.savetxt(short, np.arange(1.0, 8.0))
        rc = main(
            [
                "test", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--input", str(short),
            ]
        )
        assert rc == 2
        assert "no table entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"schema_version": 1, "entries": [1]},
            _table_doc(params=[]),
            _table_doc(value=float("nan")),
            _table_doc(value=float("inf")),
            _table_doc(n=50.7),
            _table_doc(n=1),
            _table_doc(c=0.7),
            _table_doc(c=0.0),
            _table_doc(side="middle"),
        ],
    )
    def test_malformed_table_json(self, workdir, tmp_path, capsys, doc):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))  # a float nan is written as NaN, which json reads
        rc = main(
            [
                "test", "--kind", "mg2", "--table", str(path),
                "--input", str(workdir / "heavy.csv"),
            ]
        )
        assert rc == 1
        assert "cannot parse quantile table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, family, params, value",
        [
            ("mg4_student_t", "student_t", {"nu": 2}, 0.13112830736743195),
            ("mg3_gpd", "gpd", {"delta": 1.0, "gamma": 0.5}, 0.143770923946257),
        ],
    )
    def test_a_layout_3_table_still_decides(self, tmp_path, capsys, kind, family, params, value):
        # written by `greenwood quantiles --n 10 --c 0.05 --side lower --reps 2000
        # --seed 5` under RNG layout 3, which drew these nulls from chi-squares
        # and from the uniforms of a log1p inversion
        entry = {"c": 0.05, "family": family, "n": 10, "params": params,
                 "side": "lower", "value": value}
        metadata = {"M": 2000, "estimator": "type7_linear", "master_seed": 5,
                    "numpy_version": "2.4.6", "rng_layout": 3, "stream_id": 0}
        path = tmp_path / "layout3.json"
        path.write_text(json.dumps({"entries": [entry], "metadata": metadata, "schema_version": 1}))
        table = QuantileTable.load(path)
        assert table.metadata["rng_layout"] == 3
        # a constant sample's S_n is 1/n = 0.1, below the threshold; one
        # dominant value gives S_n near 1, above it
        for sample, reject in ((np.full(10, 2.0), True), (np.r_[100.0, np.ones(9)], False)):
            np.savetxt(tmp_path / "x.csv", sample)
            argv = ["test", "--kind", kind, "--table", str(path), "--input", str(tmp_path / "x.csv")]
            assert main(argv) == 0
            outcome = json.loads(capsys.readouterr().out)
            assert outcome["thresholds"] == [value]
            assert outcome["reject"] is reject

    def test_unreadable_input(self, workdir, capsys):
        rc = main(
            [
                "test", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--input", str(workdir / "missing.csv"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "command, name, message",
        [
            ("test", "empty.csv", "input must be a single-column numeric CSV"),
            ("test", "signal.bin", "input must be a single-column numeric CSV; it is not text"),
            ("analyze", "empty.csv", "input must be a single-column numeric CSV"),
        ],
    )
    def test_unusable_csv_is_one_error_line(self, workdir, tmp_path, command, name, message):
        (tmp_path / "empty.csv").write_text("")
        path = tmp_path / name if name == "empty.csv" else workdir / name
        argv = [command, "--kind", "jarque_bera", "--input", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "greenwood.cli", *argv],
            env=_env_with_package(), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: {message}\n"

    def test_nan_statistic_is_an_error_not_invalid_json(self, tmp_path, capsys, nan_jarque_bera):
        data = tmp_path / "marked.csv"
        np.savetxt(data, np.r_[0.125, np.arange(9.0)])
        kept = tmp_path / "kept.json"
        kept.write_text('{"previous": true}\n')
        for out in (None, kept, tmp_path / "new.json"):
            argv = ["test", "--kind", "jarque_bera", "--input", str(data)]
            argv += ["--out", str(out)] if out else []
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: statistic is nan, which JSON cannot hold\n"
        assert kept.read_text() == '{"previous": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "marked.csv"]

    @pytest.mark.parametrize("name", FAR_SAMPLES)
    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baselines_at_any_magnitude(self, tmp_path, capsys, kind, name):
        outcomes = []
        for x in (FAR_SAMPLES[name], _into_range(FAR_SAMPLES[name])):
            np.savetxt(tmp_path / "x.csv", x)
            assert main(["test", "--kind", kind, "--input", str(tmp_path / "x.csv")]) == 0
            outcomes.append(json.loads(capsys.readouterr().out))
        assert outcomes[0] == outcomes[1]  # floats round-trip through JSON exactly
        if kind == "ks_normality" and name == "1e200":
            assert outcomes[0]["statistic"] == pytest.approx(0.0955, abs=1e-4)
            assert not outcomes[0]["reject"]


class TestPowerCommand:
    def test_study_csv_and_sidecar(self, workdir, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        args = [
            "power", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
            "--data-family", "stable", "--grid", "1.2,2.0", "--n", "10",
            "--reps", "100", "--seed", "1", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,param,n,replications,rejection_rate"
        assert len(lines) == 3
        assert (tmp_path / "curve.csv.json").exists()

        again = tmp_path / "curve2.csv"
        assert main(args[:-1] + [str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_colon_grid_expansion(self, workdir, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            [
                "power", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--data-family", "stable", "--grid", "1.0:0.5:2.0", "--n", "10",
                "--reps", "100", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        params = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        assert params == ["1.0", "1.5", "2.0"]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("2.0,1.2", "strictly increasing"),
            ("1:1:inf", "--grid bounds must be finite"),
            ("nan:1:2", "--grid bounds must be finite"),
            ("0:1e-12:1", "at most 10000 points"),
        ],
        ids=["decreasing", "infinite_stop", "nan_start", "too_many_points"],
    )
    def test_decreasing_grid_is_usage_error(self, workdir, tmp_path, capsys, grid, message):
        rc = main(
            [
                "power", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--data-family", "stable", "--grid", grid, "--n", "10",
                "--reps", "100", "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert rc == 2
        assert message in capsys.readouterr().err

    # column of the power grid that holds each family's null parameter
    GRID_PARAM = {"gaussian": "sigma2", "stable": "alpha", "student_t": "nu", "gpd": "gamma"}

    @pytest.mark.parametrize("kind", MG_KINDS + BASELINE_KINDS)
    def test_size_check_draws_from_the_recorded_null(self, kind, tmp_path):
        two_sided_null = Stable(1.5, 1.0) if kind == "mg_two_sided" else None
        null = TestSpec(kind, 0.05, QuantileTable({}, []), null_spec=two_sided_null).null_spec
        table = None
        args = ["--kind", kind]
        if kind == "mg_two_sided":
            args += ["--family", "stable", "--alpha", "1.5"]
        if kind in MG_KINDS:
            requests = [
                TableRequest(null, 10, c, side)
                for c in (0.05, 0.025)
                for side in ("lower", "upper")
            ]
            table = build_quantile_table(requests, 1000, RngStream(70))
            table.save(tmp_path / "t.json")
            args += ["--table", str(tmp_path / "t.json")]
        family = family_tag(null)
        out = tmp_path / "curve.csv"
        rc = main(
            [
                "power", *args, "--data-family", family,
                "--grid", repr(params_dict(null)[self.GRID_PARAM[family]]),
                "--n", "10", "--reps", "200", "--seed", "71", "--out", str(out),
            ]
        )
        assert rc == 0
        recorded = json.loads((tmp_path / "curve.csv.json").read_text())["null"]
        if kind in BASELINE_KINDS:
            assert recorded is None
        else:
            assert recorded == {"family": family_tag(null), "params": params_dict(null)}
        # grid point (0, 0) of the study draws its block b of replications
        # from substream b of the master seed, exactly as size_check does
        spec = TestSpec(kind, 0.05, table, null_spec=null)
        rate = size_check(spec, 10, 200, RngStream(71))
        assert import_curve(out).points[0].rejection_rate == rate

    def test_library_study_writes_the_command_line_sidecar(self, workdir, tmp_path):
        # a TestSpec without a null_spec records the null the kind is calibrated under
        table = workdir / "raw_table.json"
        rc = main(
            [
                "power", "--kind", "mg2", "--table", str(table), "--data-family", "stable",
                "--grid", "1.5,2.0", "--n", "10,50", "--reps", "100", "--seed", "72",
                "--out", str(tmp_path / "cli.csv"),
            ]
        )
        assert rc == 0
        spec = TestSpec("mg2", 0.05, QuantileTable.load(table))
        config = PowerStudyConfig(spec, "stable", (1.5, 2.0), (10, 50), 100, 72)
        export_curve(run_power_study(config), tmp_path / "lib.csv")
        for name in ("lib.csv", "lib.csv.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / f"cli{name[3:]}").read_bytes()
        recorded = json.loads((tmp_path / "lib.csv.json").read_text())["null"]
        assert recorded == {"family": "gaussian", "params": params_dict(Gaussian(0.0, 1.0))}


class TestAnalyzeCommand:
    def test_time_mode_report(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "analyze", "--input", str(workdir / "signal.bin"),
                "--table", str(workdir / "raw_table.json"),
                "--segment-length", "100", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["domain"] == "time"
        assert len(doc["units"]) == 3
        assert "3 units" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", [["--segment-length", "100"], ["--mode", "tf", "--window-length", "32"]],
        ids=["time", "tf"],
    )
    def test_stdout_and_out_file_hold_the_same_bytes(self, workdir, tmp_path, capsys, mode):
        table = "tf_table.json" if "tf" in mode else "raw_table.json"
        argv = ["analyze", "--input", str(workdir / "signal.bin"), "--table", str(workdir / table)]
        out = tmp_path / "report.json"
        assert main(argv + mode + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv + mode) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == out.read_bytes()
        assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"

    def test_nan_statistic_is_an_error_and_nothing_is_written(
        self, tmp_path, capsys, nan_jarque_bera
    ):
        signal = tmp_path / "marked.bin"
        write_signal(signal, Signal(np.r_[0.125, np.arange(39.0)]))
        kept = tmp_path / "kept.json"
        kept.write_text('{"previous": true}\n')
        argv = ["analyze", "--input", str(signal), "--kind", "jarque_bera", "--segment-length", "10"]
        for out in ([], ["--out", str(kept)], ["--out", str(tmp_path / "new.json")]):
            assert main(argv + out) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: units[0].statistic is nan, which JSON cannot hold\n"
        assert kept.read_text() == '{"previous": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "marked.bin"]

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baselines_at_any_magnitude(self, tmp_path, capsys, kind):
        # one segment per far sample, then the same segments scaled into range
        reports = []
        for scale in (lambda x: x, _into_range):
            x = np.concatenate([scale(x) for x in FAR_SAMPLES.values()])
            write_signal(tmp_path / "far.bin", Signal(x))
            argv = ["analyze", "--input", str(tmp_path / "far.bin"), "--kind", kind]
            assert main(argv + ["--segment-length", "10"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert all(math.isfinite(u["statistic"]) for u in reports[0]["units"])

    def test_tf_mode_rejects_raw_table(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "analyze", "--input", str(workdir / "signal.bin"),
                "--table", str(workdir / "raw_table.json"),
                "--mode", "tf", "--window-length", "32",
            ]
        )
        assert rc == 2
        assert "--domain spectrogram" in capsys.readouterr().err

    def test_tf_mode_happy_path(self, workdir, tmp_path, capsys):
        table_path = tmp_path / "tf_table.json"
        rc = main(
            [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--window-length", "32", "--signal-length", "300", "--signals", "5",
                "--c", "0.05", "--side", "both", "--seed", "12", "--out", str(table_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            [
                "analyze", "--input", str(workdir / "signal.bin"),
                "--table", str(table_path), "--mode", "tf", "--window-length", "32",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["domain"] == "time-frequency"
        assert len(doc["units"]) == 17  # one per rfft bin of a length-32 window

    def test_tf_mode_geometry_mismatch(self, workdir, tmp_path, capsys):
        table_path = tmp_path / "tf_table.json"
        main(
            [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--window-length", "32", "--signal-length", "200", "--signals", "3",
                "--c", "0.05", "--side", "upper", "--seed", "12", "--out", str(table_path),
            ]
        )
        capsys.readouterr()
        # signal.bin is 300 samples long; the table pins signal_length=200
        rc = main(
            [
                "analyze", "--input", str(workdir / "signal.bin"),
                "--table", str(table_path), "--mode", "tf", "--window-length", "32",
            ]
        )
        assert rc == 2
        assert "no table entry" in capsys.readouterr().err

    def test_baseline_needs_no_table(self, workdir, capsys):
        rc = main(
            [
                "analyze", "--input", str(workdir / "signal.bin"), "--kind", "jarque_bera",
                "--segment-length", "100",
            ]
        )
        assert rc == 0
        units = json.loads(capsys.readouterr().out)["units"]
        assert [u["kind"] for u in units] == ["jarque_bera"] * 3

    def test_mg_kind_requires_table(self, workdir, capsys):
        rc = main(["analyze", "--input", str(workdir / "signal.bin"), "--kind", "mg2"])
        assert rc == 2
        assert "--table is required for kind mg2" in capsys.readouterr().err

    def test_tf_mode_restricted_to_mg_kinds(self, workdir, capsys):
        rc = main(
            [
                "analyze", "--input", str(workdir / "signal.bin"),
                "--table", str(workdir / "raw_table.json"),
                "--mode", "tf", "--kind", "jarque_bera", "--window-length", "32",
            ]
        )
        assert rc == 2
        assert "mg test kinds" in capsys.readouterr().err


class TestSpectrogramCommand:
    def test_oversized_header_is_an_input_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.bin"
        huge.write_bytes(b"GWSIG001" + struct.pack("<Qd", 2**61, 1.0) + bytes(64))
        rc = main(
            [
                "spectrogram", "--input", str(huge), "--window-length", "4",
                "--out", str(tmp_path / "o.npy"),
            ]
        )
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    def test_writes_matrix_and_meta(self, workdir, tmp_path, capsys):
        out = tmp_path / "spec.npy"
        rc = main(
            [
                "spectrogram", "--input", str(workdir / "signal.bin"),
                "--window-length", "64", "--out", str(out),
            ]
        )
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["shape"] == [33, 4]  # 64//2+1 bins, (300-64)//64+1 frames
        assert meta["matrix_file"].endswith(".npy")
        assert np.load(out).shape == (33, 4)
        assert not list(tmp_path.glob("*.tmp"))

    def test_out_gets_the_npy_suffix_and_np_save_bytes(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "spectrogram", "--input", str(workdir / "signal.bin"),
                "--window-length", "64", "--out", str(tmp_path / "spec"),
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["matrix_file"] == str(tmp_path / "spec.npy")
        matrix = spectrogram(read_signal(workdir / "signal.bin"), kaiser_window(64, 5.0))
        np.save(tmp_path / "reference.npy", matrix.magnitude_squared)
        written = (tmp_path / "spec.npy").read_bytes()
        assert written == (tmp_path / "reference.npy").read_bytes()

    def test_matrix_is_stored_in_fortran_order(self, workdir, tmp_path, capsys):
        # the (bins, frames) matrix is the transpose of a (frames, bins) array
        out = tmp_path / "spec.npy"
        rc = main(
            [
                "spectrogram", "--input", str(workdir / "signal.bin"),
                "--window-length", "64", "--overlap", "16", "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        assert (shape, fortran_order, dtype) == ((33, 5), True, np.dtype("<f8"))

    def test_a_window_longer_than_the_signal_is_never_built(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "kaiser_window", lambda *args: built.append(args))
        short = tmp_path / "short.bin"
        write_signal(short, Signal(np.arange(100.0)))
        code = _exit_code(
            [
                "spectrogram", "--input", str(short), "--window-length", "4000000",
                "--out", str(tmp_path / "spec.npy"),
            ]
        )
        assert (code, capsys.readouterr().err) == (
            2, "error: signal_length 100 is shorter than window_length 4000000\n"
        )
        assert built == []
        assert not list(tmp_path.glob("spec*"))

    def test_failed_write_leaves_the_old_matrix(self, workdir, tmp_path, capsys, monkeypatch):
        out = tmp_path / "spec.npy"
        out.write_bytes(b"old matrix")

        def broken_save(fh, array):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", broken_save)
        rc = main(
            [
                "spectrogram", "--input", str(workdir / "signal.bin"),
                "--window-length", "64", "--out", str(out),
            ]
        )
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == b"old matrix"
        assert not list(tmp_path.glob("*.tmp"))


class TestGeometryRule:
    """A spectrogram geometry the 300-sample signal cannot hold: the commands that take
    it print one message and exit 2."""

    @pytest.mark.parametrize(
        "geometry, message",
        [
            (["--window-length", "0"], "window_length must be at least 2, got 0"),
            (["--window-length", "1"], "window_length must be at least 2, got 1"),
            (
                ["--window-length", "64", "--overlap", "64"],
                "overlap must satisfy 0 <= overlap < window_length",
            ),
            (["--window-length", "512"], "signal_length 300 is shorter than window_length 512"),
            (
                ["--window-length", "200"],
                "signal_length 300 gives fewer than 2 frames of window_length 200 at overlap 0",
            ),
        ],
        ids=["window_0", "window_1", "overlap_is_window", "signal_shorter", "one_tf_frame"],
    )
    def test_every_command_refuses_alike(self, workdir, tmp_path, capsys, geometry, message):
        signal, out = str(workdir / "signal.bin"), str(tmp_path / "out")
        commands = {
            "spectrogram": ["spectrogram", "--input", signal],
            "quantiles": [
                "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                "--signal-length", "300", "--signals", "2",
            ],
            "analyze": [
                "analyze", "--input", signal, "--table", str(workdir / "tf_table.json"),
                "--mode", "tf",
            ],
        }
        for name, argv in commands.items():
            code = _exit_code(argv + geometry + ["--out", out])
            stream = capsys.readouterr()
            if name == "spectrogram" and "frames" in message:  # one frame is a spectrogram
                assert code == 0
                assert json.loads(stream.out)["frame_count"] == 1
            else:
                assert (code, stream.err) == (2, f"error: {message}\n"), name


class TestGlobalBehavior:
    def test_import_loads_no_scipy(self, workdir, tmp_path):
        # scipy is loaded by the Kolmogorov-Smirnov baseline only; the numpy
        # submodules it used to load as a side effect, and that the commands
        # use, are imported with the package instead. Quantiles are taken
        # without np.quantile, which would load numpy.ma, and the engine's
        # helpers are plain threads, so neither numpy.ma nor
        # concurrent.futures (nor the logging it loads) is ever imported. No
        # thread starts on import, and a run's helper threads are all joined.
        code = (
            "import json, sys, threading, greenwood, greenwood.cli\n"
            "modules, threads = sorted(sys.modules), threading.active_count()\n"
            "greenwood.critical._cpu_count = lambda: 3\n"
            "heavy, table, signal, out = sys.argv[1:]\n"
            "for argv in (\n"
            "    ['quantiles', '--family', 'stable', '--alpha', '1.5', '--n', '50',"
            " '--reps', '6000'],\n"
            "    ['test', '--kind', 'mg2', '--table', table, '--input', heavy],\n"
            "    ['power', '--kind', 'mg2', '--table', table, '--data-family', 'stable',"
            " '--grid', '1.5,2', '--n', '10,50', '--reps', '300'],\n"
            "    ['analyze', '--mode', 'time', '--table', table, '--input', signal,"
            " '--segment-length', '50'],\n"
            "    ['test', '--kind', 'jarque_bera', '--input', heavy],\n"
            "):\n"
            "    assert greenwood.cli.main(argv + ['--out', out]) == 0, argv\n"
            "print(json.dumps([modules, sorted(sys.modules), threads, threading.active_count()]))\n"
        )
        proc = subprocess.run(
            [
                sys.executable, "-c", code, str(workdir / "heavy.csv"),
                str(workdir / "raw_table.json"), str(workdir / "signal.bin"), str(tmp_path / "out"),
            ],
            env=_env_with_package(), capture_output=True, text=True, check=True,
        )
        on_import, after_run, threads_on_import, threads_after_run = json.loads(
            proc.stdout.splitlines()[-1]
        )
        assert sorted(m for m in after_run if m == "scipy" or m.startswith("scipy.")) == []
        assert {"numpy.random", "numpy.fft"} <= set(on_import)
        idle = {"numpy.ma", "concurrent.futures", "logging"}
        assert idle.isdisjoint(on_import)
        assert idle.isdisjoint(after_run)
        assert threads_on_import == 1
        assert threads_after_run == 1

    def test_only_a_baseline_threshold_reads_the_packaged_file(self, workdir, tmp_path):
        # baselines.json is read on the first baseline threshold a process
        # needs, so mg commands and tests never pay for loading it
        code = (
            "import sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda ev, args: ev == 'open' and opened.append(str(args[0])))\n"
            "import numpy as np, greenwood.cli\n"
            "from greenwood import QuantileTable, TestSpec, run_test\n"
            "heavy, table, signal, out = sys.argv[1:]\n"
            "for argv in (\n"
            "    ['quantiles', '--family', 'gaussian', '--n', '10', '--reps', '1000'],\n"
            "    ['analyze', '--mode', 'time', '--table', table, '--input', signal,"
            " '--segment-length', '50'],\n"
            "):\n"
            "    assert greenwood.cli.main(argv + ['--out', out]) == 0, argv\n"
            "x = np.loadtxt(heavy)\n"
            "run_test(TestSpec('mg2', 0.05, QuantileTable.load(table)), x)\n"
            "reads = [sum(p.endswith('baselines.json') for p in opened)]\n"
            "for kind in ('jarque_bera', 'ks_normality'):\n"
            "    run_test(TestSpec(kind), x)\n"
            "    reads.append(sum(p.endswith('baselines.json') for p in opened))\n"
            "print(reads)\n"
        )
        proc = subprocess.run(
            [
                sys.executable, "-c", code, str(workdir / "heavy.csv"),
                str(workdir / "raw_table.json"), str(workdir / "signal.bin"), str(tmp_path / "out"),
            ],
            env=_env_with_package(), capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[0, 1, 1]"

    def test_only_a_baseline_threshold_imports_importlib_resources(self, workdir):
        # about 5 ms of a cold start where site does not load it; run without
        # site, which may load it through a .pth file, with numpy on the path
        env = _env_with_package()
        env["PYTHONPATH"] += os.pathsep + str(Path(np.__file__).resolve().parents[1])
        code = (
            "import sys, numpy as np, greenwood.cli\n"
            "from greenwood import TestSpec, run_test\n"
            "loaded = ['importlib.resources' in sys.modules]\n"
            "run_test(TestSpec('jarque_bera'), np.loadtxt(sys.argv[1]))\n"
            "print(loaded + ['importlib.resources' in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(workdir / "heavy.csv")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[False, True]"

    def test_spectrogram_null_leaves_no_helper_thread(self, tmp_path):
        code = (
            "import sys, threading, greenwood.cli\n"
            "greenwood.critical._cpu_count = lambda: 3\n"
            "greenwood.cli.main(['quantiles', '--family', 'gaussian', '--domain', 'spectrogram',"
            " '--window-length', '64', '--signal-length', '1000', '--signals', '7',"
            " '--out', sys.argv[1]])\n"
            "print(threading.active_count())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "t.json")],
            env=_env_with_package(), capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "1"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_threads_flag_is_gone(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "test", "--kind", "jarque_bera",
                    "--input", str(workdir / "heavy.csv"), "--threads", "2",
                ]
            )
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quantiles", "--family", "gaussian", "--n", "10", "--c", "0.7"], "c must"),
            (["quantiles", "--family", "gaussian", "--n", "1"], "n must"),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "100", "--c", "0.7",
                ],
                "c must",
            ),
            (["test", "--kind", "jarque_bera", "--input", "{heavy}", "--c", "0.7"], "c must"),
            (
                ["test", "--kind", "mg2", "--table", "{table}", "--input", "{heavy}", "--c", "0.7"],
                "c must",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "1.5", "--n", "10", "--c", "0.7",
                ],
                "c must",
            ),
            (
                ["analyze", "--input", "{signal}", "--table", "{table}", "--segment-length", "1"],
                "segment_length must be at least 2",
            ),
            (
                ["spectrogram", "--input", "{signal}", "--window-length", "1"],
                "window_length must be at least 2, got 1",
            ),
            (
                ["spectrogram", "--input", "{heavy}", "--window-length", "2", "--sample-rate", "-1"],
                "argument --sample-rate: sample_rate must be a finite positive number",
            ),
            (
                ["analyze", "--input", "{heavy}", "--table", "{table}", "--sample-rate", "nan"],
                "argument --sample-rate: sample_rate must be a finite positive number",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "100", "--sample-rate", "inf",
                ],
                "argument --sample-rate: sample_rate must be a finite positive number",
            ),
            (
                ["spectrogram", "--input", "{heavy}", "--window-length", "2", "--sample-rate", "x"],
                "argument --sample-rate: invalid float value: 'x'",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--seed", "x"],
                "argument --seed: invalid int value: 'x'",
            ),
            (
                ["spectrogram", "--input", "{signal}", "--window-length", "64", "--beta", "nan"],
                "--beta: beta must be nonnegative with a finite I0(beta)",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--table", "{table}", "--mode", "tf",
                    "--window-length", "64", "--beta", "inf",
                ],
                "--beta: beta must be nonnegative with a finite I0(beta)",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "100", "--beta", "800",
                ],
                "--beta: beta must be nonnegative with a finite I0(beta)",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "2000",
                ],
                "signal_length 1000 is shorter than window_length 2000",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "100", "--n", "5000",
                ],
                "--n applies to the raw domain only",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--window-length", "100"],
                "--window-length applies to the spectrogram domain only",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--signal-length", "1000"],
                "--signal-length applies to the spectrogram domain only",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable", "--grid", "1.5",
                    "--n", "10", "--family", "stable", "--alpha", "1.2",
                ],
                "--family applies to kind mg_two_sided only",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--alpha", "1.5"],
                "--alpha applies to the stable family only",
            ),
            (
                ["test", "--kind", "jarque_bera", "--table", "{missing}", "--input", "{heavy}"],
                "--table applies to the mg kinds only",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--beta", "9"],
                "--beta applies to the spectrogram domain only",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "100", "--reps", "5",
                ],
                "--reps applies to the raw domain only",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "100", "--quick",
                ],
                "--quick applies to the raw domain only",
            ),
            (
                ["analyze", "--input", "{signal}", "--table", "{table}", "--window-length", "64"],
                "--window-length applies to tf mode only",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--table", "{table}", "--mode", "tf",
                    "--window-length", "64", "--segment-length", "100",
                ],
                "--segment-length applies to time mode only",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--quick", "--reps", "500"],
                "argument --reps: not allowed with argument --quick",
            ),
            (["spectrogram", "--input", "{signal}"], "spectrogram requires --window-length"),
            (
                ["analyze", "--input", "{signal}", "--table", "{tf_table}", "--mode", "tf"],
                "time-frequency mode requires --window-length",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--table", "{table}", "--mode", "tf",
                    "--window-length", "32",
                ],
                "time-frequency mode needs a table built from spectrogram nulls (build one with:"
                " greenwood quantiles --domain spectrogram ...); {table} holds raw-sample"
                " entries only",
            ),
            (
                ["spectrogram", "--input", "{signal}", "--window-length", "32", "--sample-rate", "1000"],
                "--sample-rate applies to CSV input only",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--table", "{tf_table}", "--mode", "tf",
                    "--window-length", "32", "--sample-rate", "1000",
                ],
                "--sample-rate applies to CSV input only",
            ),
            (
                ["analyze", "--input", "{heavy}", "--table", "{table}", "--sample-rate", "1000"],
                "--sample-rate applies to tf mode only",
            ),
            (
                # a simulated signal's rate only places the band
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "400", "--window-length", "64", "--sample-rate", "1000",
                ],
                "--sample-rate applies to the spectrogram domain with --f-min or --f-max only",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10,10", "--reps", "1000"],
                "duplicate request",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--table", "{tf_table}", "--mode", "tf",
                    "--window-length", "32", "--f-min", "0.6", "--f-max", "0.9",
                ],
                "no frequency rows inside [0.6, 0.9] Hz",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--table", "{tf_table}", "--mode", "tf",
                    "--window-length", "32", "--f-min", "0.6",
                ],
                "no frequency rows inside [0.6, 0.5] Hz",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "1.5", "--n", "5", "--reps", "100",
                ],
                "baseline tests need at least 8 observations",
            ),
            (
                [
                    "power", "--kind", "mg2", "--table", "{table}", "--data-family", "stable",
                    "--grid", "1.5", "--n", "20,20", "--reps", "500",
                ],
                "sample sizes must not repeat",
            ),
            (
                [
                    "power", "--kind", "mg2", "--table", "{table}", "--data-family", "stable",
                    "--grid", "1.5", "--n", "1", "--reps", "500",
                ],
                "must be at least 2",
            ),
            (
                [
                    "analyze", "--input", "{signal}", "--kind", "jarque_bera",
                    "--segment-length", "5",
                ],
                "baseline tests need at least 8 observations",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "1:2", "--n", "10",
                ],
                "grid must be start:step:stop or a comma list",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "a:b:c", "--n", "10",
                ],
                "non-numeric grid bounds",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "1:0:2", "--n", "10",
                ],
                "grid step must be positive",
            ),
            (
                ["quantiles", "--family", "gaussian", "--n", "10", "--c", ","],
                "--c must list at least one level",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "1.5", "--n", ",",
                ],
                "sample sizes must be nonempty",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", ",", "--n", "10",
                ],
                "parameter grid must be nonempty",
            ),
            (
                [
                    "power", "--kind", "jarque_bera", "--data-family", "stable",
                    "--grid", "2:1:1", "--n", "10",
                ],
                "parameter grid must be nonempty",
            ),
            (
                [
                    "quantiles", "--family", "gaussian", "--domain", "spectrogram",
                    "--signal-length", "1000", "--window-length", "64", "--overlap", "64",
                ],
                "overlap must satisfy 0 <= overlap < window_length",
            ),
        ],
        ids=[
            "quantiles_c", "quantiles_n", "spectrogram_c", "baseline_c", "mg_c", "power_c",
            "analyze_segment_length", "spectrogram_window_length", "spectrogram_sample_rate",
            "analyze_sample_rate", "quantiles_sample_rate", "sample_rate_not_a_number",
            "seed_not_a_number", "spectrogram_beta_nan",
            "analyze_beta_inf", "quantiles_beta_800", "quantiles_signal_shorter_than_window",
            "quantiles_spectrogram_n", "quantiles_raw_window_length",
            "quantiles_raw_signal_length", "fixed_null_family", "other_family_parameter",
            "baseline_table", "quantiles_raw_beta", "quantiles_spectrogram_reps",
            "quantiles_spectrogram_quick", "analyze_time_window_length",
            "analyze_tf_segment_length", "quick_with_reps", "spectrogram_no_window_length",
            "analyze_tf_no_window_length", "analyze_tf_raw_table",
            "spectrogram_binary_sample_rate", "analyze_binary_sample_rate",
            "analyze_time_sample_rate", "quantiles_sample_rate_no_band",
            "quantiles_duplicate_request", "analyze_band_above_nyquist",
            "analyze_f_min_above_nyquist", "power_baseline_below_8", "power_repeated_n",
            "power_n_below_2", "analyze_baseline_segment_below_8", "power_grid_two_pieces",
            "power_grid_not_numeric", "power_grid_zero_step", "quantiles_no_c", "power_no_n",
            "power_grid_empty_list", "power_grid_empty_range",
            "quantiles_overlap_window",
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, workdir, tmp_path, capsys, argv, message):
        paths = {
            "heavy": workdir / "heavy.csv",
            "table": workdir / "raw_table.json",
            "signal": workdir / "signal.bin",
            "tf_table": workdir / "tf_table.json",
            "missing": workdir / "missing.json",
        }
        argv = [a.format(**paths) for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. an overflow in I0(beta)
            assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
        assert message.format(**paths) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no output file, whole or partial

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551619"])
    @pytest.mark.parametrize("command", ["quantiles", "power"])
    def test_seed_outside_64_bits_is_a_usage_error(self, workdir, tmp_path, capsys, command, seed):
        # 2**64 + 3 used to alias seed 3 while the metadata recorded the larger seed
        out = tmp_path / "out"
        argv = {
            "quantiles": ["quantiles", "--family", "gaussian", "--n", "10", "--reps", "1000"],
            "power": [
                "power", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--data-family", "stable", "--grid", "1.5", "--n", "10", "--reps", "10",
            ],
        }[command]
        assert _exit_code(argv + ["--seed", seed, "--out", str(out)]) == 2
        assert "argument --seed: master_seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "t.json"
        argv = [
            "quantiles", "--family", "gaussian", "--n", "10", "--reps", "1000",
            "--seed", str(2**64 - 1), "--out", str(out),
        ]
        assert main(argv) == 0
        assert QuantileTable.load(out).metadata["master_seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "family, flag", [("stable", "--alpha"), ("student_t", "--nu"), ("gpd", "--gamma")]
    )
    def test_missing_family_parameter_names_its_flag(self, tmp_path, capsys, family, flag):
        rc = main(
            [
                "quantiles", "--family", family, "--n", "10", "--reps", "1000",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert f"{flag} is required for the {family} family" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_console_script_installed(self):
        exe = shutil.which("greenwood")
        assert exe, "console script should be on PATH after install"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "quantiles" in proc.stdout


@pytest.fixture(scope="module")
def fuzz_files(workdir):
    """Good, bad and missing inputs for generated command lines, by placeholder."""
    d = workdir / "fuzz"
    d.mkdir()
    np.savetxt(d / "short.csv", RngStream(69).generator().standard_cauchy(10))
    np.savetxt(d / "multi.csv", np.ones((6, 3)), delimiter=",")
    (d / "nan.csv").write_text("1.0\nnan\n2.0\ninf\n")
    (d / "garbage.bin").write_bytes(b"GWSIG\x00\xff" + bytes(range(40)))
    raw = (workdir / "signal.bin").read_bytes()
    (d / "truncated.bin").write_bytes(raw[: len(raw) // 2])
    # covers every mg kind at n = 10 and 50, so power studies get to sampling
    nulls = [(Gaussian(0.0, 1.0), ("lower", "upper")), (GPD(0.5, 1.0), ("lower",)),
             (StudentT(2), ("lower",))]
    requests = [
        TableRequest(spec, n, c, side)
        for spec, sides in nulls for n in (10, 50) for c in (0.05, 0.025) for side in sides
    ]
    build_quantile_table(requests, 1000, RngStream(71)).save(d / "mg_table.json")
    return {
        "{heavy}": str(workdir / "heavy.csv"),
        "{table}": str(workdir / "raw_table.json"),
        "{signal}": str(workdir / "signal.bin"),
        "{short}": str(d / "short.csv"),
        "{multi}": str(d / "multi.csv"),
        "{nan}": str(d / "nan.csv"),
        "{garbage}": str(d / "garbage.bin"),
        "{truncated}": str(d / "truncated.bin"),
        "{tf_table}": str(workdir / "tf_table.json"),
        "{mg_table}": str(d / "mg_table.json"),
        "{missing}": str(d / "missing.csv"),
        "{out}": str(d / "out.json"),
        "{bad_dir}": str(d / "no-such-dir" / "out.json"),
    }


# (good, bad) values of each flag in a generated command line. Most values
# are good, so that most lines get past parsing and reach the command. The
# levels and lengths are few, so the baseline thresholds (read or simulated
# once per (n, c) in a process) stay cheap. Sample sizes and replications are
# small but span several blocks, so quantiles and power lines run the threaded
# engine, and mg3_gpd on stable or Gaussian data fails inside it.
_INPUTS = (["{heavy}", "{signal}", "{short}"],
           ["{multi}", "{nan}", "{garbage}", "{truncated}", "{table}", "{missing}"])
_NUMBERS = ["-1", "nan", "inf", "-inf", "x", ""]
_FLAG_VALUES = {
    "--input": _INPUTS,
    "--kind": (["mg2", "mg1", "mg_two_sided", "jarque_bera", "ks_normality"],
               ["mg3_gpd", "mg4_student_t", "mg5"]),
    "--table": (["{table}", "{tf_table}", "{mg_table}"], ["{heavy}", "{garbage}", "{missing}"]),
    "--c": (["0.05"], ["0.7", "0", "nan", "x"]),
    "--out": (["{out}"], ["{bad_dir}"]),
    "--family": (["gaussian", "stable"], ["student_t", "gpd", "cauchy"]),
    "--alpha": (["1.5", "2"], ["3"] + _NUMBERS),
    "--nu": (["2", "inf"], ["2.5"] + _NUMBERS),
    "--mode": (["time", "tf"], ["freq"]),
    "--segment-length": (["10", "50"], ["2", "1", "1000", "-3", "x"]),
    "--window-length": (["32", "64"], ["2", "1", "0", "-4", "1000", "x"]),
    "--beta": (["5", "0"], ["-1", "nan", "inf", "x"]),
    "--overlap": (["0", "16"], ["31", "32", "-1", "x"]),
    "--f-min": (["0.1", "0"], ["0.6", "nan", "-inf"]),
    "--f-max": (["0.4", "0.5"], ["0", "nan", "inf"]),
    "--sample-rate": (["1", "1000"], ["0", "-1", "nan", "inf", "x"]),
    "--gamma": (["0.5", "-0.2"], ["nan", "x"]),
    "--n": (["10", "50", "10,50"], ["1", "0", "x", ""]),
    "--reps": (["1000", "3000"], ["999", "99", "-1", "x"]),
    "--side": (["both", "upper", "lower"], ["left"]),
    "--seed": (["0", "7"], ["-1", "18446744073709551616", "x"]),
    "--domain": (["raw", "spectrogram"], ["freq"]),
    "--signal-length": (["300", "1000"], ["10", "0", "-1", "x"]),
    "--signals": (["2", "3"], ["0", "-1", "x"]),
    "--data-family": (["stable", "gaussian", "student_t", "gpd"], ["cauchy"]),
    "--grid": (["1.5", "1.5,2", "1:0.5:2"], ["2,1", "0:0:1", "nan", "x", ""]),
}
# (usual, optional) flags of each command; the usual ones include the
# required flags and are left out only now and then
_COMMANDS = {
    "test": (("--input", "--kind"), ("--c", "--out")),
    "analyze": (("--input", "--mode", "--kind"), ("--c", "--out")),
    "spectrogram": (
        ("--input", "--window-length", "--out"), ("--beta", "--overlap", "--sample-rate")
    ),
    "quantiles": (("--family", "--domain", "--out"), ("--c", "--side", "--seed")),
    "power": (("--kind", "--data-family", "--grid", "--n", "--reps", "--out"), ("--c", "--seed")),
}
# (usual, optional) flags that a command line reads once a flag takes a value
_READS = {
    ("--mode", "time"): (("--segment-length",), ()),
    ("--mode", "tf"): (
        ("--window-length",), ("--beta", "--overlap", "--f-min", "--f-max", "--sample-rate")
    ),
    ("--domain", "raw"): (("--n", "--reps"), ()),
    ("--domain", "spectrogram"): (
        ("--window-length", "--signal-length", "--signals"),
        ("--beta", "--overlap", "--f-min", "--f-max", "--sample-rate"),
    ),
    **{("--kind", kind): (("--table",), ()) for kind in MG_KINDS},
    ("--kind", "mg_two_sided"): (("--table", "--family"), ()),
    ("--family", "stable"): (("--alpha",), ()),
    ("--family", "student_t"): (("--nu",), ()),
    ("--family", "gpd"): (("--gamma",), ()),
}
# the flags that only some command lines read
_SCOPED = {flag for usual, optional in _READS.values() for flag in usual + optional}


@st.composite
def _command_lines(draw):
    # the odds come from a Random that hypothesis seeds: its own integer
    # draws favour small and boundary values, so odds written with them do
    # not give the shares they state, and lines repeat
    rnd = draw(st.randoms(use_true_random=True))
    command = rnd.choice(sorted(_COMMANDS))
    flags, argv, reads = [_COMMANDS[command]], [command], set()
    while flags:
        usual, optional = flags.pop()
        reads.update(usual + optional)
        names = [f for f in usual if rnd.randrange(16) < 15]
        if optional:
            names += rnd.sample(optional, rnd.randint(0, min(2, len(optional))))
        for flag in names:
            good, bad = _FLAG_VALUES[flag]
            value = rnd.choice(bad if rnd.randrange(8) == 7 else good)
            argv += [flag, value]
            flags.append(_READS.get((flag, value), ((), ())))
    if rnd.randrange(4) == 3:  # now and then, a flag that this line does not read
        flag = rnd.choice(sorted(_SCOPED - reads))
        argv += [flag, rnd.choice(_FLAG_VALUES[flag][0])]
    if rnd.randrange(16) == 15:  # a stray token somewhere
        argv.insert(rnd.randint(1, len(argv)), rnd.choice(_NUMBERS))
    return argv


class TestFuzzedCommandLines:
    def test_any_command_line_exits_0_1_or_2(self, fuzz_files):
        lines = set()

        @settings(derandomize=True, max_examples=500, deadline=None)
        @given(_command_lines())
        def run(argv):
            lines.add(tuple(argv))
            for placeholder, path in fuzz_files.items():
                argv = [a.replace(placeholder, path) for a in argv]
            assert _exit_code(argv) in (0, 1, 2)

        run()
        # 500 examples gave 488 distinct lines; drawn with hypothesis' own
        # integers they gave about 170
        assert len(lines) >= 450
