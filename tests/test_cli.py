"""End-to-end tests of the command-line interface (in-process via main)."""

import json
import shutil
import struct
import subprocess

import numpy as np
import pytest

from greenwood.cli import main
from greenwood.critical import QuantileTable, TableRequest, build_quantile_table
from greenwood.distributions import Gaussian, Stable, family_tag, params_dict, spec_from
from greenwood.power import import_curve, size_check
from greenwood.rng import RngStream
from greenwood.signal import Signal, read_signal, write_signal
from greenwood.testing import BASELINE_KINDS, MG_KINDS, TestSpec, null_for


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    requests = [
        TableRequest(Gaussian(0.0, 1.0), n, 0.05, side)
        for n in (10, 50, 100)
        for side in ("lower", "upper")
    ]
    table = build_quantile_table(requests, 1000, RngStream(66), created_at="fixed")
    table.save(d / "raw_table.json")

    heavy = RngStream(67).generator().standard_cauchy(50)
    np.savetxt(d / "heavy.csv", heavy)
    write_signal(d / "signal.bin", Signal(RngStream(68).generator().standard_cauchy(300)))
    return d


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
            {
                "schema_version": 1,
                "entries": [
                    {
                        "family": "gaussian", "params": [], "n": 50, "c": 0.05,
                        "side": "upper", "value": 0.1,
                    }
                ],
            },
        ],
    )
    def test_malformed_table_json(self, workdir, tmp_path, capsys, doc):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        rc = main(
            [
                "test", "--kind", "mg2", "--table", str(path),
                "--input", str(workdir / "heavy.csv"),
            ]
        )
        assert rc == 1
        assert "cannot parse quantile table" in capsys.readouterr().err

    def test_unreadable_input(self, workdir, capsys):
        rc = main(
            [
                "test", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--input", str(workdir / "missing.csv"),
            ]
        )
        assert rc == 1


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

    def test_decreasing_grid_is_usage_error(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "power", "--kind", "mg2", "--table", str(workdir / "raw_table.json"),
                "--data-family", "stable", "--grid", "2.0,1.2", "--n", "10",
                "--reps", "100", "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert rc == 2
        assert "strictly increasing" in capsys.readouterr().err

    # column of the power grid that holds each family's null parameter
    GRID_PARAM = {"gaussian": "sigma2", "stable": "alpha", "student_t": "nu", "gpd": "gamma"}

    @pytest.mark.parametrize("kind", MG_KINDS + BASELINE_KINDS)
    def test_size_check_draws_from_the_recorded_null(self, kind, tmp_path):
        two_sided_null = Stable(1.5, 1.0)
        null = null_for(kind, two_sided_null)
        table = None
        args = ["--kind", kind, "--family", "stable", "--alpha", "1.5"]
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
            assert spec_from(recorded["family"], recorded["params"]) == null
        # grid point (0, 0) of the study draws replication r from substream r
        # of the master seed, exactly as size_check does
        spec = TestSpec(kind, 0.05, table, null_spec=two_sided_null)
        rate = size_check(spec, 10, 200, RngStream(71))
        assert import_curve(out).points[0].rejection_rate == rate


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


class TestGlobalBehavior:
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

    def test_console_script_installed(self):
        exe = shutil.which("greenwood")
        assert exe, "console script should be on PATH after install"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "quantiles" in proc.stdout
