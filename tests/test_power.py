"""Tests for power/size studies and curve serialization."""

import math

import numpy as np
import pytest

from greenwood import testing
from greenwood.critical import (
    BLOCK_VALUES,
    GROUP_STRIDE,
    QuantileTable,
    TableRequest,
    _sample_job,
    _simulate,
    build_quantile_table,
    estimate_null_distribution,
)
from greenwood.distributions import (
    FAMILIES,
    GPD,
    Gaussian,
    Stable,
    StudentT,
    family_tag,
    params_dict,
    sample,
)
from greenwood.power import (
    PowerStudyConfig,
    _rejection_rates,
    data_spec,
    export_curve,
    import_curve,
    run_power_study,
    size_check,
)
from greenwood.rng import RngStream
from greenwood.statistic import modified_greenwood, modified_greenwood_batch
from greenwood.testing import TestSpec, reject_rows, run_test, thresholds_for


def mg2_spec(table, c=0.05):
    return TestSpec("mg2", c, table)


class TestDataSpec:
    def test_family_mapping(self):
        assert data_spec("stable", 1.5) == Stable(1.5, 1.0)
        assert data_spec("student_t", 3) == StudentT(3)
        assert data_spec("gpd", 0.5) == GPD(0.5, 1.0)
        assert data_spec("gaussian", 2.0) == Gaussian(0.0, 2.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown data family"):
            data_spec("weibull", 1.0)

    # the parameter --grid sweeps in each --data-family, as the README states
    SWEPT = {"gaussian": "sigma2", "stable": "alpha", "student_t": "nu", "gpd": "gamma"}
    SPECS = {
        "gaussian": Gaussian(1.0, 2.0),
        "stable": Stable(1.2, 0.5),
        "student_t": StudentT(math.inf),
        "gpd": GPD(-0.2, 3.0),
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_family_registry(self, family):
        spec = self.SPECS[family]
        assert type(spec) is FAMILIES[family]
        assert family_tag(spec) == family
        assert FAMILIES[family](**params_dict(spec)) == spec
        # the swept parameter is set; every other one keeps its default
        assert data_spec(family, 2.0) == FAMILIES[family](**{self.SWEPT[family]: 2.0})


class TestConfigValidation:
    def test_empty_grid(self, quick_gaussian_table):
        with pytest.raises(ValueError, match="grid must be nonempty"):
            PowerStudyConfig(mg2_spec(quick_gaussian_table), "stable", (), (10,), 100, 1)

    def test_grid_must_increase(self, quick_gaussian_table):
        with pytest.raises(ValueError, match="strictly increasing"):
            PowerStudyConfig(
                mg2_spec(quick_gaussian_table), "stable", (1.5, 1.2), (10,), 100, 1
            )

    def test_replication_floor(self, quick_gaussian_table):
        with pytest.raises(ValueError, match="at least 100"):
            PowerStudyConfig(
                mg2_spec(quick_gaussian_table), "stable", (1.5,), (10,), 99, 1
            )

    def test_invalid_grid_value_fails_fast(self, quick_gaussian_table):
        # alpha = 2.5 is outside the stable family's range
        with pytest.raises(ValueError):
            PowerStudyConfig(
                mg2_spec(quick_gaussian_table), "stable", (1.5, 2.5), (10,), 100, 1
            )

    @pytest.mark.parametrize("kind", ["mg2", "jarque_bera"])
    def test_sample_sizes_are_integers(self, quick_gaussian_table, kind):
        spec = TestSpec(kind, 0.05, quick_gaussian_table if kind == "mg2" else None)
        with pytest.raises(ValueError, match="n must be an integer, got 10.5"):
            PowerStudyConfig(spec, "stable", (1.5,), (10, 10.5), 100, 1)

    def test_uncovered_sample_size_fails_before_sampling(self, quick_gaussian_table):
        cfg = PowerStudyConfig(
            mg2_spec(quick_gaussian_table), "stable", (1.5,), (10, 37), 100, 1
        )
        with pytest.raises(KeyError, match="n=37"):
            run_power_study(cfg)


class TestIntegralFloatSampleSizes:
    """A sample size given as an integral float runs as that int, to the byte."""

    def _output(self, entry, n, table, tmp_path):
        path = tmp_path / f"{entry}-{type(n).__name__}.out"
        if entry == "table":
            requests = [TableRequest(Gaussian(0.0, 1.0), n, 0.05, "upper")]
            build_quantile_table(requests, 1000, RngStream(61)).save(path)
        elif entry == "power":
            cfg = PowerStudyConfig(mg2_spec(table), "stable", (1.5, 2.0), (n,), 200, 62)
            export_curve(run_power_study(cfg), path)
            return path.read_bytes(), (tmp_path / f"{path.name}.json").read_bytes()
        elif entry == "size":
            return size_check(mg2_spec(table), n, 200, RngStream(63))
        elif entry == "null":
            return estimate_null_distribution(Gaussian(0.0, 1.0), n, 1000, RngStream(64)).tobytes()
        else:  # a Jarque-Bera threshold at n = 101, off the packaged grid: simulated
            return thresholds_for(TestSpec("jarque_bera"), n + 91)
        return path.read_bytes()

    @pytest.mark.parametrize("entry", ["table", "power", "size", "null", "baseline"])
    def test_same_output_as_the_int(self, entry, quick_gaussian_table, tmp_path, monkeypatch):
        outputs = []
        for n in (10.0, 10):
            monkeypatch.setattr(testing, "_baseline_cache", {})
            outputs.append(self._output(entry, n, quick_gaussian_table, tmp_path))
        assert outputs[0] == outputs[1]


class TestRunPowerStudy:
    def test_grid_points_and_rates(self, quick_gaussian_table):
        cfg = PowerStudyConfig(
            mg2_spec(quick_gaussian_table), "stable", (1.2, 2.0), (10,), 200, 555
        )
        curve = run_power_study(cfg)
        assert len(curve.points) == 2
        assert {(p.param, p.n) for p in curve.points} == {(1.2, 10), (2.0, 10)}
        assert all(p.replications == 200 for p in curve.points)
        assert curve.config["data_family"] == "stable"
        assert curve.config["test_kind"] == "mg2"
        with pytest.raises(KeyError):
            curve.rate(1.5, 10)

    def test_heavier_tails_mean_more_power(self, quick_gaussian_table):
        cfg = PowerStudyConfig(
            mg2_spec(quick_gaussian_table), "stable", (1.2, 2.0), (10,), 200, 555
        )
        curve = run_power_study(cfg)
        # calibrated on this seed: 0.56 versus 0.04
        assert curve.rate(1.2, 10) > curve.rate(2.0, 10) + 0.3
        assert curve.rate(2.0, 10) < 0.15

    def test_power_drops_as_degrees_of_freedom_grow(self, quick_gaussian_table):
        cfg = PowerStudyConfig(
            mg2_spec(quick_gaussian_table), "student_t", (1.0, 5.0), (10,), 200, 556
        )
        curve = run_power_study(cfg)
        assert curve.rate(1.0, 10) > curve.rate(5.0, 10) + 0.3

    def test_infinite_grid_parameter(self, quick_gaussian_table):
        cfg = PowerStudyConfig(
            mg2_spec(quick_gaussian_table), "student_t", (2.0, math.inf), (10,), 100, 557
        )
        curve = run_power_study(cfg)
        # the infinite-dof member is the null itself, so power sits near c
        assert curve.rate(math.inf, 10) < curve.rate(2.0, 10)

    def test_reruns_are_identical(self, quick_gaussian_table):
        cfg = PowerStudyConfig(
            mg2_spec(quick_gaussian_table), "stable", (1.2, 1.8), (10, 50), 100, 990
        )
        assert run_power_study(cfg) == run_power_study(cfg)

    def test_the_order_of_the_sizes_changes_no_rate(self, quick_gaussian_table):
        # every n is decided on prefixes of rows of the largest n
        rates = [
            {
                (pt.param, pt.n): pt.rejection_rate
                for pt in run_power_study(
                    PowerStudyConfig(
                        mg2_spec(quick_gaussian_table), "stable", (1.5, 2.0), sizes, 1500, 991
                    )
                ).points
            }
            for sizes in ((10, 50), (50, 10))
        ]
        assert rates[0] == rates[1]


class TestSizeCheck:
    def test_one_sided_size_near_level(self, quick_gaussian_table):
        rate = size_check(mg2_spec(quick_gaussian_table), 10, 400, RngStream(558))
        assert abs(rate - 0.05) < 0.035

    def test_two_sided_size_near_level(self, quick_gaussian_table):
        spec = TestSpec(
            "mg_two_sided", 0.1, quick_gaussian_table, null_spec=Gaussian(0.0, 1.0)
        )
        rate = size_check(spec, 10, 400, RngStream(559))
        assert abs(rate - 0.1) < 0.04

    @pytest.mark.parametrize("kind", ["mg2", "jarque_bera"])
    def test_a_size_check_is_a_one_point_study(self, kind):
        # a study's grid parameter 0 runs on the master stream, which size_check reads
        table = build_quantile_table(
            [TableRequest(Gaussian(0.0, 1.0), 20, 0.05, "upper")], 2000, RngStream(1102)
        )
        spec = TestSpec(kind, 0.05, table)
        assert data_spec("gaussian", 1.0) == spec.null_spec
        study = run_power_study(PowerStudyConfig(spec, "gaussian", (1.0,), (20,), 400, 562))
        assert study.rate(1.0, 20) == size_check(spec, 20, 400, RngStream(562))

    def test_a_one_size_study_is_a_size_check_per_grid_parameter(self):
        # grid parameter i runs on substream i * GROUP_STRIDE of the seed; each
        # parameter is the null of its own two-sided test
        grid = (0.5, 1.0, 2.0)
        requests = [
            TableRequest(data_spec("gaussian", param), 20, 0.025, side)
            for param in grid
            for side in ("lower", "upper")
        ]
        table = build_quantile_table(requests, 2000, RngStream(1103))
        for i, param in enumerate(grid):
            spec = TestSpec("mg_two_sided", 0.05, table, null_spec=data_spec("gaussian", param))
            study = run_power_study(PowerStudyConfig(spec, "gaussian", grid, (20,), 400, 563))
            stream = RngStream(563).substream(i * GROUP_STRIDE)
            assert study.rate(param, 20) == size_check(spec, 20, 400, stream)

    def test_replication_floor(self, quick_gaussian_table):
        with pytest.raises(ValueError, match="at least 100"):
            size_check(mg2_spec(quick_gaussian_table), 10, 50, RngStream(1))


def _tie_spec(kind, n, lower, upper, monkeypatch) -> TestSpec:
    """``kind`` at c = 0.05 whose size-``n`` thresholds are ``lower`` and ``upper``.

    A one-sided kind reads the value of its own tail; the Jarque-Bera
    threshold is planted in the baseline cache.
    """
    if kind == "jarque_bera":
        monkeypatch.setitem(testing._baseline_cache, (kind, n, 0.05, 100000), upper)
        return TestSpec(kind, 0.05)
    two_sided_null = Gaussian(0.0, 1.0) if kind == "mg_two_sided" else None
    null = TestSpec(kind, 0.05, QuantileTable({}, []), null_spec=two_sided_null).null_spec
    records = [
        {
            "family": family_tag(null), "params": params_dict(null), "n": n,
            "c": c, "side": side, "value": lower if side == "lower" else upper,
        }
        for c in (0.05, 0.025)
        for side in ("lower", "upper")
    ]
    return TestSpec(kind, 0.05, QuantileTable({}, records), null_spec=null)


class TestBatchDecisions:
    N, R = 50, 3000  # three blocks of 1310 rows, the last one cut short
    DATA = StudentT(2)  # heavy rows: the batch and scalar sums often differ by an ulp

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize(
        "kind", ["mg1", "mg2", "mg_two_sided", "mg4_student_t", "jarque_bera"]
    )
    def test_batch_equals_run_test_at_constructed_ties(self, kind, ulps, monkeypatch):
        rng = RngStream(90)
        rows = _simulate([_sample_job(self.DATA, self.N, self.R, rng, lambda block: block)])[0]
        batch = (
            testing._jb_values(rows) if kind == "jarque_bera" else modified_greenwood_batch(rows)
        )
        scalar = np.array([
            testing._jb_values(row[None, :])[0] if kind == "jarque_bera" else modified_greenwood(row).s_n
            for row in rows
        ])
        # thresholds sit on (or an ulp beside) the scalar value of rows whose
        # batch value differs, so a decision on batch values alone goes wrong
        differ = np.flatnonzero(batch != scalar)
        lo, hi = (differ[:2] if differ.size >= 2 else (0, 1))
        at = scalar[[lo, hi]]
        lower, upper = sorted(at if ulps == 0 else np.nextafter(at, ulps * np.inf))
        spec = _tie_spec(kind, self.N, lower, upper, monkeypatch)

        expected = [run_test(spec, row).reject for row in rows]
        got = reject_rows(spec, rows)
        assert got.tolist() == expected
        rates = _rejection_rates(spec, [(self.DATA, [self.N], rng)], self.R)
        assert rates == [sum(expected) / self.R]

    def test_refused_rows_raise_as_run_test_does(self, monkeypatch):
        table = QuantileTable(
            {},
            [{"family": "gpd", "params": {"gamma": 0.5, "delta": 1.0}, "n": 10,
              "c": 0.05, "side": "lower", "value": 0.2}],
        )
        with pytest.raises(ValueError, match="nonnegative"):
            _rejection_rates(
                TestSpec("mg3_gpd", 0.05, table), [(Stable(1.5, 1.0), [10], RngStream(91))], 200
            )
        spec = _tie_spec("jarque_bera", 5, 0.0, 1.0, monkeypatch)
        with pytest.raises(ValueError, match="at least 8"):
            _rejection_rates(spec, [(Gaussian(0.0, 1.0), [5], RngStream(92))], 200)


class TestThreadedStudies:
    """Studies decide blocks on several threads; no output depends on how many."""

    CPU_COUNTS = (1, 2, 3, 4)  # serial, then 1, 2 and 3 helper threads

    @pytest.mark.parametrize("kind", ["mg2", "jarque_bera"])
    def test_exports_are_identical_for_any_helper_count(
        self, quick_gaussian_table, set_cpus, monkeypatch, tmp_path, kind
    ):
        # Jarque-Bera at a level baselines.json does not hold, so that its
        # thresholds are simulated, on the helper threads under test
        if kind == "mg2":
            spec = TestSpec(kind, 0.05, quick_gaussian_table)
        else:
            spec = TestSpec(kind, 0.07)
        # n = 50 gives 5 blocks of 1310 rows per grid point
        cfg = PowerStudyConfig(spec, "stable", (1.5, 2.0), (10, 50), 6000, 4242)
        files = []
        for k in self.CPU_COUNTS:
            set_cpus(k)
            monkeypatch.setattr(testing, "_baseline_cache", {})
            path = tmp_path / f"{k}.csv"
            export_curve(run_power_study(cfg), path)
            files.append((path.read_bytes(), (tmp_path / f"{k}.csv.json").read_bytes()))
        assert files[1:] == files[:1] * 3

    def test_size_check_is_identical_for_any_helper_count(self, quick_gaussian_table, set_cpus):
        rates = []
        for k in self.CPU_COUNTS:
            set_cpus(k)
            rates.append(size_check(mg2_spec(quick_gaussian_table), 50, 6000, RngStream(560)))
        assert rates[1:] == rates[:1] * 3

    def test_study_equals_run_test_on_row_prefixes(self, quick_gaussian_table, set_cpus):
        # grid parameter i draws block b of rows of the largest n from substream
        # i * GROUP_STRIDE + b, and decides each n on the rows' first n values
        spec = mg2_spec(quick_gaussian_table)
        grid, sizes, reps = (1.5, 1.8, 2.0), (10, 50), 1500  # blocks of 1310 and 190 rows
        set_cpus(3)
        curve = run_power_study(PowerStudyConfig(spec, "stable", grid, sizes, reps, 4243))
        set_cpus(1)
        per = BLOCK_VALUES // max(sizes)
        rates = []
        for i, param in enumerate(grid):
            rows = np.concatenate([
                sample(
                    data_spec("stable", param),
                    (min(per, reps - b * per), max(sizes)),
                    RngStream(4243).substream(i * GROUP_STRIDE + b),
                )
                for b in range(-(-reps // per))
            ])
            for n in sizes:
                rates.append(sum(run_test(spec, row[:n]).reject for row in rows) / reps)
        assert [pt.rejection_rate for pt in curve.points] == rates

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_refused_rows_raise_from_any_thread(self, set_cpus, cpus):
        table = QuantileTable(
            {},
            [{"family": "gpd", "params": {"gamma": 0.5, "delta": 1.0}, "n": 50,
              "c": 0.05, "side": "lower", "value": 0.2}],
        )
        set_cpus(cpus)
        with pytest.raises(ValueError, match="nonnegative"):
            _rejection_rates(
                TestSpec("mg3_gpd", 0.05, table), [(Stable(1.5, 1.0), [50], RngStream(93))], 6000
            )


class TestSerialization:
    def _curve(self, table, seed=777):
        cfg = PowerStudyConfig(
            mg2_spec(table), "student_t", (2.0, math.inf), (10,), 100, seed
        )
        return run_power_study(cfg)

    def test_round_trip(self, quick_gaussian_table, tmp_path):
        curve = self._curve(quick_gaussian_table)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, "\n", *rows, "\n"]))  # blank rows are skipped
        loaded = import_curve(path)
        assert loaded.points == curve.points
        assert loaded.config == curve.config
        assert loaded.config["rng_layout"] == 6

    def test_exports_are_byte_identical(self, quick_gaussian_table, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_curve(self._curve(quick_gaussian_table), a)
        export_curve(self._curve(quick_gaussian_table), b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()

    @pytest.mark.parametrize("kind", testing.BASELINE_KINDS)
    def test_baseline_sidecar_records_no_null(self, kind):
        # a baseline records none whether or not the caller names its own null
        for null in (None, testing.GAUSSIAN_NULL):
            cfg = PowerStudyConfig(TestSpec(kind, null_spec=null), "stable", (1.5,), (10,), 100, 1)
            assert cfg.to_json_dict()["null"] is None

    def test_missing_sidecar_yields_empty_config(self, quick_gaussian_table, tmp_path):
        curve = self._curve(quick_gaussian_table)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        (tmp_path / "curve.csv.json").unlink()
        loaded = import_curve(path)
        assert loaded.points == curve.points
        assert loaded.config == {}

    def test_a_deeply_nested_sidecar_is_a_value_error(self, quick_gaussian_table, tmp_path):
        path = tmp_path / "curve.csv"
        export_curve(self._curve(quick_gaussian_table), path)
        (tmp_path / "curve.csv.json").write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ValueError, match="JSON nested too deeply to decode"):
            import_curve(path)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            import_curve(path)
