"""Tests for the hypothesis-test engine and the two baselines.

Rejection geometry is pinned with tiny hand-built tables whose thresholds are
binary-exact, so tie behaviour can be asserted with == comparisons.
"""

import json
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy import special, stats

from greenwood import power, testing
from greenwood.critical import (
    ESTIMATOR_ID,
    RNG_LAYOUT,
    QuantileTable,
    TableCoverageError,
    _simulate,
    empirical_quantile,
)
from greenwood.distributions import Stable
from greenwood.rng import RngStream
from greenwood.power import size_check
from greenwood.testing import (
    BASELINE_KINDS,
    BASELINE_MIN_N,
    MG_KINDS,
    TestSpec,
    ks_distance,
    reject_rows,
    run_test,
    thresholds_for,
)

GAUSS_PARAMS = {"mu": 0.0, "sigma2": 1.0}
JB = TestSpec("jarque_bera")
KS = TestSpec("ks_normality")


def synthetic_table(entries):
    records = [
        {"family": fam, "params": params, "n": n, "c": c, "side": side, "value": value}
        for fam, params, n, c, side, value in entries
    ]
    return QuantileTable({"M": 0, "note": "hand-built"}, records)


# S_n([1, -1, 2, 0, 0]) = 6/16 = 0.375 exactly, so a table value of 0.375
# sits exactly on the statistic and exercises the tie path
TIE_SAMPLE = [1.0, -1.0, 2.0, 0.0, 0.0]


class TestRejectionGeometry:
    def test_upper_tail_rejects_large_and_ties(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        out = run_test(TestSpec("mg2", 0.05, table), TIE_SAMPLE)
        assert out.kind == "mg2"
        assert out.statistic == 0.375
        assert out.thresholds == (0.375,)
        assert out.reject
        # strictly below the threshold: five equal magnitudes give S = 1/5
        calm = run_test(TestSpec("mg2", 0.05, table), [1.0, -1.0, 1.0, 1.0, -1.0])
        assert not calm.reject

    def test_lower_tail_rejects_small_and_ties(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "lower", 0.375)])
        out = run_test(TestSpec("mg1", 0.05, table), TIE_SAMPLE)
        assert out.kind == "mg1"
        assert out.reject
        spike = run_test(TestSpec("mg1", 0.05, table), [0.0, 0.0, 0.0, 0.0, 3.0])
        assert spike.statistic == 1.0
        assert not spike.reject

    def test_gpd_variant_rejects_downward(self):
        table = synthetic_table(
            [("gpd", {"gamma": 0.5, "delta": 1.0}, 4, 0.05, "lower", 0.25)]
        )
        out = run_test(TestSpec("mg3_gpd", 0.05, table), [2.0, 2.0, 2.0, 2.0])
        assert out.kind == "mg3_gpd"
        assert out.statistic == 0.25  # equal magnitudes -> 1/n, tie rejects
        assert out.reject
        assert not run_test(TestSpec("mg3_gpd", 0.05, table), [8.0, 1.0, 1.0, 1.0]).reject

    def test_gpd_variant_refuses_negative_data(self):
        table = synthetic_table(
            [("gpd", {"gamma": 0.5, "delta": 1.0}, 4, 0.05, "lower", 0.25)]
        )
        with pytest.raises(ValueError, match="nonnegative"):
            run_test(TestSpec("mg3_gpd", 0.05, table), [1.0, -1.0, 2.0, 3.0])

    def test_student_variant_accepts_signed_data(self):
        table = synthetic_table([("student_t", {"nu": 2.0}, 5, 0.05, "lower", 0.375)])
        out = run_test(TestSpec("mg4_student_t", 0.05, table), TIE_SAMPLE)
        assert out.kind == "mg4_student_t"
        assert out.reject

    def test_two_sided_geometry(self):
        null = Stable(1.5, 1.0)
        params = {"alpha": 1.5, "sigma": 1.0}
        table = synthetic_table(
            [
                ("stable", params, 3, 0.025, "lower", 0.375),
                ("stable", params, 3, 0.025, "upper", 0.8),
            ]
        )
        low = run_test(TestSpec("mg_two_sided", 0.05, table, null), [1.0, -1.0, 2.0])
        assert low.thresholds == (0.375, 0.8)
        assert low.statistic == 0.375 and low.reject  # tie on the lower edge
        mid = run_test(TestSpec("mg_two_sided", 0.05, table, null), [1.0, 1.0, 0.0])
        assert mid.statistic == 0.5 and not mid.reject
        high = run_test(TestSpec("mg_two_sided", 0.05, table, null), [0.0, 0.0, 5.0])
        assert high.statistic == 1.0 and high.reject

    def test_decisions_are_scale_invariant(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        x = np.array(TIE_SAMPLE)
        for c in (1024.0, 2.0**-30):
            a = run_test(TestSpec("mg2", 0.05, table), x)
            b = run_test(TestSpec("mg2", 0.05, table), c * x)
            assert a.reject == b.reject
            assert a.statistic == b.statistic

    def test_missing_entry_raises_coverage_error(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        with pytest.raises(TableCoverageError, match="n=7"):
            run_test(TestSpec("mg2", 0.05, table), [1.0] * 7)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown test kind"):
            TestSpec(kind="mg9")

    def test_level_range(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        with pytest.raises(ValueError, match="c must lie"):
            TestSpec(kind="mg2", c=0.6, table=table)
        # every kind checks the level the same way, before any lookup or
        # simulation: no coverage error, no quantile outside [0, 1]
        null = Stable(1.5, 1.0)
        for kind in MG_KINDS + BASELINE_KINDS:
            for c in (0.0, 0.6, 1.5):
                with pytest.raises(ValueError, match="c must lie"):
                    TestSpec(kind, c, table, null if kind == "mg_two_sided" else None)

    def test_spec_holds_its_kinds_null(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        assert TestSpec("mg2", 0.05, table).null_spec == testing.GAUSSIAN_NULL
        assert TestSpec("mg2", 0.05, table) == TestSpec(
            "mg2", 0.05, table, null_spec=testing.GAUSSIAN_NULL
        )
        fixed = {
            "mg1": testing.GAUSSIAN_NULL,
            "mg3_gpd": testing.GPD_BOUNDARY,
            "mg4_student_t": testing.STUDENT_T_BOUNDARY,
            "jarque_bera": testing.GAUSSIAN_NULL,
            "ks_normality": testing.GAUSSIAN_NULL,
        }
        for kind, null in fixed.items():
            assert TestSpec(kind, 0.05, table).null_spec == null
        two_sided = TestSpec("mg_two_sided", 0.05, table, null_spec=Stable(1.5, 1.0))
        assert two_sided.null_spec == Stable(1.5, 1.0)

    def test_mg_kinds_require_table(self):
        with pytest.raises(ValueError, match="requires a quantile table"):
            TestSpec(kind="mg2")

    def test_two_sided_requires_null_spec(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        with pytest.raises(ValueError, match="requires a null spec"):
            TestSpec(kind="mg_two_sided", table=table)

    def test_fixed_null_kinds_refuse_another_null(self):
        # thresholds come from the kind's own null, so a different one would
        # be recorded (in a power sidecar, say) without ever being used
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        for kind in ("mg2", "mg3_gpd", "jarque_bera"):
            with pytest.raises(ValueError, match="calibrated under"):
                TestSpec(kind, 0.05, table, null_spec=Stable(1.5, 1.0))
        for kind in MG_KINDS[:4] + BASELINE_KINDS:  # every kind but mg_two_sided
            null = TestSpec(kind, 0.05, table).null_spec
            assert TestSpec(kind, 0.05, table, null_spec=null).null_spec == null


class TestDispatch:
    def test_thresholds_for_reports_lookup_values(self):
        params = {"alpha": 1.5, "sigma": 1.0}
        table = synthetic_table(
            [
                ("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375),
                ("stable", params, 5, 0.025, "lower", 0.25),
                ("stable", params, 5, 0.025, "upper", 0.9),
            ]
        )
        assert thresholds_for(TestSpec("mg2", 0.05, table), 5) == (0.375,)
        two = TestSpec("mg_two_sided", 0.05, table, null_spec=Stable(1.5, 1.0))
        assert thresholds_for(two, 5) == (0.25, 0.9)

    def test_sample_size_must_be_an_integer(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 10, 0.05, "upper", 0.375)])
        for spec in (TestSpec("mg2", 0.05, table), TestSpec("jarque_bera", 0.05)):
            with pytest.raises(ValueError, match="n must be an integer, got 10.5"):
                thresholds_for(spec, 10.5)
        with pytest.raises(ValueError, match="n must be an integer"):
            table.value_for(testing.GAUSSIAN_NULL, 10.5, 0.05, "upper")
        assert thresholds_for(TestSpec("mg2", 0.05, table), 10.0) == (0.375,)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_a_baseline_refuses_a_short_n_before_any_simulation(self, kind, monkeypatch):
        runs = []
        simulate = testing._simulate

        def counted(jobs, *rest):
            runs.append(len(jobs))
            return simulate(jobs, *rest)

        for module in (testing, power):
            monkeypatch.setattr(module, "_simulate", counted)
        monkeypatch.setattr(testing, "_baseline_cache", {})  # no cached threshold to read
        spec = TestSpec(kind)
        message = f"^baseline tests need at least {BASELINE_MIN_N} observations$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1, 2, BASELINE_MIN_N - 1):
                with pytest.raises(ValueError, match=message):
                    thresholds_for(spec, n)
            with pytest.raises(ValueError, match=message):
                size_check(spec, 5, 200, RngStream(7))
        assert runs == []

    @pytest.mark.parametrize("kind", ["mg2", "jarque_bera"])
    @pytest.mark.parametrize("rows", [np.ones(10), np.ones((2, 5, 10)), 1.0])
    def test_reject_rows_takes_a_2d_block_only(self, kind, rows):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 10, 0.05, "upper", 0.375)])
        with pytest.raises(ValueError, match="^rows must be a 2-D array, one sample per row$"):
            reject_rows(TestSpec(kind, 0.05, table), rows)

    @pytest.mark.parametrize("kind", ["mg2", "jarque_bera"])
    def test_one_sample_is_decided_on_the_calling_thread(self, kind, monkeypatch):
        def refused(jobs, reduce=None):
            raise AssertionError("a one-sample decision ran on the engine")

        monkeypatch.setattr(testing, "_simulate", refused)
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 10, 0.05, "upper", 0.375)])
        x = RngStream(5).generator().standard_normal(10)
        outcome = run_test(TestSpec(kind, 0.05, table), x)
        assert type(outcome.statistic) is float and type(outcome.reject) is bool
        assert outcome.statistic == testing._KINDS[kind].exact(x[None, :])[0]

    def test_outcome_json_shape(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        doc = run_test(TestSpec("mg2", 0.05, table), TIE_SAMPLE).to_json_dict()
        assert doc == {
            "kind": "mg2",
            "n": 5,
            "c": 0.05,
            "statistic": 0.375,
            "thresholds": [0.375],
            "reject": True,
        }


class TestBaselines:
    def test_jb_statistic_matches_reference(self):
        x = RngStream(77).generator().standard_normal(40)
        ours = run_test(JB, x).statistic
        ref = stats.jarque_bera(x).statistic
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_ks_statistic_matches_reference(self):
        x = RngStream(78).generator().standard_normal(40)
        ours = run_test(KS, x).statistic
        ref = stats.kstest(x, "norm", args=(x.mean(), x.std(ddof=1))).statistic
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_ks_distance_hand_value(self):
        # n=3, u=(0.1, 0.4, 0.65): D+ = max(i/n - u) = 0.35, D- = max(u - (i-1)/n) = 0.1
        assert ks_distance([0.1, 0.4, 0.65]) == pytest.approx(0.35)

    def test_ks_distance_validation(self):
        with pytest.raises(ValueError):
            ks_distance([])
        with pytest.raises(ValueError):
            ks_distance([[0.1, 0.2]])

    def test_baseline_sizes_near_level(self):
        g = RngStream(4243).generator()
        x = g.standard_normal((2000, 20))
        jb = sum(run_test(JB, row).reject for row in x) / 2000.0
        ks = sum(run_test(KS, row).reject for row in x) / 2000.0
        assert abs(jb - 0.05) < 0.02
        assert abs(ks - 0.05) < 0.02

    def test_baseline_thresholds_deterministic(self):
        a = run_test(JB, np.arange(1.0, 13.0) ** 1.5)
        b = run_test(JB, np.arange(1.0, 13.0) ** 1.5)
        assert a.thresholds == b.thresholds

    def test_baseline_validation(self):
        with pytest.raises(ValueError, match="at least 8"):
            run_test(JB, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="degenerate"):
            run_test(KS, [2.0] * 12)
        with pytest.raises(ValueError, match="NaN or infinite"):
            run_test(JB, [np.nan] + [1.0] * 11)

    def test_heavy_tails_trip_all_three_tests(self, quick_gaussian_table):
        x = RngStream(79).generator().standard_cauchy(50)
        mg = run_test(TestSpec("mg2", 0.05, quick_gaussian_table), x)
        assert mg.reject
        assert run_test(JB, x).reject
        assert run_test(KS, x).reject


def _jb_reference(x):
    # the Jarque-Bera kernel as it was before it worked in place: four temporaries
    n = x.shape[1]
    d = x - x.mean(axis=1, keepdims=True)
    d2 = d * d
    m2 = np.mean(d2, axis=1)
    m3 = np.mean(d2 * d, axis=1)
    m4 = np.mean(d2 * d2, axis=1)
    skew = m3 / (m2 * np.sqrt(m2))
    kurt = m4 / (m2 * m2)
    return n * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)


def _ks_reference(x):
    # the KS kernel as it was before it worked in place
    mean = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, ddof=1, keepdims=True)
    return testing._sup_distance(special.ndtr((np.sort(x, axis=1) - mean) / sd))


class TestInPlaceKernels:
    """The baseline kernels may use their input as scratch; no value changes by a bit."""

    KERNELS = [(testing._jb_values, _jb_reference), (testing._ks_values, _ks_reference)]

    @pytest.mark.parametrize("shape", [(6553, 10), (655, 100), (65, 1000)])
    @pytest.mark.parametrize("kernel, reference", KERNELS, ids=BASELINE_KINDS)
    def test_overwrite_input_gives_the_same_bits(self, kernel, reference, shape):
        x = RngStream(80).generator().standard_t(3, shape)  # heavy rows
        before = x.tobytes()
        expected = reference(x.copy())
        assert kernel(x).tobytes() == expected.tobytes()
        assert x.tobytes() == before  # untouched without the flag
        assert kernel(x, overwrite_input=True).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_reject_rows_leaves_its_rows(self, kind, monkeypatch):
        rows = RngStream(81).generator().standard_normal((300, 20))
        # the threshold sits on row 7's value, inside the tie band, so that
        # row is decided again with the exact kernel from the rows passed in
        t = float(testing._KINDS[kind].fast(rows)[7])
        monkeypatch.setitem(testing._baseline_cache, (kind, 20, 0.05, 100000), t)
        spec = TestSpec(kind, 0.05)
        before = rows.tobytes()
        reject = reject_rows(spec, rows)
        assert rows.tobytes() == before
        assert reject[7]
        assert reject.tolist() == [run_test(spec, row).reject for row in rows]


def _into_range(x):
    """``x`` times the power of two that brings its max ``|x|`` into ``[2**9, 2**10)``."""
    return np.ldexp(x, 10 - np.frexp(np.abs(x).max())[1])


# samples whose deviations' powers, or whose sum, overflow or underflow
FAR_SAMPLES = {
    "1e200": np.linspace(1e200, 1e201, 10),
    "1e-200": np.linspace(1e-200, 1e-199, 10),
    "sum-overflows": np.linspace(-2.0, 17.0, 10) * 1e307,
    "subnormal": np.linspace(1e-320, 1e-315, 10),
}


class TestBaselinesAtAnyMagnitude:
    """Both baselines are scale-free: a sample far from 1 is decided as the same
    sample scaled into range by a power of two, to the last bit."""

    @pytest.mark.parametrize("name", FAR_SAMPLES)
    @pytest.mark.parametrize("spec", [JB, KS], ids=BASELINE_KINDS)
    def test_statistic_is_that_of_the_scaled_sample(self, spec, name):
        x = FAR_SAMPLES[name]
        out = run_test(spec, x)
        assert np.isfinite(out.statistic)
        assert out == run_test(spec, _into_range(x))

    def test_large_ks_sample_reads_its_scaled_distance(self):
        # unscaled, the standard deviation overflows, every standardized value
        # is 0 and the distance reads 0.5, which rejects
        out = run_test(KS, FAR_SAMPLES["1e200"])
        assert out.statistic == pytest.approx(0.0955, abs=1e-4)
        assert not out.reject

    @pytest.mark.parametrize("spec", [JB, KS], ids=BASELINE_KINDS)
    def test_reject_rows_on_helper_threads(self, spec, set_cpus):
        rows = np.array([_into_range(x) for x in FAR_SAMPLES.values()])
        # each block holds one sample scaled into range and the same far sample
        blocks = [np.stack([y, x]) for x, y in zip(FAR_SAMPLES.values(), rows)]
        set_cpus(3)
        decided = _simulate([(len(blocks), lambda b: reject_rows(spec, blocks[b]))])[0]
        expected = [run_test(spec, y).reject for y in rows]
        assert decided.reshape(-1, 2).tolist() == [[r, r] for r in expected]

    @pytest.mark.parametrize("value", [5e-324, 1e-310, 1e-200, 0.3, 1.0, 1e300, -1.7e308])
    @pytest.mark.parametrize("spec", [JB, KS], ids=BASELINE_KINDS)
    def test_degenerate_means_all_values_equal(self, spec, value):
        constant = np.full(10, value)  # ten 0.3s have a nonzero computed variance
        with pytest.raises(ValueError, match=r"degenerate \(all values equal\)"):
            run_test(spec, constant)
        with pytest.raises(ValueError, match="degenerate"):
            reject_rows(spec, constant[None, :])
        assert testing._refusal(spec.kind, constant[None, :])[0] == 0
        # one value a step away is a sample, decided like any other
        nearly = np.r_[constant[:9], np.nextafter(value, np.inf)]
        out = run_test(spec, nearly)
        assert np.isfinite(out.statistic)
        assert out == run_test(spec, _into_range(nearly))


def _packaged_doc() -> dict:
    """``baselines.json`` as an installed package ships it."""
    return json.loads((resources.files("greenwood") / "baselines.json").read_text("utf-8"))


class TestPackagedBaselines:
    """The shipped Jarque-Bera and KS thresholds are the ones the package simulates."""

    M = 100000

    def test_file_ships_with_the_package_and_records_how_it_was_made(self):
        doc = _packaged_doc()
        meta = doc["metadata"]
        assert meta["M"] == self.M
        assert meta["master_seed"] == testing._BASELINE_SEED
        assert meta["rng_layout"] == RNG_LAYOUT
        assert meta["estimator"] == ESTIMATOR_ID
        assert "numpy_version" in meta
        keys = {(e["params"]["statistic"], e["n"], e["c"]) for e in doc["entries"]}
        grid = {
            (kind, n, c)
            for kind in BASELINE_KINDS
            for n in testing._PACKAGED_N
            for c in testing._PACKAGED_C
        }
        assert len(doc["entries"]) == len(grid) == 808
        assert keys == grid
        assert {(e["family"], e["side"]) for e in doc["entries"]} == {("gaussian", "upper")}

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_packaged_values_are_the_simulated_bits(self, kind, monkeypatch):
        # every level of a (kind, n) is a quantile of one job's values, so
        # each job is simulated once; one level also takes the miss path
        packaged = QuantileTable.from_json_dict(_packaged_doc())
        params = {**GAUSS_PARAMS, "statistic": kind}
        for n in range(8, 13):
            values = _simulate([testing._baseline_job(kind, n, self.M)])[0]
            for c in testing._PACKAGED_C:
                expected = packaged.value("gaussian", params, n, c, "upper")
                assert empirical_quantile(values, 1.0 - c) == expected, (n, c)
        monkeypatch.setattr(testing, "_baseline_cache", {})
        monkeypatch.setattr(testing, "_packaged_table", lambda: QuantileTable({}, []))  # all miss
        expected = packaged.value("gaussian", params, 10, 0.05, "upper")
        assert testing._baseline_threshold(kind, 10, 0.05, self.M) == expected

    def test_baseline_table_rebuilds_the_file(self, monkeypatch):
        # a slice of the grid; the whole rebuild takes minutes
        monkeypatch.setattr(testing, "_PACKAGED_N", (8, 100))
        monkeypatch.setattr(testing, "_PACKAGED_C", (0.05,))
        doc = _packaged_doc()
        packaged = {(e["params"]["statistic"], e["n"], e["c"]): e for e in doc["entries"]}
        rebuilt = testing.baseline_table().to_json_dict()
        assert rebuilt["metadata"] == doc["metadata"]
        keys = [(e["params"]["statistic"], e["n"], e["c"]) for e in rebuilt["entries"]]
        assert keys == [(kind, n, 0.05) for kind in BASELINE_KINDS for n in (8, 100)]
        for key, entry in zip(keys, rebuilt["entries"]):
            assert entry == packaged[key], key
            assert entry["value"].hex() == packaged[key]["value"].hex(), key

    @pytest.mark.parametrize("n, c", [(101, 0.05), (10, 0.07)])
    def test_keys_off_the_grid_are_simulated_and_cached(self, n, c, monkeypatch):
        monkeypatch.setattr(testing, "_baseline_cache", {})
        calls = []

        def counted(jobs, reduce=None):
            calls.append(len(jobs))
            return _simulate(jobs, reduce)

        monkeypatch.setattr(testing, "_simulate", counted)
        t = testing._baseline_threshold("jarque_bera", n, c, self.M)
        assert calls == [1]
        assert testing._baseline_cache == {("jarque_bera", n, c, self.M): t}
        assert thresholds_for(TestSpec("jarque_bera", c), n) == (t,)
        assert calls == [1]

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_keys_on_the_grid_are_read_not_simulated(self, kind, monkeypatch):
        monkeypatch.setattr(testing, "_baseline_cache", {})

        def refused(jobs, reduce=None):
            raise AssertionError("a packaged threshold was simulated")

        monkeypatch.setattr(testing, "_simulate", refused)
        params = {**GAUSS_PARAMS, "statistic": kind}
        packaged = testing._packaged_table()
        for n, c in [(8, 0.01), (100, 0.1), (1000, 0.05)]:
            t = packaged.value("gaussian", params, n, c, "upper")
            assert thresholds_for(TestSpec(kind, c), n) == (t,)
        assert testing._packaged_table() is packaged  # read once
