"""Tests for the hypothesis-test engine and the two baselines.

Rejection geometry is pinned with tiny hand-built tables whose thresholds are
binary-exact, so tie behaviour can be asserted with == comparisons.
"""

import numpy as np
import pytest
from scipy import stats

from greenwood.critical import QuantileTable, TableCoverageError
from greenwood.distributions import Stable
from greenwood.rng import RngStream
from greenwood.testing import (
    TestSpec,
    jarque_bera_test,
    ks_distance,
    ks_normality_test,
    mg_gaussianity_test,
    mg_infinite_variance_test_gpd,
    mg_infinite_variance_test_t,
    mg_two_sided_test,
    run_test,
    thresholds_for,
)

GAUSS_PARAMS = {"mu": 0.0, "sigma2": 1.0}


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
        out = mg_gaussianity_test(TIE_SAMPLE, 0.05, table, side="upper")
        assert out.kind == "mg2"
        assert out.statistic == 0.375
        assert out.thresholds == (0.375,)
        assert out.reject
        # strictly below the threshold: five equal magnitudes give S = 1/5
        calm = mg_gaussianity_test([1.0, -1.0, 1.0, 1.0, -1.0], 0.05, table, side="upper")
        assert not calm.reject

    def test_lower_tail_rejects_small_and_ties(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "lower", 0.375)])
        out = mg_gaussianity_test(TIE_SAMPLE, 0.05, table, side="lower")
        assert out.kind == "mg1"
        assert out.reject
        spike = mg_gaussianity_test([0.0, 0.0, 0.0, 0.0, 3.0], 0.05, table, side="lower")
        assert spike.statistic == 1.0
        assert not spike.reject

    def test_gpd_variant_rejects_downward(self):
        table = synthetic_table(
            [("gpd", {"gamma": 0.5, "delta": 1.0}, 4, 0.05, "lower", 0.25)]
        )
        out = mg_infinite_variance_test_gpd([2.0, 2.0, 2.0, 2.0], 0.05, table)
        assert out.kind == "mg3_gpd"
        assert out.statistic == 0.25  # equal magnitudes -> 1/n, tie rejects
        assert out.reject
        assert not mg_infinite_variance_test_gpd([8.0, 1.0, 1.0, 1.0], 0.05, table).reject

    def test_gpd_variant_refuses_negative_data(self):
        table = synthetic_table(
            [("gpd", {"gamma": 0.5, "delta": 1.0}, 4, 0.05, "lower", 0.25)]
        )
        with pytest.raises(ValueError, match="nonnegative"):
            mg_infinite_variance_test_gpd([1.0, -1.0, 2.0, 3.0], 0.05, table)

    def test_student_variant_accepts_signed_data(self):
        table = synthetic_table([("student_t", {"nu": 2.0}, 5, 0.05, "lower", 0.375)])
        out = mg_infinite_variance_test_t(TIE_SAMPLE, 0.05, table)
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
        low = mg_two_sided_test([1.0, -1.0, 2.0], null, 0.05, table)
        assert low.thresholds == (0.375, 0.8)
        assert low.statistic == 0.375 and low.reject  # tie on the lower edge
        mid = mg_two_sided_test([1.0, 1.0, 0.0], null, 0.05, table)
        assert mid.statistic == 0.5 and not mid.reject
        high = mg_two_sided_test([0.0, 0.0, 5.0], null, 0.05, table)
        assert high.statistic == 1.0 and high.reject

    def test_decisions_are_scale_invariant(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        x = np.array(TIE_SAMPLE)
        for c in (1024.0, 2.0**-30):
            a = mg_gaussianity_test(x, 0.05, table, side="upper")
            b = mg_gaussianity_test(c * x, 0.05, table, side="upper")
            assert a.reject == b.reject
            assert a.statistic == b.statistic

    def test_missing_entry_raises_coverage_error(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        with pytest.raises(TableCoverageError, match="n=7"):
            mg_gaussianity_test([1.0] * 7, 0.05, table, side="upper")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown test kind"):
            TestSpec(kind="mg9")

    def test_level_range(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        with pytest.raises(ValueError, match="c must lie"):
            TestSpec(kind="mg2", c=0.6, table=table)
        # the public functions check the level the same way, before any lookup
        # or simulation: no coverage error, no quantile outside [0, 1]
        x = RngStream(80).generator().standard_normal(50)
        null = Stable(1.5, 1.0)
        calls = [
            lambda c: mg_gaussianity_test(x, c, table, side="upper"),
            lambda c: mg_infinite_variance_test_gpd(np.abs(x), c, table),
            lambda c: mg_infinite_variance_test_t(x, c, table),
            lambda c: mg_two_sided_test(x, null, c, table),
            lambda c: jarque_bera_test(x, c),
            lambda c: ks_normality_test(x, c),
        ]
        for call in calls:
            for c in (0.0, 0.6, 1.5):
                with pytest.raises(ValueError, match="c must lie"):
                    call(c)

    def test_mg_kinds_require_table(self):
        with pytest.raises(ValueError, match="requires a quantile table"):
            TestSpec(kind="mg2")
        with pytest.raises(ValueError, match="requires a quantile table"):
            mg_gaussianity_test(TIE_SAMPLE, 0.05, None)

    def test_two_sided_requires_null_spec(self):
        table = synthetic_table([("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375)])
        with pytest.raises(ValueError, match="requires a null spec"):
            TestSpec(kind="mg_two_sided", table=table)
        with pytest.raises(ValueError, match="requires a null spec"):
            mg_two_sided_test(TIE_SAMPLE, None, 0.05, table)


class TestDispatch:
    def test_run_test_matches_direct_calls(self):
        params = {"alpha": 1.5, "sigma": 1.0}
        table = synthetic_table(
            [
                ("gaussian", GAUSS_PARAMS, 5, 0.05, "upper", 0.375),
                ("gaussian", GAUSS_PARAMS, 5, 0.05, "lower", 0.2),
                ("gpd", {"gamma": 0.5, "delta": 1.0}, 5, 0.05, "lower", 0.3),
                ("student_t", {"nu": 2.0}, 5, 0.05, "lower", 0.3),
                ("stable", params, 5, 0.025, "lower", 0.25),
                ("stable", params, 5, 0.025, "upper", 0.9),
            ]
        )
        x = [0.5, 1.5, -2.0, 0.25, 1.0]
        pos = [abs(v) for v in x]
        null = Stable(1.5, 1.0)
        pairs = [
            (TestSpec("mg2", 0.05, table), mg_gaussianity_test(x, 0.05, table, "upper"), x),
            (TestSpec("mg1", 0.05, table), mg_gaussianity_test(x, 0.05, table, "lower"), x),
            (
                TestSpec("mg3_gpd", 0.05, table),
                mg_infinite_variance_test_gpd(pos, 0.05, table),
                pos,
            ),
            (
                TestSpec("mg4_student_t", 0.05, table),
                mg_infinite_variance_test_t(x, 0.05, table),
                x,
            ),
            (
                TestSpec("mg_two_sided", 0.05, table, null_spec=null),
                mg_two_sided_test(x, null, 0.05, table),
                x,
            ),
        ]
        for spec, direct, data in pairs:
            assert run_test(spec, data) == direct

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
        ours = jarque_bera_test(x).statistic
        ref = stats.jarque_bera(x).statistic
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_ks_statistic_matches_reference(self):
        x = RngStream(78).generator().standard_normal(40)
        ours = ks_normality_test(x).statistic
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
        jb = sum(jarque_bera_test(row).reject for row in x) / 2000.0
        ks = sum(ks_normality_test(row).reject for row in x) / 2000.0
        assert abs(jb - 0.05) < 0.02
        assert abs(ks - 0.05) < 0.02

    def test_baseline_thresholds_deterministic(self):
        a = jarque_bera_test(np.arange(1.0, 13.0) ** 1.5)
        b = jarque_bera_test(np.arange(1.0, 13.0) ** 1.5)
        assert a.thresholds == b.thresholds

    def test_baseline_validation(self):
        with pytest.raises(ValueError, match="at least 8"):
            jarque_bera_test([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="degenerate"):
            ks_normality_test([2.0] * 12)
        with pytest.raises(ValueError, match="NaN or infinite"):
            jarque_bera_test([np.nan] + [1.0] * 11)

    def test_heavy_tails_trip_all_three_tests(self, quick_gaussian_table):
        x = RngStream(79).generator().standard_cauchy(50)
        mg = mg_gaussianity_test(x, 0.05, quick_gaussian_table, side="upper")
        assert mg.reject
        assert jarque_bera_test(x).reject
        assert ks_normality_test(x).reject
