import math

import numpy as np
import pytest

from greenwood.rng import RngStream
from greenwood.statistic import (
    StatisticValue,
    classical_greenwood,
    modified_greenwood,
    modified_greenwood_batch,
    normalized_statistic,
    normalized_statistic_batch,
)


class TestHandValues:
    def test_mixed_sign_example(self):
        # (1 + 1 + 4) / (1 + 1 + 2)**2 = 6/16
        assert modified_greenwood([1.0, -1.0, 2.0]).s_n == 0.375

    def test_two_values(self):
        assert modified_greenwood([3.0, 4.0]).s_n == 25.0 / 49.0

    def test_constant_sample_hits_lower_bound(self):
        for n in (2, 3, 7, 100):
            stat = modified_greenwood(np.full(n, 2.5))
            assert stat.s_n == 1.0 / n
            assert stat.n == n

    def test_single_spike_hits_upper_bound(self):
        x = np.zeros(50)
        x[17] = -5.0
        assert modified_greenwood(x).s_n == 1.0

    def test_reports_sample_size(self):
        assert modified_greenwood([1.0, 2.0, 3.0, 4.0]).n == 4


class TestInvariances:
    def test_permutation_invariance_exact(self):
        g = RngStream(301).generator()
        for _ in range(200):
            n = int(g.integers(2, 40))
            x = g.standard_normal(n) * 10.0 ** g.integers(-3, 4)
            s = modified_greenwood(x).s_n
            assert modified_greenwood(x[g.permutation(n)]).s_n == s

    def test_sign_invariance_exact(self):
        g = RngStream(302).generator()
        for _ in range(200):
            n = int(g.integers(2, 40))
            x = g.standard_normal(n)
            signs = g.choice([-1.0, 1.0], size=n)
            assert modified_greenwood(x * signs).s_n == modified_greenwood(x).s_n

    def test_scale_invariance_within_ulps(self):
        g = RngStream(303).generator()
        for _ in range(200):
            n = int(g.integers(2, 40))
            x = g.standard_normal(n)
            k = math.exp(g.uniform(-8, 8))
            s0 = modified_greenwood(x).s_n
            s1 = modified_greenwood(k * x).s_n
            assert abs(s1 - s0) <= 4 * math.ulp(s0)

    def test_power_of_two_scaling_is_exact(self):
        x = np.array([0.3, -1.7, 2.2, 0.9])
        assert modified_greenwood(x * 8.0).s_n == modified_greenwood(x).s_n

    def test_bounds_hold_on_random_samples(self):
        g = RngStream(304).generator()
        for _ in range(500):
            n = int(g.integers(2, 60))
            x = g.standard_cauchy(n)  # heavy draws stress the upper end
            s = modified_greenwood(x).s_n
            assert 1.0 / n <= s <= 1.0


class TestBatch:
    def test_matches_scalar_path(self):
        g = RngStream(305).generator()
        x = g.standard_normal((64, 37))
        batch = modified_greenwood_batch(x)
        scalar = np.array([modified_greenwood(row).s_n for row in x])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_input_is_kept_unless_handed_over(self):
        x = RngStream(306).generator().standard_cauchy((65, 1001))
        before = x.copy()
        s = modified_greenwood_batch(x)
        assert x.tobytes() == before.tobytes()
        # handing the array over changes the scratch space, not the result
        assert modified_greenwood_batch(x, overwrite_input=True).tobytes() == s.tobytes()

    def test_clamped_into_range(self):
        rows = np.vstack([np.full(9, 1.0), np.eye(9)[0] * 3.0])
        out = modified_greenwood_batch(rows)
        assert out[0] == 1.0 / 9.0
        assert out[1] == 1.0
        assert ((1.0 / 9.0 <= out) & (out <= 1.0)).all()

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            modified_greenwood_batch(np.zeros(5))
        with pytest.raises(ValueError):
            modified_greenwood_batch(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            modified_greenwood_batch(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            modified_greenwood_batch(np.array([[1.0, 2.0], [0.0, 0.0]]))


class TestClassical:
    def test_equals_modified_on_positive_samples(self):
        g = RngStream(306).generator()
        for _ in range(50):
            x = g.random(12) + 0.01
            assert classical_greenwood(x) == modified_greenwood(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classical_greenwood([1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            classical_greenwood([1.0, -2.0])


class TestNormalized:
    def test_center_value(self):
        # s = 2/n makes the centered term vanish
        assert normalized_statistic(StatisticValue(0.5, 4)) == 0.0

    def test_hand_value(self):
        got = normalized_statistic(StatisticValue(0.0175, 100))
        assert math.isclose(got, -1.25, rel_tol=1e-12)

    def test_batch_agrees_with_scalar(self):
        vals = np.array([0.011, 0.02, 0.3])
        batch = normalized_statistic_batch(vals, 100)
        scalar = [normalized_statistic(StatisticValue(v, 100)) for v in vals]
        np.testing.assert_allclose(batch, scalar, rtol=1e-15)


class TestValidation:
    def test_too_short(self):
        with pytest.raises(ValueError):
            modified_greenwood([1.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            modified_greenwood([1.0, math.nan])
        with pytest.raises(ValueError):
            modified_greenwood([1.0, math.inf])

    def test_all_zero(self):
        with pytest.raises(ValueError):
            modified_greenwood([0.0, 0.0, 0.0])

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            modified_greenwood(np.ones((3, 3)))

    def test_statistic_value_invariant(self):
        with pytest.raises(ValueError):
            StatisticValue(0.05, 10)  # below 1/n
        with pytest.raises(ValueError):
            StatisticValue(1.1, 10)
        with pytest.raises(ValueError):
            StatisticValue(0.5, 1)
