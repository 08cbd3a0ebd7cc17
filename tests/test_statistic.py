import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenwood.rng import RngStream
from greenwood.statistic import (
    StatisticValue,
    _modified_greenwood_rows,
    modified_greenwood,
    modified_greenwood_batch,
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


class TestPrefixes:
    """``sizes``: one column per prefix length, from segment sums added up."""

    SIZES = (10, 50, 100, 200, 500, 1000)

    def test_one_size_is_the_plain_batch_bit_for_bit(self):
        for shape in ((65, 1000), (6553, 10), (3, 2)):
            x = RngStream(308).generator().standard_cauchy(shape)
            x[0] *= 2.0**-540  # a scaled row among clean ones
            plain = modified_greenwood_batch(x)
            prefixed = modified_greenwood_batch(x.copy(), True, sizes=[shape[1]])
            assert prefixed.shape == (shape[0], 1)
            assert prefixed[:, 0].tobytes() == plain.tobytes()

    def test_each_column_is_its_prefixs_statistic_within_a_few_ulps(self):
        x = RngStream(309).generator().standard_cauchy((65, 1000))
        out = modified_greenwood_batch(x, sizes=self.SIZES)
        assert out.shape == (65, len(self.SIZES))
        exact = np.array([[modified_greenwood(row[:n]).s_n for n in self.SIZES] for row in x])
        assert (np.abs(out - exact) <= 8 * np.spacing(exact)).all()

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**495])
    def test_a_prefix_out_of_range_is_computed_again_from_its_own_values(self, scale):
        # row 1's first prefix lies below 2**-500 while its longer ones are in
        # range, or every prefix of row 1 lies near 2**495, too large to sum
        x = RngStream(310).generator().standard_normal((3, 1000))
        x[1, :10] *= scale
        x[1, 10:] *= 2.0**-600 if scale > 1 else 1.0
        out = modified_greenwood_batch(x.copy(), sizes=self.SIZES)
        exact = np.array([[modified_greenwood(row[:n]).s_n for n in self.SIZES] for row in x])
        assert (np.abs(out - exact) <= 8 * np.spacing(exact)).all()

    def test_a_zero_prefix_is_the_batch_error(self):
        x = RngStream(311).generator().standard_normal((4, 100))
        x[2, :10] = 0.0
        modified_greenwood_batch(x)  # whole rows hold nonzero values
        with pytest.raises(ValueError, match="^every sample must contain at least one nonzero"):
            modified_greenwood_batch(x, sizes=(10, 100))

    @pytest.mark.parametrize(
        "sizes, message",
        [((), "sizes must"), ((10, 10), "sizes must"), ((50, 10), "sizes must"),
         ((10, 101), "sizes must"), ((1, 10), "size must"), ((10.5,), "size must"),
         (("10",), "size must"), ((math.nan,), "size must")],
    )
    def test_sizes_must_ascend_inside_the_row(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            modified_greenwood_batch(np.ones((2, 100)), sizes=sizes)


# The sums of these samples leave the float range unless they are scaled:
# squares overflow, the sum overflows, or the squares underflow to zero.
OUT_OF_RANGE = [
    ([1e200, 1.0, 2.0], 1.0),
    ([1e308, 1e308, 1.0], 0.5),
    ([1e-200, 1e-200, 3e-200], 0.44),
    # the squares fit, their sum's square does not
    ([1e153] * 19 + [1e154], (19 + 10**2) / 29**2),
]


class TestRange:
    @pytest.mark.parametrize("sample, expected", OUT_OF_RANGE)
    def test_every_path_scales_into_range(self, sample, expected):
        rows = np.array([sample, sample])
        assert modified_greenwood(sample).s_n == pytest.approx(expected, rel=1e-14)
        assert modified_greenwood_batch(rows) == pytest.approx(expected, rel=1e-14)
        assert _modified_greenwood_rows(rows) == pytest.approx(expected, rel=1e-14)

    def test_scaling_keeps_a_row_among_clean_ones(self):
        x = RngStream(307).generator().standard_normal((5, 3))
        clean = modified_greenwood_batch(x)
        x[2] = [1e200, 1.0, 2.0]
        out = modified_greenwood_batch(x)
        assert out[2] == pytest.approx(1.0, rel=1e-14)
        assert np.delete(out, 2).tobytes() == np.delete(clean, 2).tobytes()


# magnitudes across the whole float range, subnormals, zeros, and small
# integers, whose sums fall on exact ties
_VALUES = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(0.0, 2.2250738585072014e-308),
    st.integers(0, 8).map(float),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
)


@st.composite
def _adversarial_rows(draw):
    n = draw(st.sampled_from([2, 3]) | st.integers(2, 70))
    m = draw(st.integers(2, 5))  # one row takes the scalar path itself
    style = draw(st.sampled_from(["any", "ties", "constant", "gaussian"]))
    if style == "any":
        x = np.array(draw(st.lists(_VALUES, min_size=m * n, max_size=m * n)))
    elif style == "ties":  # small integers times one power of two
        ints = draw(st.lists(st.integers(0, 8), min_size=m * n, max_size=m * n))
        x = np.ldexp(np.array(ints, dtype=np.float64), draw(st.integers(-1070, 1015)))
    elif style == "constant":
        x = np.full(m * n, draw(_VALUES))
    else:
        x = RngStream(draw(st.integers(0, 2**32))).generator().standard_normal(m * n)
        x *= draw(_VALUES)
    x = x.reshape(m, n)
    x[~(x != 0.0).any(axis=1), 0] = 1.0
    signs = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    return np.where(np.reshape(signs, (m, n)), -x, x)


class TestExactRows:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_adversarial_rows())
    # err rounds away the 2**-110 that lifts these sums (of |x|, of the
    # squares) above a tie, so the cascade alone rounds them down; two rows,
    # since a lone row skips the cascade
    @example(np.array([[1.5, 2.0**-53, 2.0**-110]] * 2))
    @example(np.array([[1.0, 2.0**-27, 2.0**-27, 2.0**-55]] * 2))
    def test_equals_the_scalar_path_bit_for_bit(self, x):
        before = x.tobytes()
        scalar = np.array([modified_greenwood(row).s_n for row in x])
        assert _modified_greenwood_rows(x).tobytes() == scalar.tobytes()
        assert x.tobytes() == before

    def test_certifies_typical_rows_without_the_scalar_path(self, monkeypatch):
        import greenwood.statistic as statistic

        def refuse(values):
            raise AssertionError("scalar fallback")

        x = RngStream(308).generator().standard_cauchy((200, 1000))
        scalar = np.array([modified_greenwood(row).s_n for row in x])
        monkeypatch.setattr(statistic, "modified_greenwood", refuse)
        assert _modified_greenwood_rows(x).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_one_row_is_the_scalar_value_without_the_cascade(self, monkeypatch, n):
        import greenwood.statistic as statistic

        def refuse(a):
            raise AssertionError("column cascade")

        monkeypatch.setattr(statistic, "_two_sum_columns", refuse)
        for seed in range(20):
            x = RngStream(309, seed).generator().standard_cauchy((1, n))
            expected = np.array([modified_greenwood(x[0]).s_n])
            assert _modified_greenwood_rows(x).tobytes() == expected.tobytes()


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
