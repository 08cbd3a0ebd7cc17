"""Sampler and distribution-function checks.

Sampling assertions use fixed seeds with tolerances set at 4-5 standard
errors from the relevant limit theorem, so they are deterministic regression
checks, not flaky statistical tests. The stable distribution function is
validated three independent ways: closed forms at alpha in {1, 2}, an
external implementation, and its own tail asymptote.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from greenwood.distributions import (
    GPD,
    Gaussian,
    Stable,
    StudentT,
    _stable_cdf_unit,
    _stable_cdf_unit_exact,
    cdf_function,
    family_tag,
    params_dict,
    quantile_function,
    sample,
    sample_gaussian,
    sample_gpd,
    sample_stable,
    sample_student_t,
    spec_from,
    stable_tail_weight,
)
from greenwood.rng import RngStream
from greenwood.testing import ks_distance

N_BIG = 100000


def _ks_to(spec, draws: np.ndarray) -> float:
    return ks_distance(cdf_function(spec, np.sort(draws)))


class TestGaussian:
    def test_moments(self):
        x = sample_gaussian(0.0, 1.0, N_BIG, RngStream(101))
        # 5 sigma: se(mean) = 1/sqrt(N), se(var) ~ sqrt(2/N)
        assert abs(x.mean()) < 0.016
        assert abs(x.var(ddof=1) - 1.0) < 0.03

    def test_location_scale(self):
        z = sample_gaussian(0.0, 1.0, 100, RngStream(5))
        y = sample_gaussian(3.0, 4.0, 100, RngStream(5))
        np.testing.assert_array_equal(y, 3.0 + 2.0 * z)

    def test_ks_distance(self):
        x = sample_gaussian(1.0, 2.0, N_BIG, RngStream(102))
        assert _ks_to(Gaussian(1.0, 2.0), x) < 0.01

    def test_determinism(self):
        a = sample_gaussian(0.0, 1.0, 50, RngStream(7, 3))
        b = sample_gaussian(0.0, 1.0, 50, RngStream(7, 3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mu, sigma2", [(0.0, 1.0), (-3.0, 2.5)])
    @pytest.mark.parametrize("shape", [1001, (301, 67)])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, mu, sigma2, shape):
        rng = RngStream(114)
        expected = mu + math.sqrt(sigma2) * rng.generator().standard_normal(shape)
        assert sample_gaussian(mu, sigma2, shape, rng).tobytes() == expected.tobytes()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(math.nan, 1.0)
        with pytest.raises(ValueError):
            sample_gaussian(0.0, -1.0, 10, RngStream(1))
        with pytest.raises(ValueError):
            sample_gaussian(0.0, 1.0, 0, RngStream(1))


class TestStable:
    def test_gaussian_corner_variance(self):
        # alpha = 2 has variance 2 * sigma**2 under this parameterization
        x = sample_stable(2.0, 1.0, N_BIG, RngStream(103))
        assert abs(x.var(ddof=1) - 2.0) < 0.05

    def test_gaussian_corner_ks(self):
        x = sample_stable(2.0, 1.0, N_BIG, RngStream(104))
        assert _ks_to(Stable(2.0, 1.0), x) < 0.01

    def test_cauchy_corner(self):
        x = sample_stable(1.0, 1.0, N_BIG, RngStream(105))
        # median se = pi / (2 sqrt(N)) ~ 0.005
        assert abs(np.median(x)) < 0.02
        assert _ks_to(Stable(1.0, 1.0), x) < 0.01

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 1.9])
    def test_interior_alpha_ks(self, alpha):
        x = sample_stable(alpha, 1.0, N_BIG, RngStream(106))
        assert _ks_to(Stable(alpha, 1.0), x) < 0.01

    def test_scale_is_exact_postmultiplier(self):
        base = sample_stable(1.5, 1.0, 1000, RngStream(107))
        scaled = sample_stable(1.5, 2.5, 1000, RngStream(107))
        np.testing.assert_array_equal(scaled, 2.5 * base)

    def test_tail_frequency_matches_power_law(self):
        # at t with C t^{-alpha} ~ 2e-3 the empirical tail, the numeric CDF
        # and the asymptote must all agree
        alpha = 1.5
        c_w = stable_tail_weight(alpha)
        t = (c_w / 2e-3) ** (1.0 / alpha)
        x = sample_stable(alpha, 1.0, 200000, RngStream(108))
        emp = float((x > t).mean())
        exact = 1.0 - _stable_cdf_unit_exact(t, alpha)
        asym = c_w * t ** (-alpha)
        # binomial 5 sigma at p ~ 2e-3, n = 2e5: 5e-4
        assert abs(emp - exact) < 5e-4
        assert abs(asym / exact - 1.0) < 0.15

    def test_cauchy_tail_weight(self):
        assert math.isclose(stable_tail_weight(1.0), 1.0 / math.pi, rel_tol=1e-12)

    def test_tail_weight_value(self):
        # Gamma(1.5) sin(3 pi / 4) / pi evaluated by hand
        assert math.isclose(stable_tail_weight(1.5), 0.19947114020071635, rel_tol=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Stable(0.0, 1.0)
        with pytest.raises(ValueError):
            Stable(2.1, 1.0)
        with pytest.raises(ValueError):
            Stable(1.5, 0.0)


    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, alpha):
        # the sampler evaluates the CMS map in place; the plain expression is
        # the reference (odd sizes reach the ufuncs' remainder loops)
        shape, rng = (301, 67), RngStream(113)
        g = rng.generator()
        u = g.uniform(-math.pi / 2.0, math.pi / 2.0, shape)
        w = g.standard_exponential(shape)
        if alpha == 1.0:
            core = np.tan(u)
        else:
            core = (
                np.sin(alpha * u)
                / np.cos(u) ** (1.0 / alpha)
                * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
            )
        expected = 3.0 * core
        assert sample_stable(alpha, 3.0, shape, rng).tobytes() == expected.tobytes()


class TestStudentT:
    def test_inf_nu_is_standard_normal_stream(self):
        a = sample_student_t(math.inf, 100, RngStream(6))
        b = RngStream(6).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_nu3_variance(self):
        # var = nu / (nu - 2) = 3; heavy tails make this a slow estimate,
        # hence the wide band
        x = sample_student_t(3, N_BIG, RngStream(109))
        assert abs(x.var(ddof=1) - 3.0) < 0.3

    def test_nu1_median(self):
        x = sample_student_t(1, N_BIG, RngStream(110))
        assert abs(np.median(x)) < 0.02

    @pytest.mark.parametrize("nu", [1, 2, 5, 50])
    def test_ks_distance(self, nu):
        x = sample_student_t(nu, N_BIG, RngStream(111))
        assert _ks_to(StudentT(nu), x) < 0.01

    def test_inf_ks(self):
        x = sample_student_t(math.inf, N_BIG, RngStream(112))
        assert _ks_to(StudentT(math.inf), x) < 0.01

    @pytest.mark.parametrize("nu", [1, 2, 5])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, nu):
        shape, rng = (301, 67), RngStream(114)
        g = rng.generator()
        z = g.standard_normal(shape)
        chi2 = g.chisquare(nu, shape)
        expected = z / np.sqrt(chi2 / nu)
        assert sample_student_t(nu, shape, rng).tobytes() == expected.tobytes()

    def test_integer_normalization(self):
        assert StudentT(2.0).nu == 2
        assert isinstance(StudentT(2.0).nu, int)
        assert StudentT(math.inf).nu == math.inf

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            StudentT(2.5)
        with pytest.raises(ValueError):
            StudentT(0)
        with pytest.raises(ValueError):
            StudentT(-math.inf)
        with pytest.raises(TypeError):
            StudentT("2")


class TestGPD:
    def test_exponential_corner(self):
        x = sample_gpd(0.0, 2.0, N_BIG, RngStream(113))
        # mean = delta, se = delta / sqrt(N)
        assert abs(x.mean() - 2.0) < 0.04
        assert _ks_to(GPD(0.0, 2.0), x) < 0.01
        assert (x >= 0.0).all()

    def test_boundary_shape_mean(self):
        # gamma = 0.5: mean = delta / (1 - gamma) = 2, variance infinite,
        # so the band is wide and the seed is pinned
        x = sample_gpd(0.5, 1.0, N_BIG, RngStream(114))
        assert abs(x.mean() - 2.0) < 0.1
        assert _ks_to(GPD(0.5, 1.0), x) < 0.01

    def test_negative_shape_bounded_support(self):
        x = sample_gpd(-0.5, 1.0, N_BIG, RngStream(115))
        assert (x >= 0.0).all()
        assert x.max() < 2.0  # upper endpoint -delta/gamma
        assert _ks_to(GPD(-0.5, 1.0), x) < 0.01

    def test_infinite_mean_shape_ks(self):
        x = sample_gpd(1.5, 1.0, N_BIG, RngStream(116))
        assert _ks_to(GPD(1.5, 1.0), x) < 0.01

    def test_quantile_at_exponential_corner(self):
        # F^{-1}(1 - e^{-1}) = delta when gamma = 0
        p = 1.0 - math.exp(-1.0)
        assert math.isclose(quantile_function(GPD(0.0, 3.0), p), 3.0, rel_tol=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GPD(0.5, 0.0)
        with pytest.raises(ValueError):
            GPD(math.inf, 1.0)


class TestQuantileAndCdf:
    def test_gaussian_median_and_round_trip(self):
        spec = Gaussian(1.5, 4.0)
        assert quantile_function(spec, 0.5) == 1.5
        for p in (0.01, 0.3, 0.8, 0.99):
            q = quantile_function(spec, p)
            assert math.isclose(float(cdf_function(spec, q)), p, abs_tol=1e-12)

    def test_student_t1_quartile(self):
        assert math.isclose(quantile_function(StudentT(1), 0.75), 1.0, rel_tol=1e-12)

    def test_student_round_trip(self):
        for nu in (2, 7, math.inf):
            spec = StudentT(nu)
            for p in (0.05, 0.5, 0.9):
                q = quantile_function(spec, p)
                assert math.isclose(float(cdf_function(spec, q)), p, abs_tol=1e-10)

    def test_gpd_round_trip(self):
        for gamma in (-0.5, 0.0, 0.5, 1.5):
            spec = GPD(gamma, 2.0)
            for p in (0.1, 0.5, 0.99):
                q = quantile_function(spec, p)
                assert math.isclose(float(cdf_function(spec, q)), p, abs_tol=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 1.3, 1.5])
    def test_stable_round_trip(self, alpha):
        spec = Stable(alpha, 1.0)
        for p in (0.025, 0.3, 0.6, 0.975):
            q = quantile_function(spec, p)
            assert abs(_stable_cdf_unit_exact(q, alpha) - p) < 1e-9

    def test_stable_quantile_scale_collapse(self):
        q1 = quantile_function(Stable(1.5, 1.0), 0.9)
        q3 = quantile_function(Stable(1.5, 3.0), 0.9)
        assert math.isclose(q3, 3.0 * q1, rel_tol=1e-12)

    def test_stable_closed_corners(self):
        # alpha = 2: sqrt(2) sigma Phi^{-1}(p); alpha = 1: sigma tan(pi (p - 1/2))
        assert math.isclose(
            quantile_function(Stable(2.0, 1.0), 0.975),
            math.sqrt(2.0) * float(special.ndtri(0.975)),
            rel_tol=1e-12,
        )
        assert math.isclose(
            quantile_function(Stable(1.0, 2.0), 0.75), 2.0, rel_tol=1e-12
        )

    def test_stable_grid_matches_exact_integration(self):
        for alpha in (0.7, 1.5):
            zs = np.array([0.05, 0.4, 1.0, 3.0, 11.0, 80.0])
            grid_vals = _stable_cdf_unit(zs, alpha)
            exact_vals = np.array([_stable_cdf_unit_exact(z, alpha) for z in zs])
            assert np.abs(grid_vals - exact_vals).max() < 1e-6

    def test_stable_cdf_against_external_implementation(self):
        for alpha in (0.7, 1.5):
            for z in (0.5, 2.0, 10.0):
                ref = float(stats.levy_stable.cdf(z, alpha, 0.0))
                assert abs(_stable_cdf_unit_exact(z, alpha) - ref) < 1e-9

    def test_quantiles_strictly_increasing(self):
        ps = np.linspace(0.02, 0.98, 25)
        specs = [
            Gaussian(0.0, 1.0),
            Stable(1.5, 1.0),
            Stable(0.7, 2.0),
            StudentT(2),
            StudentT(math.inf),
            GPD(0.5, 1.0),
            GPD(-0.5, 1.0),
        ]
        for spec in specs:
            qs = [quantile_function(spec, p) for p in ps]
            assert all(a < b for a, b in zip(qs, qs[1:])), spec

    def test_cdf_monotone_and_limited(self):
        grid = np.linspace(-30.0, 30.0, 301)
        for spec in (Gaussian(0.0, 1.0), Stable(1.3, 1.0), StudentT(2), GPD(0.5, 1.0)):
            vals = np.asarray(cdf_function(spec, grid), dtype=float)
            assert (np.diff(vals) >= -1e-12).all()
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_p_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                quantile_function(Gaussian(0.0, 1.0), p)


class TestSpecPlumbing:
    def test_family_tags(self):
        assert family_tag(Gaussian(0.0, 1.0)) == "gaussian"
        assert family_tag(Stable(1.5, 1.0)) == "stable"
        assert family_tag(StudentT(2)) == "student_t"
        assert family_tag(GPD(0.5, 1.0)) == "gpd"

    def test_round_trip_through_params(self):
        for spec in (Gaussian(1.0, 2.0), Stable(1.2, 0.5), StudentT(4), GPD(-0.2, 3.0)):
            assert spec_from(family_tag(spec), params_dict(spec)) == spec

    def test_inf_nu_round_trip_via_string(self):
        assert spec_from("student_t", {"nu": "inf"}) == StudentT(math.inf)

    @pytest.mark.parametrize(
        "spec",
        [Gaussian(1.0, 2.0), Stable(1.5, 2.0), Stable(1.0, 1.0), StudentT(3), StudentT(math.inf), GPD(0.5, 1.0)],
        ids=["gaussian", "stable", "cauchy", "student_t", "student_t_inf", "gpd"],
    )
    def test_shape_form_first_row_is_the_plain_sample(self, spec):
        rng = RngStream(56)
        assert sample(spec, (1, 37), rng)[0].tobytes() == sample(spec, 37, rng).tobytes()
        assert sample(spec, (5, 37), rng).shape == (5, 37)

    def test_dispatch_matches_family_samplers(self):
        rng = RngStream(55)
        np.testing.assert_array_equal(
            sample(Stable(1.5, 2.0), 20, rng), sample_stable(1.5, 2.0, 20, rng)
        )
        np.testing.assert_array_equal(
            sample(GPD(0.5, 1.0), 20, rng), sample_gpd(0.5, 1.0, 20, rng)
        )
