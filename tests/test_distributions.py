"""Sampler checks against scipy.stats.

Sampling assertions use fixed seeds with tolerances set at 4-5 standard
errors from the relevant limit theorem, so they are deterministic regression
checks, not flaky statistical tests. The reference distribution functions
come from scipy.stats (``norm``, ``t``, ``cauchy``, ``genpareto`` and
``levy_stable``, the last after Nolan 1997), an implementation independent
of the samplers.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from functools import cache

import numpy as np
import pytest
from scipy import interpolate, special, stats

from greenwood.distributions import (
    GPD,
    Gaussian,
    Stable,
    StudentT,
    _PIECE,
    _cms,
    _ContinuedStream,
    family_tag,
    params_dict,
    sample,
)
import greenwood
from greenwood.rng import RngStream
from greenwood.testing import ks_distance

N_BIG = 100000

# the switch that turns numpy's AVX-512 kernels off for one process
_AVX512_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"
_SRC = os.path.dirname(os.path.dirname(greenwood.__file__))


def _has_avx512f() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return "avx512f" in fh.read().split()
    except OSError:
        return False

EVERY_FAMILY = pytest.mark.parametrize(
    "spec",
    [Gaussian(1.0, 2.0), Stable(1.5, 2.0), Stable(1.0, 1.0), StudentT(3), StudentT(math.inf), GPD(0.5, 1.0)],
    ids=["gaussian", "stable", "cauchy", "student_t", "student_t_inf", "gpd"],
)

# the stable grid ends where the tail mass is about this much
_STABLE_GRID_TAIL_MASS = 2e-4


def _tail_weight(alpha: float) -> float:
    """C(alpha) in P(X > x) = C(alpha) x**(-alpha) (1 + o(1)) for the unit stable law."""
    return special.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


@cache
def _stable_table(alpha: float):
    """``(z_max, interpolant, tail mass)`` of the unit stable law on ``[0, z_max]``.

    ``levy_stable.cdf`` takes about 0.3 ms a point, so it is evaluated on a
    sinh-spaced grid and interpolated. It returns exactly 1/2 for ``|z|`` up
    to about 0.006, so the grid starts at 0.01 and ``F(0) = 1/2`` anchors it.
    """
    z_max = (_tail_weight(alpha) / _STABLE_GRID_TAIL_MASS) ** (1.0 / alpha)
    z = np.sinh(np.linspace(math.asinh(0.01), math.asinh(z_max), 400))
    f = stats.levy_stable.cdf(z, alpha, 0.0)
    interp = interpolate.PchipInterpolator(np.r_[0.0, z], np.r_[0.5, f])
    return z_max, interp, 1.0 - f[-1]


def _stable_cdf(alpha: float, z) -> np.ndarray:
    """Unit stable distribution function; past the grid, a power tail matched to its end."""
    z_max, interp, tail_mass = _stable_table(alpha)
    az = np.abs(z)
    upper = np.where(
        az <= z_max,
        interp(np.minimum(az, z_max)),
        1.0 - tail_mass * (np.maximum(az, z_max) / z_max) ** (-alpha),
    )
    return np.where(z >= 0.0, upper, 1.0 - upper)


def _cdf(spec, x) -> np.ndarray:
    """Distribution function of ``spec`` at ``x``, from scipy.stats."""
    if isinstance(spec, Gaussian):
        return stats.norm.cdf(x, spec.mu, math.sqrt(spec.sigma2))
    if isinstance(spec, StudentT):
        return stats.norm.cdf(x) if math.isinf(spec.nu) else stats.t.cdf(x, spec.nu)
    if isinstance(spec, GPD):
        return stats.genpareto.cdf(x, spec.gamma, scale=spec.delta)
    if spec.alpha == 2.0:
        return stats.norm.cdf(x, scale=spec.sigma * math.sqrt(2.0))
    if spec.alpha == 1.0:
        return stats.cauchy.cdf(x, scale=spec.sigma)
    return _stable_cdf(spec.alpha, np.asarray(x) / spec.sigma)


def _sampled_at(monkeypatch, spec, method: str, values: np.ndarray) -> np.ndarray:
    """``sample(spec, values.size, ...)`` with every generator's ``method`` returning ``values``."""

    def fed(n=None, out=None):
        if out is None:
            return values.copy()
        out[...] = values  # a sampler that fills its output by pieces: one piece here
        return out

    class Fed:
        def __getattr__(self, name):
            assert name == method, name
            return fed

    monkeypatch.setattr(RngStream, "generator", lambda stream, variate=0: Fed())
    return sample(spec, values.size, RngStream(120))


def _ks_to(spec, draws: np.ndarray) -> float:
    return ks_distance(_cdf(spec, np.sort(draws)))


def _stable_formula(alpha: float, sigma: float, shape, rng: RngStream) -> np.ndarray:
    """The sampler's tangent-form CMS map as a plain whole-array expression,
    with U from variate 0 of ``rng`` and W from variate 1."""
    u = rng.generator().uniform(-math.pi / 2.0, math.pi / 2.0, shape)
    w = rng.generator(variate=1).standard_exponential(shape)
    if alpha == 1.0:
        return sigma * np.tan(u)
    s, t = np.tan(alpha * u / 2.0), np.tan(u)
    q = 1.0 + s**2
    core = (
        2.0 * s / q
        * np.sqrt(1.0 + t**2)
        * (w / (1.0 + s * (2.0 * t - s)) * q) ** ((alpha - 1.0) / alpha)
    )
    return sigma * core


def _student_t_formula(nu: int, shape, rng: RngStream) -> np.ndarray:
    """The sampler's Student's t map as a plain whole-array expression: nu = 1
    divides by the root of a one-degree chi-square, |Z2|; nu = 2 is Jones's
    inverse distribution function; other nu read a chi-square."""
    if nu == 2:
        a = (2.0 * rng.generator().random(shape) - 1.0) + 2.0**-53
        return a / np.sqrt((1.0 - a) * (1.0 + a) / 2.0)
    z = rng.generator().standard_normal(shape)
    if nu == 1:
        return z / np.abs(rng.generator(variate=1).standard_normal(shape))
    return z / np.sqrt(rng.generator(variate=1).chisquare(nu, shape) / nu)


def _at_piece_edges(name: str, values):
    """``(value, shape)`` cases of a bit-for-bit pin: each value at the odd
    shape (301, 67), which reaches the ufuncs' remainder loops, and at draws
    that end just before, at and just after a piece or hold rows longer than one."""
    edges = {"piece-1": _PIECE - 1, "piece": _PIECE, "piece+1": _PIECE + 1, "long-rows": (2, 50001)}
    return pytest.mark.parametrize(
        f"{name}, shape",
        [pytest.param(v, (301, 67), id=str(v)) for v in values]
        + [pytest.param(v, edge, id=f"{v}-{name}") for v in values for name, edge in edges.items()],
    )


# a continued draw whose calls start and end inside, at and across pieces
CONTINUED = [_PIECE - 3, 7, _PIECE + 5, 2, 3 * _PIECE]


class TestGaussian:
    def test_moments(self):
        x = sample(Gaussian(0.0, 1.0), N_BIG, RngStream(101))
        # 5 sigma: se(mean) = 1/sqrt(N), se(var) ~ sqrt(2/N)
        assert abs(x.mean()) < 0.016
        assert abs(x.var(ddof=1) - 1.0) < 0.03

    def test_location_scale(self):
        z = sample(Gaussian(0.0, 1.0), 100, RngStream(5))
        y = sample(Gaussian(3.0, 4.0), 100, RngStream(5))
        np.testing.assert_array_equal(y, 3.0 + 2.0 * z)

    def test_ks_distance(self):
        x = sample(Gaussian(1.0, 2.0), N_BIG, RngStream(102))
        assert _ks_to(Gaussian(1.0, 2.0), x) < 0.01

    def test_determinism(self):
        a = sample(Gaussian(0.0, 1.0), 50, RngStream(7, 3))
        b = sample(Gaussian(0.0, 1.0), 50, RngStream(7, 3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mu, sigma2", [(0.0, 1.0), (-3.0, 2.5)])
    @pytest.mark.parametrize("shape", [1001, (301, 67)])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, mu, sigma2, shape):
        rng = RngStream(114)
        expected = mu + math.sqrt(sigma2) * rng.generator().standard_normal(shape)
        assert sample(Gaussian(mu, sigma2), shape, rng).tobytes() == expected.tobytes()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(math.nan, 1.0)
        with pytest.raises(ValueError):
            sample(Gaussian(0.0, -1.0), 10, RngStream(1))
        with pytest.raises(ValueError):
            sample(Gaussian(0.0, 1.0), 0, RngStream(1))


class TestStable:
    def test_gaussian_corner_variance(self):
        # alpha = 2 has variance 2 * sigma**2 under this parameterization
        x = sample(Stable(2.0, 1.0), N_BIG, RngStream(103))
        assert abs(x.var(ddof=1) - 2.0) < 0.05

    def test_gaussian_corner_ks(self):
        x = sample(Stable(2.0, 1.0), N_BIG, RngStream(104))
        assert _ks_to(Stable(2.0, 1.0), x) < 0.01

    def test_cauchy_corner(self):
        x = sample(Stable(1.0, 1.0), N_BIG, RngStream(105))
        # median se = pi / (2 sqrt(N)) ~ 0.005
        assert abs(np.median(x)) < 0.02
        assert _ks_to(Stable(1.0, 1.0), x) < 0.01

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 1.9])
    def test_interior_alpha_ks(self, alpha):
        x = sample(Stable(alpha, 1.0), N_BIG, RngStream(106))
        assert _ks_to(Stable(alpha, 1.0), x) < 0.01

    def test_scale_is_exact_postmultiplier(self):
        base = sample(Stable(1.5, 1.0), 1000, RngStream(107))
        scaled = sample(Stable(1.5, 2.5), 1000, RngStream(107))
        np.testing.assert_array_equal(scaled, 2.5 * base)

    def test_tail_frequency_matches_power_law(self):
        # at t with C t^{-alpha} ~ 2e-3 the empirical tail, scipy's tail and
        # the asymptote must all agree
        alpha = 1.5
        c_w = _tail_weight(alpha)
        t = (c_w / 2e-3) ** (1.0 / alpha)
        x = sample(Stable(alpha, 1.0), 200000, RngStream(108))
        emp = float((x > t).mean())
        exact = float(stats.levy_stable.sf(t, alpha, 0.0))
        asym = c_w * t ** (-alpha)
        # binomial 5 sigma at p ~ 2e-3, n = 2e5: 5e-4
        assert abs(emp - exact) < 5e-4
        assert abs(asym / exact - 1.0) < 0.15

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Stable(0.0, 1.0)
        with pytest.raises(ValueError):
            Stable(2.1, 1.0)
        with pytest.raises(ValueError):
            Stable(1.5, 0.0)


    @_at_piece_edges("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, alpha, shape):
        # the sampler evaluates the CMS map in place, in tangent form, a piece
        # at a time; the plain whole-array expression is the reference
        rng = RngStream(113)
        expected = _stable_formula(alpha, 3.0, shape, rng)
        assert sample(Stable(alpha, 3.0), shape, rng).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_continued_draws_across_pieces_equal_the_formula(self, alpha):
        rng = RngStream(117, 2)
        stream = _ContinuedStream(rng.master_seed, rng.stream_id)
        drawn = np.concatenate([sample(Stable(alpha, 0.5), k, stream) for k in CONTINUED])
        expected = _stable_formula(alpha, 0.5, sum(CONTINUED), rng)
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.1, 1.5, 1.9, 2.0])
    def test_tangent_map_is_within_ulps_of_the_sin_cos_map(self, alpha):
        # the Chambers-Mallows-Stuck expression is the oracle, over U at and
        # within 1e-6 of both ends of the range and over the whole range
        rng = RngStream(115)
        edge = np.nextafter(math.pi / 2.0, 0.0) - np.linspace(0.0, 1e-6, 2001)
        inner = rng.generator().uniform(-math.pi / 2.0, math.pi / 2.0, 100000)
        u = np.concatenate([edge, -edge, inner])
        w = rng.generator(variate=1).standard_exponential(u.size)
        oracle = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
        assert np.isfinite(oracle).all()
        ulps = np.abs(_cms(alpha, u.copy(), w.copy()) - oracle) / np.spacing(np.abs(oracle))
        assert ulps.max() <= max(12.0 / alpha, 32.0)

    def test_cauchy_draws_no_exponential(self, monkeypatch):
        variates = []
        generator = RngStream.generator

        def recorded(stream, variate=0):
            variates.append(variate)
            return generator(stream, variate)

        monkeypatch.setattr(RngStream, "generator", recorded)
        shape, rng = (301, 67), RngStream(116)
        x = sample(Stable(1.0, 2.5), shape, rng)
        assert variates == [0]
        u = rng.generator().uniform(-math.pi / 2.0, math.pi / 2.0, shape)
        assert x.tobytes() == (2.5 * np.tan(u)).tobytes()


class TestStudentT:
    def test_inf_nu_is_standard_normal_stream(self):
        a = sample(StudentT(math.inf), 100, RngStream(6))
        b = RngStream(6).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_nu3_variance(self):
        # var = nu / (nu - 2) = 3; heavy tails make this a slow estimate,
        # hence the wide band
        x = sample(StudentT(3), N_BIG, RngStream(109))
        assert abs(x.var(ddof=1) - 3.0) < 0.3

    def test_nu1_median(self):
        x = sample(StudentT(1), N_BIG, RngStream(110))
        assert abs(np.median(x)) < 0.02

    @pytest.mark.parametrize("nu", [1, 2, 5, 50])
    def test_ks_distance(self, nu):
        x = sample(StudentT(nu), N_BIG, RngStream(111))
        assert _ks_to(StudentT(nu), x) < 0.01

    def test_inf_ks(self):
        x = sample(StudentT(math.inf), N_BIG, RngStream(112))
        assert _ks_to(StudentT(math.inf), x) < 0.01

    @_at_piece_edges("nu", [1, 2, 5])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, nu, shape):
        rng = RngStream(114)
        expected = _student_t_formula(nu, shape, rng)
        assert sample(StudentT(nu), shape, rng).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("nu", [1, 2, 5])
    def test_continued_draws_across_pieces_equal_the_formula(self, nu):
        rng = RngStream(119, 2)
        stream = _ContinuedStream(rng.master_seed, rng.stream_id)
        drawn = np.concatenate([sample(StudentT(nu), k, stream) for k in CONTINUED])
        expected = _student_t_formula(nu, sum(CONTINUED), rng)
        assert drawn.tobytes() == expected.tobytes()

    def test_nu2_map_is_finite_and_odd_at_the_uniforms_ends(self, monkeypatch):
        # random() returns k * 2**-53 for k < 2**53, so U and its mirror
        # (1 - 2**-53) - U make up the range; 0 and 1 - 2**-53 are its ends,
        # and 0.5 and its mirror give a = +-2**-53, either side of the middle
        u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        x = _sampled_at(monkeypatch, StudentT(2), "random", np.r_[u, (1.0 - 2.0**-53) - u])
        assert np.isfinite(x).all()
        assert x[4:].tobytes() == (-x[:4]).tobytes()
        assert x[0] < x[1] < 0.0 < x[2] < x[3]
        # at U = 0 (a = -1 + 2**-53) the draw is -(1 - 2**-53) / sqrt(2**-53)
        assert x[0] == pytest.approx(-(2.0**26.5), rel=1e-15)

    def test_portable_across_simd_kernels(self):
        # nu 1 and 2 use no kernel whose AVX-512 and AVX2 bits differ, so a
        # process with numpy's AVX-512 kernels switched off draws the same bytes
        if not _has_avx512f():
            pytest.skip("this CPU has no AVX-512, so numpy runs none of its AVX-512 kernels")
        code = (
            "import sys; from greenwood import RngStream, StudentT, sample; "
            "sys.stdout.buffer.write(b''.join("
            "sample(StudentT(nu), (100, 1000), RngStream(118)).tobytes() for nu in (1, 2)))"
        )
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_AVX512_FEATURES)
        env["PYTHONPATH"] = os.pathsep.join([_SRC, *filter(None, [env.get("PYTHONPATH")])])
        there = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        here = b"".join(
            sample(StudentT(nu), (100, 1000), RngStream(118)).tobytes() for nu in (1, 2)
        )
        assert len(there) == len(here) == 2 * 100 * 1000 * 8
        assert there == here

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
        x = sample(GPD(0.0, 2.0), N_BIG, RngStream(113))
        # mean = delta, se = delta / sqrt(N)
        assert abs(x.mean() - 2.0) < 0.04
        assert _ks_to(GPD(0.0, 2.0), x) < 0.01
        assert (x >= 0.0).all()

    def test_boundary_shape_mean(self):
        # gamma = 0.5: mean = delta / (1 - gamma) = 2, variance infinite,
        # so the band is wide and the seed is pinned
        x = sample(GPD(0.5, 1.0), N_BIG, RngStream(114))
        assert abs(x.mean() - 2.0) < 0.1
        assert _ks_to(GPD(0.5, 1.0), x) < 0.01

    def test_negative_shape_bounded_support(self):
        x = sample(GPD(-0.5, 1.0), N_BIG, RngStream(115))
        assert (x >= 0.0).all()
        assert x.max() < 2.0  # upper endpoint -delta/gamma
        assert _ks_to(GPD(-0.5, 1.0), x) < 0.01

    def test_infinite_mean_shape_ks(self):
        x = sample(GPD(1.5, 1.0), N_BIG, RngStream(116))
        assert _ks_to(GPD(1.5, 1.0), x) < 0.01

    def test_quantile_at_exponential_corner(self, monkeypatch):
        # F^{-1}(1 - e^{-1}) = delta when gamma = 0
        e = -np.log1p(-np.array([1.0 - math.exp(-1.0)]))
        q = _sampled_at(monkeypatch, GPD(0.0, 3.0), "standard_exponential", e)
        assert math.isclose(float(q[0]), 3.0, rel_tol=1e-14)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.5])
    @pytest.mark.parametrize("shape", [1001, (301, 67)])
    def test_in_place_sampler_equals_the_formula_bit_for_bit(self, gamma, shape):
        # the inverse distribution function at 1 - exp(-E), E exponential from variate 0
        rng = RngStream(119)
        e = rng.generator().standard_exponential(shape)
        expected = 2.0 * e if gamma == 0.0 else (2.0 / gamma) * np.expm1(gamma * e)
        assert sample(GPD(gamma, 2.0), shape, rng).tobytes() == expected.tobytes()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GPD(0.5, 0.0)
        with pytest.raises(ValueError):
            GPD(math.inf, 1.0)


class TestQuantileAndCdf:
    def test_gpd_round_trip(self, monkeypatch):
        # the sampler's map at E = -log1p(-p), the exponential whose
        # distribution function is p, against scipy's quantile and
        # distribution function
        p = np.array([1e-9, 0.1, 0.5, 0.99, 1.0 - 1e-9])
        for gamma in (-0.5, 0.0, 0.5, 1.5):
            q = _sampled_at(monkeypatch, GPD(gamma, 2.0), "standard_exponential", -np.log1p(-p))
            np.testing.assert_allclose(q, stats.genpareto.ppf(p, gamma, scale=2.0), rtol=1e-12)
            np.testing.assert_allclose(stats.genpareto.cdf(q, gamma, scale=2.0), p, atol=1e-12)

    def test_stable_closed_corners(self):
        # scipy's stable law has the library's scale: exp(-|t|**alpha) is
        # N(0, 2) at alpha = 2 and the standard Cauchy law at alpha = 1
        z = np.array([-3.0, -0.5, 0.2, 1.0, 4.0])
        np.testing.assert_allclose(
            stats.levy_stable.cdf(z, 2.0, 0.0), stats.norm.cdf(z, scale=math.sqrt(2.0)), atol=1e-9
        )
        np.testing.assert_allclose(stats.levy_stable.cdf(z, 1.0, 0.0), stats.cauchy.cdf(z), atol=1e-9)

    def test_stable_grid_matches_exact_integration(self):
        # past the grid the error is at most the tail mass left there
        zs = np.array([0.003, 0.05, 0.4, 1.0, 3.0, 11.0, 80.0])
        for alpha in (0.7, 1.5, 1.9):
            exact = stats.levy_stable.cdf(zs, alpha, 0.0)
            exact[0] = 0.5 + zs[0] * special.gamma(1.0 + 1.0 / alpha) / math.pi  # F'(0) z
            assert np.abs(_stable_cdf(alpha, zs) - exact).max() < _STABLE_GRID_TAIL_MASS

    def test_cdf_monotone_and_limited(self):
        grid = np.linspace(-30.0, 30.0, 301)
        for spec in (Gaussian(0.0, 1.0), Stable(1.9, 1.0), StudentT(2), GPD(0.5, 1.0)):
            vals = np.asarray(_cdf(spec, grid), dtype=float)
            assert (np.diff(vals) >= -1e-12).all()
            assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestSpecPlumbing:
    def test_family_tags(self):
        assert family_tag(Gaussian(0.0, 1.0)) == "gaussian"
        assert family_tag(Stable(1.5, 1.0)) == "stable"
        assert family_tag(StudentT(2)) == "student_t"
        assert family_tag(GPD(0.5, 1.0)) == "gpd"
        for read in (family_tag, params_dict, lambda x: sample(x, 5, RngStream(1))):
            with pytest.raises(TypeError, match="not a distribution spec: 0.5"):
                read(0.5)

    @EVERY_FAMILY
    def test_shape_form_first_row_is_the_plain_sample(self, spec):
        rng = RngStream(56)
        assert sample(spec, (1, 37), rng)[0].tobytes() == sample(spec, 37, rng).tobytes()
        assert sample(spec, (5, 37), rng).shape == (5, 37)
        with pytest.raises(ValueError, match=r"a sample shape must be \(m, n\)"):
            sample(spec, (5, 37, 2), rng)

    @EVERY_FAMILY
    @pytest.mark.parametrize("k, m, n", [(2000, 6553, 10), (3, 11, 37), (1, 2, 1000)])
    def test_fewer_rows_are_the_first_rows_of_more(self, spec, k, m, n):
        # each variate has its own counter range, so a short draw of one
        # variate cannot shift the next: a Monte Carlo block may stop early
        rng = RngStream(57, 3)
        assert sample(spec, (k, n), rng).tobytes() == sample(spec, (m, n), rng)[:k].tobytes()

    @pytest.mark.parametrize(
        "spec, bound",
        [
            (Stable(1.5, 2.0), 1.8),
            (Stable(1.0, 1.0), 1.8),
            (StudentT(2), 1.8),
            (StudentT(1), 1.3),
            (StudentT(5), 2.0),
            (StudentT(math.inf), 1.0),
            (Gaussian(1.0, 2.0), 1.0),
            (GPD(0.5, 1.0), 1.0),
        ],
        ids=[
            "stable", "cauchy", "student_t2", "student_t1", "student_t5", "student_t_inf",
            "gaussian", "gpd",
        ],
    )
    def test_a_block_holds_no_block_sized_temporary(self, spec, bound):
        # the traced peak of a Monte Carlo block's draw, over the block's own
        # bytes: a sampler with work arrays holds them a piece at a time; the
        # 1% above the bound is the generators' own few kilobytes
        rng = RngStream(59)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            x = sample(spec, (65, 1000), rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / x.nbytes < bound + 0.01

    @EVERY_FAMILY
    @pytest.mark.parametrize(
        "pieces", [[1] * 40, [7] * 9, [1, 7, 2, 130, 4, 9000, 3]], ids=["ones", "sevens", "uneven"]
    )
    def test_continued_pieces_are_the_whole_draw(self, spec, pieces):
        rng = RngStream(58, 5)
        stream = _ContinuedStream(rng.master_seed, rng.stream_id)
        drawn = np.concatenate([sample(spec, n, stream) for n in pieces])
        assert drawn.tobytes() == sample(spec, sum(pieces), rng).tobytes()
        # a plain stream of the same key starts over, where the continued one goes on
        assert sample(spec, 5, rng).tobytes() == drawn[:5].tobytes()
        assert sample(spec, 5, stream).tobytes() == sample(spec, sum(pieces) + 5, rng)[-5:].tobytes()
