"""Samplers, distribution functions and quantiles for the four data families.

Families covered: Gaussian, symmetric alpha-stable, Student's t (integer
degrees of freedom plus the Gaussian limit), and the generalized Pareto
distribution (GPD). Every sampler is a pure function of its parameters, the
sample size and an :class:`~greenwood.rng.RngStream`; calling it twice with
the same arguments returns identical arrays.

Conventions
-----------
* The stable characteristic function is ``exp(-sigma**alpha * |t|**alpha)``,
  so ``alpha == 2`` is a Gaussian with variance ``2 * sigma**2`` (not 1).
* ``StudentT(math.inf)`` is the standard Gaussian limit.
* The GPD is supported on ``[0, inf)`` for ``gamma >= 0`` and on
  ``[0, -delta/gamma)`` for ``gamma < 0``.

The stable law has no closed-form distribution function away from
``alpha in {1, 2}``; here it is evaluated by numeric Fourier inversion of the
characteristic function. That path serves diagnostics and quantile queries
only; samplers never touch it.

scipy is imported inside the functions that need it (the distribution
functions, quantiles and the stable tail weight), never at module load, so
importing the package and sampling do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .rng import RngStream

__all__ = [
    "FAMILIES",
    "GPD",
    "Gaussian",
    "Stable",
    "StudentT",
    "DistributionSpec",
    "cdf_function",
    "family_tag",
    "params_dict",
    "quantile_function",
    "sample",
    "sample_gaussian",
    "sample_gpd",
    "sample_stable",
    "sample_student_t",
    "spec_from",
    "stable_tail_weight",
]


@dataclass(frozen=True)
class Gaussian:
    """Normal law with mean ``mu`` and variance ``sigma2``."""

    grid_param: ClassVar[str] = "sigma2"
    mu: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (self.sigma2 > 0) or not math.isfinite(self.sigma2):
            raise ValueError("sigma2 must be a finite positive number")


@dataclass(frozen=True)
class Stable:
    """Symmetric alpha-stable law, characteristic function exp(-(sigma*|t|)**alpha)."""

    grid_param: ClassVar[str] = "alpha"
    alpha: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise ValueError("sigma must be a finite positive number")


@dataclass(frozen=True)
class StudentT:
    """Student's t with ``nu`` degrees of freedom; ``nu = inf`` is the Gaussian limit."""

    grid_param: ClassVar[str] = "nu"
    nu: float

    def __post_init__(self) -> None:
        nu = self.nu
        if isinstance(nu, bool) or not isinstance(nu, (int, float)):
            raise TypeError("nu must be a number")
        if math.isinf(nu) and nu > 0:
            object.__setattr__(self, "nu", math.inf)
            return
        if not float(nu).is_integer() or nu < 1:
            raise ValueError("nu must be a positive integer or math.inf")
        object.__setattr__(self, "nu", int(nu))


@dataclass(frozen=True)
class GPD:
    """Generalized Pareto law with shape ``gamma`` and scale ``delta``."""

    grid_param: ClassVar[str] = "gamma"
    gamma: float
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if not (self.delta > 0) or not math.isfinite(self.delta):
            raise ValueError("delta must be a finite positive number")


DistributionSpec = Gaussian | Stable | StudentT | GPD

# family tag -> spec class; tags key tables, sidecars and the CLI's --family.
# Each class names in ``grid_param`` the parameter a power study sweeps.
FAMILIES = {"gaussian": Gaussian, "stable": Stable, "student_t": StudentT, "gpd": GPD}

# spec class -> (family tag, parameter names in field order)
_CLASSES = {cls: (tag, tuple(f.name for f in fields(cls))) for tag, cls in FAMILIES.items()}


def _family_of(spec: DistributionSpec) -> tuple:
    try:
        return _CLASSES[type(spec)]
    except KeyError:
        raise TypeError(f"not a distribution spec: {spec!r}") from None


def family_tag(spec: DistributionSpec) -> str:
    """Short string identifying the family of ``spec``."""
    return _family_of(spec)[0]


def params_dict(spec: DistributionSpec) -> dict[str, float]:
    """Parameters of ``spec`` as a plain dict (used for table keys and JSON)."""
    return {name: getattr(spec, name) for name in _family_of(spec)[1]}


def spec_from(family: str, params: dict) -> DistributionSpec:
    """Rebuild a spec from a family tag and parameter dict.

    Accepts the string ``"inf"`` for an infinite ``nu`` so that specs survive
    a JSON round trip.
    """
    values = dict(params)
    for key, value in values.items():
        if isinstance(value, str):
            if value.lower() in ("inf", "infinity"):
                values[key] = math.inf
            else:
                raise ValueError(f"non-numeric parameter {key}={value!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family](**values)


# --------------------------------------------------------------------------
# samplers


def _check_size(n):
    """``n`` as an int, or an ``(m, n)`` shape as a tuple of two ints."""
    if isinstance(n, tuple):
        if len(n) != 2:
            raise ValueError("a sample shape must be (m, n)")
        return tuple(_check_size(k) for k in n)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError("n must be an int")
    if n < 1:
        raise ValueError("n must be at least 1")
    return int(n)


# Every sampler takes ``n`` as a sample size or as an ``(m, n)`` shape: m
# samples of size n, one per row. Each variate array is drawn whole, in the
# same order for both forms, so ``sampler(..., (1, n), rng)[0]`` equals
# ``sampler(..., n, rng)`` bit for bit.


def sample_gaussian(mu: float, sigma2: float, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` values from N(mu, sigma2)."""
    spec = Gaussian(mu, sigma2)
    n = _check_size(n)
    g = rng.generator()
    z = g.standard_normal(n)
    z *= math.sqrt(spec.sigma2)  # in place, the same bits as mu + sqrt(sigma2) * z
    z += spec.mu
    return z


def sample_stable(alpha: float, sigma: float, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` symmetric alpha-stable values by the Chambers-Mallows-Stuck map.

    With ``U`` uniform on (-pi/2, pi/2) and ``W`` unit exponential::

        alpha == 1:  X = tan(U)
        otherwise:   X = sin(alpha U) / cos(U)**(1/alpha)
                         * (cos((1 - alpha) U) / W)**((1 - alpha)/alpha)

    The scale enters as an exact postmultiplier, so ``sample_stable(a, s, ...)``
    equals ``s * sample_stable(a, 1.0, ...)`` bit for bit.
    """
    spec = Stable(alpha, sigma)
    n = _check_size(n)
    g = rng.generator()
    u = g.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = g.standard_exponential(n)
    a = spec.alpha
    # evaluated in place, in the order of the formula above; the augmented
    # operators keep numpy's fast paths for exponents such as 0.5
    if a == 1.0:
        core = np.tan(u, out=u)
    else:
        core = np.multiply(a, u)
        np.sin(core, out=core)
        scale = np.cos(u)
        scale **= 1.0 / a
        core /= scale
        u *= 1.0 - a
        np.cos(u, out=u)
        u /= w
        u **= (1.0 - a) / a
        core *= u
    core *= spec.sigma
    return core


def sample_student_t(nu: float, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` Student's t values; ``nu = inf`` falls back to N(0, 1)."""
    spec = StudentT(nu)
    n = _check_size(n)
    if math.isinf(spec.nu):
        g = rng.generator()
        return g.standard_normal(n)
    g = rng.generator()
    z = g.standard_normal(n)
    chi2 = g.chisquare(spec.nu, n)
    chi2 /= spec.nu  # in place, in the order of z / sqrt(chi2 / nu)
    z /= np.sqrt(chi2, out=chi2)
    return z


def sample_gpd(gamma: float, delta: float, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` GPD values by inverting the distribution function."""
    spec = GPD(gamma, delta)
    n = _check_size(n)
    g = rng.generator()
    u = g.random(n)
    return _gpd_quantile(spec.gamma, spec.delta, u)


def sample(spec: DistributionSpec, n, rng: RngStream) -> np.ndarray:
    """Dispatch to the family sampler for ``spec``.

    ``n`` is a sample size, or an ``(m, n)`` shape for ``m`` samples at once.
    """
    if isinstance(spec, Gaussian):
        return sample_gaussian(spec.mu, spec.sigma2, n, rng)
    if isinstance(spec, Stable):
        return sample_stable(spec.alpha, spec.sigma, n, rng)
    if isinstance(spec, StudentT):
        return sample_student_t(spec.nu, n, rng)
    if isinstance(spec, GPD):
        return sample_gpd(spec.gamma, spec.delta, n, rng)
    raise TypeError(f"not a distribution spec: {spec!r}")


# --------------------------------------------------------------------------
# distribution functions and quantiles


def _gpd_quantile(gamma: float, delta: float, p):
    # expm1/log1p keep the inverse accurate near both support ends
    p = np.asarray(p, dtype=np.float64)
    if gamma == 0.0:
        out = -delta * np.log1p(-p)
    else:
        out = (delta / gamma) * np.expm1(-gamma * np.log1p(-p))
    return out


def _gpd_cdf(gamma: float, delta: float, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    z = np.maximum(x, 0.0) / delta
    if gamma == 0.0:
        out = -np.expm1(-z)
    else:
        arg = 1.0 + gamma * z
        if gamma < 0.0:
            # finite upper endpoint -delta/gamma
            arg = np.maximum(arg, 0.0)
        out = -np.expm1(-np.log(arg) / gamma)
    return np.where(x < 0.0, 0.0, out)


def stable_tail_weight(alpha: float) -> float:
    """Constant C(alpha) in P(X > x) = C(alpha) * x**(-alpha) * (1 + o(1)), unit scale.

    C(alpha) = Gamma(alpha) * sin(pi * alpha / 2) / pi; for alpha = 1 this is
    1/pi, the Cauchy tail weight.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("tail weight defined for alpha in (0, 2)")
    from scipy import special

    return special.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


def _stable_pdf_unit(z: float, alpha: float) -> float:
    # density by Fourier inversion: (1/pi) * int_0^inf cos(z t) exp(-t**alpha) dt
    from scipy import integrate, special

    z = abs(float(z))
    if z == 0.0:
        return special.gamma(1.0 + 1.0 / alpha) / math.pi
    val, _ = integrate.quad(
        lambda t: math.exp(-(t**alpha)), 0.0, np.inf, weight="cos", wvar=z, limit=256
    )
    return max(val / math.pi, 0.0)


def _stable_cdf_unit_exact(z: float, alpha: float) -> float:
    # F(z) = 1/2 + (1/pi) int_0^inf sin(z t)/t exp(-t**alpha) dt, split at t = 1
    # so the infinite piece can use the oscillatory-weight rule.
    from scipy import integrate

    z = float(z)
    if z == 0.0:
        return 0.5
    if z < 0.0:
        return 1.0 - _stable_cdf_unit_exact(-z, alpha)
    head, _ = integrate.quad(
        lambda t: math.exp(-(t**alpha)) * math.sin(z * t) / t, 0.0, 1.0, limit=2048
    )
    tail, _ = integrate.quad(
        lambda t: math.exp(-(t**alpha)) / t, 1.0, np.inf, weight="sin", wvar=z, limit=256
    )
    return min(1.0, max(0.0, 0.5 + (head + tail) / math.pi))


_STABLE_GRID_POINTS = 1536
_STABLE_GRID_TAIL_PROB = 2e-4


@lru_cache(maxsize=32)
def _stable_cdf_table(alpha: float):
    """Distribution function of the unit-scale stable law on a sinh-spaced grid.

    Returns ``(z_max, interpolant, tail_mass)``: inside ``[0, z_max]`` the
    distribution function comes from the monotone interpolant; beyond it the
    power tail ``tail_mass * (z / z_max)**(-alpha)`` takes over, matched
    continuously at the boundary. Absolute accuracy is a few 1e-6, plenty for
    goodness-of-fit diagnostics; exact point queries go through
    ``_stable_cdf_unit_exact``.
    """
    from scipy import interpolate

    c = stable_tail_weight(alpha)
    z_max = (c / _STABLE_GRID_TAIL_PROB) ** (1.0 / alpha)
    z_max = max(z_max, 12.0)
    grid = np.sinh(np.linspace(0.0, math.asinh(z_max), _STABLE_GRID_POINTS))
    dens = np.array([_stable_pdf_unit(z, alpha) for z in grid])
    pdf_interp = interpolate.PchipInterpolator(grid, dens)
    cdf_grid = np.minimum(0.5 + pdf_interp.antiderivative()(grid), 1.0)
    cdf_interp = interpolate.PchipInterpolator(grid, cdf_grid)
    tail_mass = max(1.0 - cdf_grid[-1], 1e-12)
    return z_max, cdf_interp, tail_mass


def _stable_cdf_unit(z, alpha: float) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    z_max, cdf_interp, tail_mass = _stable_cdf_table(alpha)
    az = np.abs(z)
    inside = np.clip(cdf_interp(np.minimum(az, z_max)), 0.5, 1.0)
    upper = np.where(
        az <= z_max, inside, 1.0 - tail_mass * (np.maximum(az, z_max) / z_max) ** (-alpha)
    )
    return np.where(z >= 0.0, upper, 1.0 - upper)


def cdf_function(spec: DistributionSpec, x) -> np.ndarray:
    """Distribution function of ``spec`` evaluated at ``x`` (scalar or array).

    Closed forms everywhere except the stable family, which uses the numeric
    inversion grid (absolute error around 1e-5; fine for diagnostics, not
    meant for the testing hot path).
    """
    from scipy import special

    x = np.asarray(x, dtype=np.float64)
    if isinstance(spec, Gaussian):
        return special.ndtr((x - spec.mu) / math.sqrt(spec.sigma2))
    if isinstance(spec, StudentT):
        if math.isinf(spec.nu):
            return special.ndtr(x)
        return special.stdtr(spec.nu, x)
    if isinstance(spec, GPD):
        return _gpd_cdf(spec.gamma, spec.delta, x)
    if isinstance(spec, Stable):
        if spec.alpha == 2.0:
            return special.ndtr(x / (spec.sigma * math.sqrt(2.0)))
        if spec.alpha == 1.0:
            return 0.5 + np.arctan(x / spec.sigma) / math.pi
        return _stable_cdf_unit(x / spec.sigma, spec.alpha)
    raise TypeError(f"not a distribution spec: {spec!r}")


def _stable_quantile_unit(p: float, alpha: float) -> float:
    # root of the exact distribution function; symmetric reduction to p >= 1/2
    from scipy import optimize

    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -_stable_quantile_unit(1.0 - p, alpha)
    hi = 1.0
    while _stable_cdf_unit_exact(hi, alpha) < p:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("stable quantile bracket failed to close")
    return optimize.brentq(
        lambda z: _stable_cdf_unit_exact(z, alpha) - p, 0.0, hi, xtol=1e-10, rtol=8.9e-16
    )


def quantile_function(spec: DistributionSpec, p: float) -> float:
    """Quantile ``F^{-1}(p)`` of ``spec`` for ``p`` in the open interval (0, 1).

    Closed forms except for the stable family, which runs a bracketing root
    search on the numeric distribution function (absolute tolerance well
    below 1e-8 for routine probability levels).
    """
    from scipy import special

    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    if isinstance(spec, Gaussian):
        return spec.mu + math.sqrt(spec.sigma2) * float(special.ndtri(p))
    if isinstance(spec, StudentT):
        if math.isinf(spec.nu):
            return float(special.ndtri(p))
        if spec.nu == 1:
            return math.tan(math.pi * (p - 0.5))
        return float(special.stdtrit(spec.nu, p))
    if isinstance(spec, GPD):
        return float(_gpd_quantile(spec.gamma, spec.delta, p))
    if isinstance(spec, Stable):
        if spec.alpha == 2.0:
            return spec.sigma * math.sqrt(2.0) * float(special.ndtri(p))
        if spec.alpha == 1.0:
            return spec.sigma * math.tan(math.pi * (p - 0.5))
        return spec.sigma * _stable_quantile_unit(p, spec.alpha)
    raise TypeError(f"not a distribution spec: {spec!r}")
