"""Samplers for the four data families.

Families covered: Gaussian, symmetric alpha-stable, Student's t (integer
degrees of freedom plus the Gaussian limit), and the generalized Pareto
distribution (GPD). Each family is a frozen spec dataclass that checks its
parameters; :func:`sample` is the one sampler, a pure function of the spec,
the sample size and an :class:`~greenwood.rng.RngStream`: calling it twice
with the same arguments returns identical arrays.

Conventions
-----------
* The stable characteristic function is ``exp(-sigma**alpha * |t|**alpha)``,
  so ``alpha == 2`` is a Gaussian with variance ``2 * sigma**2`` (not 1).
* ``StudentT(math.inf)`` is the standard Gaussian limit.
* The GPD is supported on ``[0, inf)`` for ``gamma >= 0`` and on
  ``[0, -delta/gamma)`` for ``gamma < 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    "family_tag",
    "params_dict",
    "sample",
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


def _gaussian(spec: Gaussian, n, rng: RngStream) -> np.ndarray:
    g = rng.generator()
    z = g.standard_normal(n)
    z *= math.sqrt(spec.sigma2)  # in place, the same bits as mu + sqrt(sigma2) * z
    z += spec.mu
    return z


def _stable(spec: Stable, n, rng: RngStream) -> np.ndarray:
    """Chambers-Mallows-Stuck map.

    With ``U`` uniform on (-pi/2, pi/2) from variate 0 of the stream and
    ``W`` unit exponential from variate 1::

        alpha == 1:  X = tan(U)
        otherwise:   X = sin(alpha U) / cos(U)**(1/alpha)
                         * (cos((1 - alpha) U) / W)**((1 - alpha)/alpha)

    The scale enters as an exact postmultiplier, so a draw of
    ``Stable(a, s)`` equals ``s`` times the draw of ``Stable(a, 1.0)`` from
    the same stream, bit for bit.
    """
    u = rng.generator().uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.generator(variate=1).standard_exponential(n)
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


def _student_t(spec: StudentT, n, rng: RngStream) -> np.ndarray:
    # nu = inf is the standard normal stream itself; chi2 comes from variate 1
    z = rng.generator().standard_normal(n)
    if math.isinf(spec.nu):
        return z
    chi2 = rng.generator(variate=1).chisquare(spec.nu, n)
    chi2 /= spec.nu  # in place, in the order of z / sqrt(chi2 / nu)
    z /= np.sqrt(chi2, out=chi2)
    return z


def _gpd_quantile(gamma: float, delta: float, p):
    # expm1/log1p keep the inverse accurate near both support ends
    p = np.asarray(p, dtype=np.float64)
    if gamma == 0.0:
        out = -delta * np.log1p(-p)
    else:
        out = (delta / gamma) * np.expm1(-gamma * np.log1p(-p))
    return out


def _gpd(spec: GPD, n, rng: RngStream) -> np.ndarray:
    # inverts the distribution function
    return _gpd_quantile(spec.gamma, spec.delta, rng.generator().random(n))


# spec class -> sampling kernel; a kernel takes a validated spec and size
_KERNELS = {Gaussian: _gaussian, Stable: _stable, StudentT: _student_t, GPD: _gpd}


def sample(spec: DistributionSpec, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` values of ``spec`` from ``rng``.

    ``n`` is a sample size, or an ``(m, n)`` shape for ``m`` samples of size
    ``n``, one per row. Each variate (the one draw of a Gaussian or GPD, the
    uniforms and exponentials of a stable, the normals and chi-squares of a
    Student's t) is read in row-major order from its own counter range of
    ``rng`` (see :meth:`~greenwood.rng.RngStream.generator`). So
    ``sample(spec, (1, n), rng)[0]`` equals ``sample(spec, n, rng)`` bit for
    bit, and for ``k < m`` ``sample(spec, (k, n), rng)`` is the first ``k``
    rows of ``sample(spec, (m, n), rng)``.
    """
    kernel = _KERNELS.get(type(spec))
    if kernel is None:
        raise TypeError(f"not a distribution spec: {spec!r}")
    return kernel(spec, _check_size(n), rng)
