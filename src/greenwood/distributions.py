"""Samplers for the four data families.

Families covered: Gaussian, symmetric alpha-stable, Student's t (integer
degrees of freedom plus the Gaussian limit), and the generalized Pareto
distribution (GPD). Each family is a frozen spec dataclass that checks its
parameters; :func:`sample` is the one sampler, a pure function of the spec,
the sample size and an :class:`~greenwood.rng.RngStream`: calling it twice
with the same arguments returns identical arrays.

A sampler that maps more than one array of generator values (the stable
law, and Student's t at ``nu = 1`` and ``nu = 2``) allocates its output
once, then draws and maps it in pieces of ``_PIECE`` values, one generator
per variate reading on from piece to piece. A piece changes no bit of a
draw, and a draw holds at most its output plus a few pieces of work arrays.

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
from numpy.random import Generator

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


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int: the one rule for every count, size and length of the package.

    An int or an integral float is taken, so ``1000.0`` gives what ``1000``
    gives; anything else (a fraction, NaN, infinity, a string, ``None``) is a
    ValueError that names ``name``, and so is a whole number below ``least``.
    """
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


# values drawn and mapped at a time by a sampler with work arrays: 128 KB of
# float64 keeps a piece's arrays in cache (8192 values measured slower), and a
# draw allocates no block-sized temporary that the allocator would hand back
# to the kernel and fault in again at the next block
_PIECE = 16384


def _pieces(out: np.ndarray):
    """``out``'s values in row-major order, as consecutive contiguous views of
    at most ``_PIECE`` values each, which a generator fills through ``out=``."""
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _PIECE):
        yield flat[lo : lo + _PIECE]


def _uniform_angle(g: Generator, u: np.ndarray) -> None:
    """Fill ``u`` with the values of ``g.uniform(-pi/2, pi/2, u.size)``, bit for bit:
    numpy computes that as ``-pi/2 + pi * random()``, pi being ``pi/2 - (-pi/2)``."""
    g.random(out=u)
    u *= math.pi
    u += -math.pi / 2.0


def _gaussian(spec: Gaussian, n, rng: RngStream) -> np.ndarray:
    g = rng.generator()
    z = g.standard_normal(n)
    z *= math.sqrt(spec.sigma2)  # in place, the same bits as mu + sqrt(sigma2) * z
    z += spec.mu
    return z


def _stable(spec: Stable, n, rng: RngStream) -> np.ndarray:
    """Chambers-Mallows-Stuck draws, with ``U`` uniform on (-pi/2, pi/2) from
    variate 0 of the stream and ``W`` unit exponential from variate 1::

        alpha == 1:  X = tan(U)                        (no W is drawn)
        otherwise:   X = sin(alpha U) / cos(U)
                         * (W cos(U) / cos((1 - alpha) U))**((alpha - 1)/alpha)

    the second being the CMS map with its two powers merged into one.
    :func:`_cms` evaluates it in tangent form, from ``s = tan(alpha U / 2)``
    and ``T = tan(U)``::

        sin(alpha U)                = 2 s / (1 + s**2)
        1 / cos(U)                  = sqrt(1 + T**2)
        cos((1 - alpha) U) / cos(U) = (1 + s (2 T - s)) / (1 + s**2)

    (the last is cos(alpha U) + sin(alpha U) tan(U)). For every alpha in
    (0, 2], ``|alpha U / 2| <= |U| < pi/2``, so ``s`` and ``T`` are finite and
    of one sign, ``|2 T| > |s|``, and no step subtracts nearly equal
    numbers. numpy runs ``tan`` and ``**`` as SIMD kernels, where its ``sin``
    and ``cos`` are scalar libm calls. For alpha in {0.1, 0.3, 0.5, 0.9, 1.1,
    1.5, 1.9, 2} and ``U`` up to ``nextafter(pi/2, 0)``, a draw stays within
    ``max(12/alpha, 32)`` ulps of the ``sin``/``cos`` form. Both forms lose
    accuracy as alpha falls (through the power) and as alpha nears 2 from
    below (at the ends of ``U``); at its worst the tangent form is about as
    far from the exact map as the ``sin``/``cos`` form, and closer for most
    alpha.

    The scale is still an exact postmultiplier, so a draw of
    ``Stable(a, s)`` equals ``s`` times the draw of ``Stable(a, 1.0)`` from
    the same stream, bit for bit.

    ``U`` is drawn into the output a piece at a time (see :func:`_pieces`),
    and the piece's ``W`` and the map's two other arrays go to work arrays
    of one piece each.
    """
    out = np.empty(n)
    g = rng.generator()
    if spec.alpha == 1.0:
        for u in _pieces(out):
            _uniform_angle(g, u)
            np.tan(u, out=u)
            u *= spec.sigma
        return out
    g1 = rng.generator(variate=1)
    work = np.empty((3, min(_PIECE, out.size)))
    for u in _pieces(out):
        w, s, d = work[:, : u.size]
        _uniform_angle(g, u)
        g1.standard_exponential(out=w)
        _cms(spec.alpha, u, w, s, d)
        u *= spec.sigma
    return out


def _cms(a: float, u: np.ndarray, w: np.ndarray, s=None, d=None) -> np.ndarray:
    """The tangent-form CMS map of :func:`_stable` at ``alpha = a != 1``,
    evaluated in place over ``u``, which it returns, and ``w``; ``s`` and
    ``d``, arrays of ``u``'s shape, are taken as work space if given."""
    # in place, in the order of
    # sqrt(1 + T**2) * (2 s / (1 + s**2)) * (W / (1 + s (2 T - s)) * (1 + s**2))**((a - 1)/a);
    # the augmented operators keep numpy's fast paths for exponents such as 0.5
    s = np.multiply(0.5 * a, u, out=s)
    np.tan(s, out=s)
    np.tan(u, out=u)  # T
    d = np.add(u, u, out=d)
    d -= s
    d *= s
    d += 1.0
    w /= d
    q = np.multiply(s, s, out=d)
    q += 1.0
    w *= q
    s += s
    s /= q  # sin(a U)
    u *= u
    u += 1.0
    np.sqrt(u, out=u)
    u *= s
    w **= (a - 1.0) / a
    u *= w
    return u


def _student_t(spec: StudentT, n, rng: RngStream) -> np.ndarray:
    """Student's t draws, with ``Z`` normal and ``U`` uniform from variate 0
    of the stream and ``Z2`` normal or ``C`` chi-square from variate 1::

        nu = inf:    X = Z                    (the normal stream itself)
        nu = 1:      X = Z / |Z2|
        nu = 2:      X = a / sqrt((1 - a) (1 + a) / 2),   a = (2 U - 1) + 2**-53
        otherwise:   X = Z / sqrt(C / nu),    C of nu degrees of freedom

    ``|Z2|`` is the root of a chi-square of one degree. The nu = 2 map is the
    inverse distribution function (Jones, "Student's simplest distribution",
    The Statistician 51, 2002). ``random()`` returns multiples of 2**-53, so
    ``a`` is exact, its values lie symmetrically about 0, and it is never -1
    or 1: every draw is finite, and ``a`` and ``-a`` give opposite draws, bit
    for bit. No form uses a kernel that numpy runs as SIMD code with
    CPU-dependent bits: only ``sqrt``, ``abs`` and the basic operations.

    At nu = 1 and nu = 2, ``Z`` or ``U`` is drawn into the output a piece at
    a time (see :func:`_pieces`), and ``Z2``, or the map's two other arrays,
    go to work arrays of one piece each.
    """
    if spec.nu == 2:
        out = np.empty(n)
        g = rng.generator()
        work = np.empty((2, min(_PIECE, out.size)))
        for a in _pieces(out):
            d, e = work[:, : a.size]
            g.random(out=a)
            a += a  # in place, in the order of a / sqrt((1 - a) * (1 + a) / 2)
            a -= 1.0
            a += 2.0**-53
            np.subtract(1.0, a, out=d)
            d *= np.add(1.0, a, out=e)
            d /= 2.0
            a /= np.sqrt(d, out=d)
        return out
    if spec.nu == 1:
        out = np.empty(n)
        g, g1 = rng.generator(), rng.generator(variate=1)
        work = np.empty(min(_PIECE, out.size))
        for z in _pieces(out):
            w = work[: z.size]
            g.standard_normal(out=z)
            g1.standard_normal(out=w)
            z /= np.abs(w, out=w)
        return out
    z = rng.generator().standard_normal(n)
    if math.isinf(spec.nu):
        return z
    chi2 = rng.generator(variate=1).chisquare(spec.nu, n)
    chi2 /= spec.nu  # in place, in the order of z / sqrt(chi2 / nu)
    z /= np.sqrt(chi2, out=chi2)
    return z


def _gpd(spec: GPD, n, rng: RngStream) -> np.ndarray:
    """``(delta / gamma) * expm1(gamma * E)``, ``E`` unit exponential from
    variate 0 of the stream (``delta * E`` when ``gamma == 0``).

    This is the inverse distribution function read at ``1 - exp(-E)``, a
    uniform, with no ``log1p``; ``expm1`` keeps it accurate near both ends of
    the support, and is the one SIMD-dispatched kernel of the draw.
    """
    e = rng.generator().standard_exponential(n)
    if spec.gamma == 0.0:
        e *= spec.delta
    else:
        e *= spec.gamma
        np.expm1(e, out=e)
        e *= spec.delta / spec.gamma
    return e


# spec class -> sampling kernel; a kernel takes a validated spec and size
_KERNELS = {Gaussian: _gaussian, Stable: _stable, StudentT: _student_t, GPD: _gpd}


class _ContinuedStream(RngStream):
    """An :class:`~greenwood.rng.RngStream` on which each draw continues the last.

    ``generator(variate)`` returns the generator it made for ``variate`` at
    its first call, so consecutive ``sample(spec, n_i, stream)`` calls read
    on along each variate's counter range: their values, end to end, are
    ``sample(spec, sum(n_i), RngStream(stream.master_seed, stream.stream_id))``
    bit for bit. A long draw can thus be taken a piece at a time.
    """

    def generator(self, variate: int = 0) -> Generator:
        held = self.__dict__.setdefault("_held", {})
        if variate not in held:
            held[variate] = super().generator(variate)
        return held[variate]


def sample(spec: DistributionSpec, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` values of ``spec`` from ``rng``.

    ``n`` is a sample size, or an ``(m, n)`` shape for ``m`` samples of size
    ``n``, one per row. Each variate (the normals of a Gaussian, the
    exponentials of a GPD, the uniforms and exponentials of a stable, the
    normals and the second normals or chi-squares of a Student's t, or its
    uniforms at ``nu = 2``) is read in row-major order from its own counter
    range of ``rng`` (see :meth:`~greenwood.rng.RngStream.generator`). So
    ``sample(spec, (1, n), rng)[0]`` equals ``sample(spec, n, rng)`` bit for
    bit, and for ``k < m`` ``sample(spec, (k, n), rng)`` is the first ``k``
    rows of ``sample(spec, (m, n), rng)``.
    """
    _family_of(spec)  # a TypeError unless spec is a distribution spec
    if isinstance(n, tuple):
        if len(n) != 2:
            raise ValueError("a sample shape must be (m, n)")
        n = (_whole("m", n[0], 1), _whole("n", n[1], 1))
    else:
        n = _whole("n", n, 1)
    return _KERNELS[type(spec)](spec, n, rng)
