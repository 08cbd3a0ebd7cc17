"""The modified Greenwood statistic, for one sample and row by row.

For a sample ``x_1, ..., x_n`` the modified Greenwood statistic is

    S_n = sum(|x_i|**2) / (sum(|x_i|))**2,

a scale-free ratio in ``[1/n, 1]`` that concentrates near ``1/n`` for light
tails and drifts toward 1 when a few observations dominate the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StatisticValue",
    "modified_greenwood",
    "modified_greenwood_batch",
]

# samples whose max|x| lies in [_LOW, _HIGH / n] are summed unscaled: no
# square, sum or squared sum can then overflow or underflow
_LOW = 2.0**-500
_HIGH = 2.0**500


@dataclass(frozen=True)
class StatisticValue:
    """A statistic value ``s_n`` together with the sample size it came from."""

    s_n: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (1.0 / self.n <= self.s_n <= 1.0):
            raise ValueError(f"s_n={self.s_n} outside [1/{self.n}, 1]")


def _validated(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if x.size < 2:
        raise ValueError("sample must contain at least 2 values")
    if not np.isfinite(x).all():
        raise ValueError("sample contains NaN or infinite values")
    return x


def _scaled(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` times the power of two that brings its max ``|x|`` into ``[0.5, 1)``.

    The scaling is exact for every value it keeps in the normal range and
    leaves any scale-free statistic unchanged, while squares, powers and
    sums no longer overflow or underflow.
    """
    return np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1])


def _in_range(denom, n: int):
    """Whether a row whose ``|x|`` sums to ``denom`` can skip the scaling of
    :func:`modified_greenwood`: then ``max|x|`` lies in its unscaled range."""
    # max|x| lies in [denom / n, denom]; the factor 2 absorbs the rounding of denom
    return (2.0 * n * _LOW <= denom) & (denom <= _HIGH / (2.0 * n))


def modified_greenwood(values) -> StatisticValue:
    """Compute ``S_n`` for a one-dimensional sample with at least one nonzero entry.

    Both sums go through exactly-rounded summation, so the result is invariant
    under permutations and sign flips of the input to the last bit, and exact
    scaling ``k * x`` cannot move it by more than a rounding step. A sample
    whose ``max|x|`` lies outside ``[2**-500, 2**500 / n]`` is first scaled by
    a power of two, so that no square or sum overflows or underflows.
    """
    x = _validated(values)
    ax = np.abs(x)
    n = x.size
    top = float(ax.max())
    if not (_LOW <= top and top * n <= _HIGH):
        ax = _scaled(ax)
    # fsum is exact for any iterable; a list is the fastest one to walk
    denom = math.fsum(ax.tolist())
    if denom == 0.0:
        raise ValueError("sample must contain at least one nonzero value")
    s = math.fsum((ax * ax).tolist()) / (denom * denom)
    # the exact ratio lives in [1/n, 1]; final roundings may leak a few ulps past
    return StatisticValue(min(1.0, max(1.0 / n, s)), n)


def modified_greenwood_batch(samples, overwrite_input: bool = False) -> np.ndarray:
    """Row-wise ``S_n`` over a 2-D array of samples.

    The Monte Carlo engines run on this path. Sums use pairwise ufunc
    reduction: deterministic for a fixed shape and independent of thread
    count, but not guaranteed to match the scalar path to the last bit.
    With ``overwrite_input`` a float64 ``samples`` array is used as scratch
    space (its values are lost), which saves two block-sized temporaries;
    the result is the same. Rows whose sums could overflow or underflow are
    first scaled by a power of two, as in :func:`modified_greenwood`.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be a 2-D array, one sample per row")
    m, n = x.shape
    if n < 2:
        raise ValueError("samples must have at least 2 columns")
    if not np.isfinite(x).all():
        raise ValueError("samples contain NaN or infinite values")
    ax = np.abs(x, out=x if overwrite_input else None)
    with np.errstate(all="ignore"):  # rows out of range are computed again below
        denom = np.add.reduce(ax, axis=1)
        if (denom == 0.0).any():
            raise ValueError("every sample must contain at least one nonzero value")
        inside = _in_range(denom, n)
        clean = inside.all()
        if not clean:  # scaled, before the squares overwrite their values
            far = ~inside
            redone = modified_greenwood_batch(_scaled(ax[far]), overwrite_input=True)
        squares = np.multiply(ax, ax, out=ax if overwrite_input else None)
        out = np.add.reduce(squares, axis=1) / (denom * denom)
    if not clean:
        out[far] = redone
    return np.clip(out, 1.0 / n, 1.0)


def _two_sum_columns(a: np.ndarray) -> tuple:
    """Each column of ``a`` (nonnegative, at least 2 rows) summed as ``hi + err``.

    Rows are added in halves, ``a[:k] + a[h:w]``, until one is left; a row
    without a partner is carried to the next level. Every addition is an
    error-free TwoSum (Knuth): ``x + y = s + e`` exactly, with ``s`` the
    rounded sum. ``hi`` is the sum the cascade ends with and ``err`` the
    rounded sum of all the ``e``, two additions per level.
    """
    w, m = a.shape
    err = None
    while w > 1:
        h = (w + 1) // 2
        k = w - h
        x, y = a[:k], a[h:w]
        s, e = np.empty((h, m)), np.empty((h, m))
        np.add(x, y, out=s[:k])
        z = s[:k] - x
        np.subtract(s[:k], z, out=e[:k])
        np.subtract(x, e[:k], out=e[:k])
        np.subtract(y, z, out=z)
        e[:k] += z
        if err is not None:
            e[:k] += err[:k]
            e[:k] += err[h:w]
        if h > k:  # the carried row
            s[k] = a[k]
            e[k] = 0.0 if err is None else err[k]
        a, err, w = s, e, h
    return a[0], err[0]


def _modified_greenwood_rows(samples) -> np.ndarray:
    """``modified_greenwood(row).s_n`` for every row of ``samples``, bit for bit.

    The rows must hold at least 2 finite values and a nonzero one each;
    ``samples`` is not changed. Both sums of a row come from
    :func:`_two_sum_columns`, which for most rows certifies the correctly
    rounded sum that ``math.fsum`` returns, and the ratio is then formed as
    in :func:`modified_greenwood`. A row whose sums cannot be certified, or
    that needs scaling, is handed to :func:`modified_greenwood` itself, and so
    is a lone row, for which the column cascade costs more than ``fsum``.
    """
    x = np.asarray(samples, dtype=np.float64)
    m, n = x.shape
    if m == 1:
        return np.array([modified_greenwood(x[0]).s_n])
    a = np.empty((n, 2 * m))  # column i sums row i's |x|, column m + i its squares
    with np.errstate(all="ignore"):  # rows out of range fall back below
        ax = np.abs(x.T, out=a[:, :m])
        np.multiply(ax, ax, out=a[:, m:])
        hi, err = _two_sum_columns(a)
        r = hi + err
        t = err - (r - hi)  # FastTwoSum: hi + err = r + t exactly, as |hi| >= |err|
        # The exact row sum is S = hi + E, E the exact sum of the TwoSum errors.
        # With u = 2**-53 and d = ceil(log2 n) levels, every level's sums add
        # up to at most (1 + u)**d * S and each |e| <= u * s, so
        # sum|e| <= d * u * (1 + u)**d * S. err sums the e on a tree of depth
        # 2d, so |err - E| <= gamma(2d) * sum|e| <= 2.0001 * d**2 * u**2 * S
        # (gamma(k) = k*u / (1 - k*u), d <= 64), and S <= r * (1 + 2u) for any
        # row accepted below. So |S - (r + t)| < 3 * d**2 * u**2 * r = delta,
        # the margin also covering the roundings of delta and of half - |t|.
        # r is then the correctly rounded S when S lies strictly inside r's
        # rounding interval, r +- half an ulp; that interval is lopsided at a
        # power of two, and a tie (|t| = half) is decided by the scalar path.
        d = max(1, math.ceil(math.log2(n)))
        delta = (3.0 * d * d * 2.0**-106) * r
        certain = (0.5 * np.spacing(r) - np.abs(t) > delta) & (np.frexp(r)[0] != 0.5)
        denom, num = r[:m], r[m:]
        out = np.clip(num / (denom * denom), 1.0 / n, 1.0)
    exact = certain[:m] & certain[m:] & _in_range(denom, n)
    for i in np.flatnonzero(~exact):
        out[i] = modified_greenwood(x[i]).s_n
    return out

