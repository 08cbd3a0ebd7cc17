"""The modified Greenwood statistic and its classical and normalized forms.

For a sample ``x_1, ..., x_n`` the modified Greenwood statistic is

    S_n = sum(|x_i|**2) / (sum(|x_i|))**2,

a scale-free ratio in ``[1/n, 1]`` that concentrates near ``1/n`` for light
tails and drifts toward 1 when a few observations dominate the sum. The
classical variant is the same ratio restricted to strictly positive samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StatisticValue",
    "classical_greenwood",
    "modified_greenwood",
    "modified_greenwood_batch",
    "normalized_statistic",
    "normalized_statistic_batch",
]


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

def modified_greenwood(values) -> StatisticValue:
    """Compute ``S_n`` for a one-dimensional sample with at least one nonzero entry.

    Both sums go through exactly-rounded summation, so the result is invariant
    under permutations and sign flips of the input to the last bit, and exact
    scaling ``k * x`` cannot move it by more than a rounding step.
    """
    x = _validated(values)
    ax = np.abs(x)
    # fsum is exact for any iterable; a list is the fastest one to walk
    denom = math.fsum(ax.tolist())
    if denom == 0.0:
        raise ValueError("sample must contain at least one nonzero value")
    s = math.fsum((ax * ax).tolist()) / (denom * denom)
    n = x.size
    # the exact ratio lives in [1/n, 1]; final roundings may leak a few ulps past
    return StatisticValue(min(1.0, max(1.0 / n, s)), n)


def classical_greenwood(values) -> StatisticValue:
    """Compute the classical statistic; defined for strictly positive samples only."""
    x = _validated(values)
    if (x <= 0.0).any():
        raise ValueError("classical statistic requires strictly positive values")
    return modified_greenwood(x)


def modified_greenwood_batch(samples, overwrite_input: bool = False) -> np.ndarray:
    """Row-wise ``S_n`` over a 2-D array of samples.

    The Monte Carlo engines run on this path. Sums use pairwise ufunc
    reduction: deterministic for a fixed shape and independent of thread
    count, but not guaranteed to match the scalar path to the last bit.
    With ``overwrite_input`` a float64 ``samples`` array is used as scratch
    space (its values are lost), which saves two block-sized temporaries;
    the result is the same.
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
    denom = np.add.reduce(ax, axis=1)
    if (denom == 0.0).any():
        raise ValueError("every sample must contain at least one nonzero value")
    squares = np.multiply(ax, ax, out=ax if overwrite_input else None)
    out = np.add.reduce(squares, axis=1) / (denom * denom)
    return np.clip(out, 1.0 / n, 1.0)


def normalized_statistic(stat: StatisticValue) -> float:
    """Centered and scaled form ``sqrt(n) * (n * S_n / 2 - 1)``.

    Under Gaussian data this converges to a standard normal as ``n`` grows,
    although the approach is slow enough to matter at practical sizes.
    """
    return math.sqrt(stat.n) * (stat.n * stat.s_n / 2.0 - 1.0)


def normalized_statistic_batch(s_values, n: int) -> np.ndarray:
    """Vectorized :func:`normalized_statistic` for values sharing one ``n``."""
    s = np.asarray(s_values, dtype=np.float64)
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.sqrt(n) * (n * s / 2.0 - 1.0)
