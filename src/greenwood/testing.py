"""Hypothesis tests built on the modified Greenwood statistic, plus baselines.

Every test, the five statistic-based ones and the two baselines, is decided
on one path: a :class:`TestSpec` checks the kind, the level, the table and
the null, and :func:`run_test` computes the statistic, reads its
threshold(s) with :func:`thresholds_for` and compares. The public
``*_test`` functions build a spec and call :func:`run_test`. Ties reject, so
every rejection region is closed.

==================  =========================  =============  ==============
kind                null                       rejects when   reads table at
==================  =========================  =============  ==============
mg1                 Gaussian                   S_n <= q       (c, lower)
mg2                 Gaussian                   S_n >= q       (c, upper)
mg3_gpd             GPD, gamma = 0.5           S_n <= q       (c, lower)
mg4_student_t       Student t, nu = 2          S_n <= q       (c, lower)
mg_two_sided        any family                 outside [l,u]  (c/2, both)
==================  =========================  =============  ==============

``mg3_gpd`` and ``mg4_student_t`` probe the variance-finiteness boundary of
their family: small ``S_n`` is evidence of tails lighter than the boundary
case, i.e. of finite variance. The Jarque-Bera and fitted-normal
Kolmogorov-Smirnov baselines use Monte Carlo critical values simulated on a
fixed internal seed and cached per ``(kind, n, c, M)``.

:func:`reject_rows` decides many samples at once and always reaches the
decision :func:`run_test` reaches on each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .critical import QuantileTable, _simulate, empirical_quantile
from .distributions import GPD, DistributionSpec, Gaussian, StudentT
from .rng import RngStream
from .statistic import modified_greenwood, modified_greenwood_batch

__all__ = [
    "GAUSSIAN_NULL",
    "GPD_BOUNDARY",
    "STUDENT_T_BOUNDARY",
    "MG_KINDS",
    "BASELINE_KINDS",
    "TestOutcome",
    "TestSpec",
    "jarque_bera_test",
    "ks_distance",
    "ks_normality_test",
    "mg_gaussianity_test",
    "mg_infinite_variance_test_gpd",
    "mg_infinite_variance_test_t",
    "mg_two_sided_test",
    "null_for",
    "reject_rows",
    "run_test",
    "thresholds_for",
]

GAUSSIAN_NULL = Gaussian(0.0, 1.0)
GPD_BOUNDARY = GPD(0.5, 1.0)  # last shape with infinite variance
STUDENT_T_BOUNDARY = StudentT(2)  # last integer nu with infinite variance

MG_KINDS = ("mg1", "mg2", "mg3_gpd", "mg4_student_t", "mg_two_sided")
BASELINE_KINDS = ("jarque_bera", "ks_normality")

# kind -> (null it is calibrated under, tail that rejects); mg_two_sided takes
# its null from the caller and rejects in both tails at c/2 each
_KINDS = {
    "mg1": (GAUSSIAN_NULL, "lower"),
    "mg2": (GAUSSIAN_NULL, "upper"),
    "mg3_gpd": (GPD_BOUNDARY, "lower"),
    "mg4_student_t": (STUDENT_T_BOUNDARY, "lower"),
    "mg_two_sided": (None, "both"),
    "jarque_bera": (GAUSSIAN_NULL, "upper"),
    "ks_normality": (GAUSSIAN_NULL, "upper"),
}

_BASELINE_SEED = 271828182845
_BASELINE_REPLICATIONS = 100000
# batch statistic values this close (relative) to a threshold are decided
# again on the scalar path; the two paths differ by a few ulps at most
_TIE_BAND = 1e-12
_baseline_cache: dict[tuple, float] = {}


@dataclass(frozen=True)
class TestOutcome:
    """Decision record for one test run on one sample."""

    __test__ = False  # keep pytest from collecting the Test* name

    kind: str
    n: int
    c: float
    statistic: float
    thresholds: tuple
    reject: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "c": self.c,
            "statistic": self.statistic,
            "thresholds": list(self.thresholds),
            "reject": self.reject,
        }


@dataclass(frozen=True)
class TestSpec:
    """A test kind bound to its level, table and (where needed) null spec.

    ``table`` is required for the mg kinds and ignored by the baselines;
    ``null_spec`` is only consulted by ``mg_two_sided``. ``extra_params``
    widens the table key (the spectrogram pipeline uses this to keep
    time-frequency nulls separate from raw ones).
    """

    __test__ = False  # keep pytest from collecting the Test* name

    kind: str
    c: float = 0.05
    table: QuantileTable | None = None
    null_spec: DistributionSpec | None = None
    extra_params: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown test kind {self.kind!r}")
        if not (0.0 < self.c < 0.5):
            raise ValueError("c must lie in (0, 0.5)")
        if self.kind in MG_KINDS and self.table is None:
            raise ValueError(f"kind {self.kind!r} requires a quantile table")
        if null_for(self.kind, self.null_spec) is None:
            raise ValueError(f"{self.kind} requires a null spec")


def mg_gaussianity_test(
    sample,
    c: float,
    table: QuantileTable,
    side: str = "upper",
) -> TestOutcome:
    """One-sided Gaussianity test.

    ``side="upper"`` (kind ``mg2``) rejects for large ``S_n``, the heavy-tail
    direction; ``side="lower"`` (kind ``mg1``) rejects for small ``S_n``.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    kind = "mg2" if side == "upper" else "mg1"
    return run_test(TestSpec(kind, c, table), sample)


def mg_infinite_variance_test_gpd(sample, c: float, table: QuantileTable) -> TestOutcome:
    """Test H0: infinite variance within the GPD family (boundary gamma = 0.5).

    Requires nonnegative observations; rejecting (small ``S_n``) is evidence
    of finite variance.
    """
    return run_test(TestSpec("mg3_gpd", c, table), sample)


def mg_infinite_variance_test_t(sample, c: float, table: QuantileTable) -> TestOutcome:
    """Test H0: infinite variance within the Student t family (boundary nu = 2)."""
    return run_test(TestSpec("mg4_student_t", c, table), sample)


def mg_two_sided_test(
    sample,
    null_spec: DistributionSpec,
    c: float,
    table: QuantileTable,
) -> TestOutcome:
    """Two-sided test against an arbitrary null, level split evenly per tail."""
    return run_test(TestSpec("mg_two_sided", c, table, null_spec), sample)


# --------------------------------------------------------------------------
# baselines


def _jb_values(x: np.ndarray) -> np.ndarray:
    # rows are samples; moment form n * (skew**2 / 6 + (kurt - 3)**2 / 24)
    n = x.shape[1]
    d = x - x.mean(axis=1, keepdims=True)
    d2 = d * d
    m2 = np.mean(d2, axis=1)
    m3 = np.mean(d2 * d, axis=1)
    m4 = np.mean(d2 * d2, axis=1)
    skew = m3 / m2**1.5
    kurt = m4 / (m2 * m2)
    return n * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)


def _sup_distance(u: np.ndarray) -> np.ndarray:
    # per row of u (a reference CDF at the sorted sample): sup distance to the ECDF
    n = u.shape[-1]
    i = np.arange(1, n + 1, dtype=np.float64)
    return np.maximum((i / n - u).max(axis=-1), (u - (i - 1.0) / n).max(axis=-1))


def _ks_values(x: np.ndarray) -> np.ndarray:
    # sup distance between the empirical CDF and the normal fitted by moments
    from scipy import special

    mean = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, ddof=1, keepdims=True)
    return _sup_distance(special.ndtr((np.sort(x, axis=1) - mean) / sd))


_BASELINE_VALUES = {"jarque_bera": _jb_values, "ks_normality": _ks_values}


def ks_distance(probs) -> float:
    """Sup distance between an empirical CDF and the CDF that produced ``probs``.

    ``probs`` must be the reference CDF evaluated at the *sorted* sample.
    """
    u = np.asarray(probs, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("probs must be a nonempty one-dimensional array")
    return float(_sup_distance(u))


def _baseline_threshold(kind: str, n: int, c: float, replications: int) -> float:
    """Upper-tail Monte Carlo critical value for a baseline statistic.

    Simulated once per ``(kind, n, c, M)`` on a fixed internal seed and cached
    for the process lifetime; both baseline statistics are location-scale
    free, so standard normal draws suffice. The blocks of ``(kind, n)`` come
    from substreams ``(kind_code << 56) | (n << 16) | b`` of that seed.
    """
    key = (kind, n, c, replications)
    cached = _baseline_cache.get(key)
    if cached is not None:
        return cached
    kind_code = BASELINE_KINDS.index(kind)
    stream = RngStream(_BASELINE_SEED, (kind_code << 56) | (n << 16))
    values = _simulate(GAUSSIAN_NULL, n, replications, stream, _BASELINE_VALUES[kind])
    thr = empirical_quantile(values, 1.0 - c)
    _baseline_cache[key] = thr
    return thr


def _baseline_sample(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if x.size < 8:
        raise ValueError("baseline tests need at least 8 observations")
    if not np.isfinite(x).all():
        raise ValueError("sample contains NaN or infinite values")
    if x.std(ddof=1) == 0.0:
        raise ValueError("sample is degenerate (zero variance)")
    return x


def jarque_bera_test(sample, c: float = 0.05) -> TestOutcome:
    """Moment-based normality test, Monte Carlo critical value, rejects upward."""
    return run_test(TestSpec("jarque_bera", c), sample)


def ks_normality_test(sample, c: float = 0.05) -> TestOutcome:
    """Kolmogorov-Smirnov distance to the moment-fitted normal, rejects upward."""
    return run_test(TestSpec("ks_normality", c), sample)


# --------------------------------------------------------------------------
# dispatch


def null_for(kind: str, null_spec: DistributionSpec | None = None) -> DistributionSpec | None:
    """The null ``kind`` is calibrated under: its fixed one, else ``null_spec``.

    Only ``mg_two_sided`` has no fixed null; for it the result is
    ``null_spec``, which may be None.
    """
    null = _KINDS[kind][0]
    return null_spec if null is None else null


def _statistic(kind: str, sample) -> tuple:
    """``(value, n)`` of the statistic ``kind`` decides on."""
    if kind in BASELINE_KINDS:
        x = _baseline_sample(sample)
        return float(_BASELINE_VALUES[kind](x[None, :])[0]), x.size
    if kind == "mg3_gpd":
        sample = np.asarray(sample, dtype=np.float64)
        if sample.ndim == 1 and (sample < 0.0).any():
            raise ValueError("gpd-family test requires nonnegative observations")
    stat = modified_greenwood(sample)
    return stat.s_n, stat.n


def _rejects(kind: str, s, t: tuple):
    """Whether statistic value(s) ``s`` fall in the rejection region of thresholds ``t``."""
    side = _KINDS[kind][1]
    if side == "upper":
        return s >= t[0]
    if side == "lower":
        return s <= t[0]
    return (s <= t[0]) | (s >= t[1])


def thresholds_for(spec: TestSpec, n: int) -> tuple:
    """Thresholds of ``spec`` at sample size ``n``: simulated (baselines) or from its table."""
    kind, c, table, extra = spec.kind, spec.c, spec.table, spec.extra_params
    if kind in BASELINE_KINDS:
        return (_baseline_threshold(kind, n, c, _BASELINE_REPLICATIONS),)
    null, side = null_for(kind, spec.null_spec), _KINDS[kind][1]
    if side == "both":
        return (
            table.value_for(null, n, c / 2.0, "lower", extra),
            table.value_for(null, n, c / 2.0, "upper", extra),
        )
    return (table.value_for(null, n, c, side, extra),)


def run_test(spec: TestSpec, sample) -> TestOutcome:
    """Run the test described by ``spec`` on one sample: statistic, thresholds, compare."""
    s, n = _statistic(spec.kind, sample)
    t = thresholds_for(spec, n)
    return TestOutcome(spec.kind, n, spec.c, s, t, _rejects(spec.kind, s, t))


def reject_rows(spec: TestSpec, rows, thresholds: tuple) -> np.ndarray:
    """``run_test(spec, row).reject`` for every row of ``rows``, decided in batch.

    ``thresholds`` are ``thresholds_for(spec, n)``. The batch statistic is
    compared with them in one pass. A row is handed to :func:`run_test`
    itself when that path would refuse it (so its ``ValueError`` surfaces),
    when its batch value is not finite, or when that value lies within
    1e-12 (relative) of a threshold, where the batch and scalar sums could
    fall on different sides.
    """
    x = np.asarray(rows, dtype=np.float64)
    kind = spec.kind
    clean = np.isfinite(x).all(axis=1)
    if kind in BASELINE_KINDS:
        clean &= x.shape[1] >= 8
        statistic = _BASELINE_VALUES[kind]
    else:
        clean &= (x != 0.0).any(axis=1)
        if kind == "mg3_gpd":
            clean &= ~(x < 0.0).any(axis=1)
        statistic = modified_greenwood_batch
    s = np.full(len(x), np.nan)
    with np.errstate(all="ignore"):
        s[clean] = statistic(x if clean.all() else x[clean])
    t = np.asarray(thresholds, dtype=np.float64)
    near = (np.abs(s[:, None] - t) <= _TIE_BAND * np.abs(t)).any(axis=1)
    reject = _rejects(kind, s, thresholds)
    for i in np.flatnonzero(near | ~np.isfinite(s)):
        reject[i] = run_test(spec, x[i]).reject
    return reject
