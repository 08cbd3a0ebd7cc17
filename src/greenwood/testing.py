"""Hypothesis tests built on the modified Greenwood statistic, plus baselines.

Every test, the five statistic-based ones and the two baselines, is decided
on one path: a :class:`TestSpec` checks the kind, the level, the table and
the null, and :func:`run_test` computes the statistic, reads its
threshold(s) with :func:`thresholds_for` and compares, as in
``run_test(TestSpec("mg2", 0.05, table), x)``. Ties reject, so every
rejection region is closed.

==============  =================  =============  ====================
kind            null               rejects when   threshold
==============  =================  =============  ====================
mg1             Gaussian           S_n <= q       table (c, lower)
mg2             Gaussian           S_n >= q       table (c, upper)
mg3_gpd         GPD, gamma = 0.5   S_n <= q       table (c, lower)
mg4_student_t   Student t, nu = 2  S_n <= q       table (c, lower)
mg_two_sided    ``null_spec``      outside [l,u]  table (c/2, both)
jarque_bera     Gaussian           JB >= q        simulated (1 - c)
ks_normality    Gaussian           D_n >= q       simulated (1 - c)
==============  =================  =============  ====================

* ``mg1`` and ``mg2`` test Gaussianity one-sided: ``mg2`` rejects for large
  ``S_n``, the heavy-tail direction, and ``mg1`` for small ``S_n``.
* ``mg3_gpd`` and ``mg4_student_t`` test H0: infinite variance, within the
  GPD family (boundary gamma = 0.5) and the Student t family (boundary
  nu = 2). Rejecting, for small ``S_n``, is evidence of tails lighter than
  the boundary case, i.e. of finite variance. ``mg3_gpd`` requires
  nonnegative observations.
* ``mg_two_sided`` tests against any tabulated null, given as the spec's
  ``null_spec``, with the level split evenly between the tails.
* ``jarque_bera`` is the moment-based normality test and ``ks_normality``
  the Kolmogorov-Smirnov distance to the normal fitted by moments. Their
  Monte Carlo critical values come from M = 100000 replications on a fixed
  internal seed, so they need no table. The package ships them for every
  n from 8 to 100, n = 150, 200, 250, 300, 400, 500, 750 and 1000, and
  c = 0.01, 0.025, 0.05 and 0.1, in ``baselines.json``, which is read on
  the first baseline threshold a process needs. Any other ``(n, c)`` is
  simulated as one job of the block engine
  (:func:`greenwood.critical._simulate`): the statistic is computed in
  place in each block, and the values are reduced to the quantile in block
  order, so a threshold does not depend on the CPU count. Either way a
  threshold is cached per ``(kind, n, c, M)``, and a packaged value is the
  bits its simulation gives: :func:`baseline_table` simulates the whole
  grid again, and ``baseline_table().save("src/greenwood/baselines.json")``,
  run from the repository root, rebuilds the file.

:func:`reject_rows` decides many samples at once and always reaches the
decision :func:`run_test` reaches on each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .critical import (
    QuantileTable,
    TableRequest,
    _sample_job,
    _simulate,
    empirical_quantile,
    quantile_record,
    table_metadata,
)
from .distributions import GPD, DistributionSpec, Gaussian, StudentT, params_dict
from .rng import RngStream
from .statistic import (
    _modified_greenwood_rows,
    _scaled,
    modified_greenwood,
    modified_greenwood_batch,
)

__all__ = [
    "GAUSSIAN_NULL",
    "GPD_BOUNDARY",
    "STUDENT_T_BOUNDARY",
    "MG_KINDS",
    "BASELINE_KINDS",
    "BASELINE_MIN_N",
    "TestOutcome",
    "TestSpec",
    "baseline_table",
    "ks_distance",
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
# the smallest sample a baseline test decides on
BASELINE_MIN_N = 8

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
# the (n, c) grid of the packaged thresholds, at M = _BASELINE_REPLICATIONS
_PACKAGED_N = (*range(BASELINE_MIN_N, 101), 150, 200, 250, 300, 400, 500, 750, 1000)
_PACKAGED_C = (0.01, 0.025, 0.05, 0.1)
# batch statistic values this close (relative) to a threshold are decided
# again on the scalar path; the two paths differ by a few ulps at most
_TIE_BAND = 1e-12
_baseline_cache: dict[tuple, float] = {}
# A baseline kernel computes a row unscaled when its fourth central moment
# (Jarque-Bera) or its variance (KS) is finite and at least _MOMENT_LOW: then
# no power of a deviation overflows, and the largest ones lie far above the
# underflow range. Any other row is computed again, scaled by a power of two;
# once scaled, only a row whose values are all equal is still out of range.
_MOMENT_LOW = 2.0**-900


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

    ``table`` is required for the mg kinds and ignored by the baselines.
    ``null_spec`` is required for ``mg_two_sided``; every other kind has a
    fixed null (see :func:`null_for`), and ``null_spec`` must be None or
    equal to it. ``extra_params`` widens the table key (the spectrogram
    pipeline uses this to keep time-frequency nulls separate from raw ones).
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
        fixed = _KINDS[self.kind][0]
        if fixed is None:
            if self.null_spec is None:
                raise ValueError(f"{self.kind} requires a null spec")
        elif self.null_spec not in (None, fixed):
            raise ValueError(f"{self.kind} is calibrated under {fixed!r}, not {self.null_spec!r}")


# --------------------------------------------------------------------------
# baselines


def _jb_values(x: np.ndarray, overwrite_input: bool = False) -> np.ndarray:
    # rows are samples; moment form n * (skew**2 / 6 + (kurt - 3)**2 / 24).
    # With overwrite_input the deviations are taken in x itself (its values
    # are lost), which leaves one block-sized temporary; the bits are the same,
    # but rows out of range (see _MOMENT_LOW) cannot be computed again. Only
    # standard normal draws, whose rows are never out of range, use it
    n = x.shape[1]
    with np.errstate(all="ignore"):  # rows out of range are computed again below
        d = np.subtract(x, x.mean(axis=1, keepdims=True), out=x if overwrite_input else None)
        d2 = d * d
        m2 = np.mean(d2, axis=1)
        d *= d2
        m3 = np.mean(d, axis=1)
        d2 *= d2
        m4 = np.mean(d2, axis=1)
        skew = m3 / (m2 * np.sqrt(m2))  # numpy's m2**1.5 has other bits on AVX-512
        kurt = m4 / (m2 * m2)
        out = n * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)
    far = ~(np.isfinite(m4) & (m4 >= _MOMENT_LOW))
    if far.any() and not overwrite_input:  # the scaled copy is scratch, and in range
        out[far] = _jb_values(_scaled(x[far]), overwrite_input=True)
    return out


def _sup_distance(u: np.ndarray) -> np.ndarray:
    # per row of u (a reference CDF at the sorted sample): sup distance to the ECDF
    n = u.shape[-1]
    i = np.arange(1, n + 1, dtype=np.float64)
    return np.maximum((i / n - u).max(axis=-1), (u - (i - 1.0) / n).max(axis=-1))


def _ks_values(x: np.ndarray, overwrite_input: bool = False) -> np.ndarray:
    # sup distance between the empirical CDF and the normal fitted by moments;
    # with overwrite_input x is sorted and standardized in place (its values
    # are lost), so no block-sized temporary is made before the distance. As
    # in _jb_values, rows out of range are computed again unless overwrite_input
    from scipy import special

    with np.errstate(all="ignore"):  # rows out of range are computed again below
        mean = x.mean(axis=1, keepdims=True)
        sd = x.std(axis=1, ddof=1, keepdims=True)
        z = x if overwrite_input else x.copy()
        z.sort(axis=1)
        z -= mean
        z /= sd
        out = _sup_distance(special.ndtr(z, out=z))
        far = ~(np.isfinite(sd) & (sd * sd >= _MOMENT_LOW))[:, 0]
    if far.any() and not overwrite_input:
        out[far] = _ks_values(_scaled(x[far]), overwrite_input=True)
    return out


_BASELINE_VALUES = {"jarque_bera": _jb_values, "ks_normality": _ks_values}


def ks_distance(probs) -> float:
    """Sup distance between an empirical CDF and the CDF that produced ``probs``.

    ``probs`` must be the reference CDF evaluated at the *sorted* sample.
    """
    u = np.asarray(probs, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("probs must be a nonempty one-dimensional array")
    return float(_sup_distance(u))


def _baseline_job(kind: str, n: int, replications: int) -> tuple:
    """The :func:`_simulate` job of ``kind``'s statistic over standard normal samples.

    Both baseline statistics are location-scale free, so standard normal
    draws suffice. Block ``b`` of ``(kind, n)`` is substream
    ``(kind_code << 56) + (n << 16) + b`` of the fixed internal seed, clear
    of the blocks of ``n + 1`` while there are fewer than 2**16 of them: at
    M = 100000, for n <= 32768. Beyond that, a threshold's one-row blocks
    run into the substreams of ``n + 1``.
    """
    stream = RngStream(_BASELINE_SEED, (BASELINE_KINDS.index(kind) << 56) + (n << 16))
    kernel = partial(_BASELINE_VALUES[kind], overwrite_input=True)
    return _sample_job(GAUSSIAN_NULL, n, replications, stream, kernel)


def _baseline_params(kind: str) -> dict:
    """The key fields of ``kind``'s entries beyond family ``gaussian``."""
    return {**params_dict(GAUSSIAN_NULL), "statistic": kind}


@cache
def _packaged_table() -> QuantileTable:
    """The thresholds shipped in ``baselines.json``, read once per process."""
    from importlib import resources  # only a process that needs a baseline threshold pays for it

    with resources.as_file(resources.files("greenwood") / "baselines.json") as path:
        return QuantileTable.load(path)


def _baseline_threshold(kind: str, n: int, c: float, replications: int) -> float:
    """Upper-tail Monte Carlo critical value for a baseline statistic.

    Cached per ``(kind, n, c, M)`` for the process lifetime. At the default
    M a key that ``baselines.json`` holds is read from it; any other key is
    simulated as the job of :func:`_baseline_job`, which gives the packaged
    values too.
    """
    key = (kind, n, c, replications)
    cached = _baseline_cache.get(key)
    if cached is not None:
        return cached
    params = _baseline_params(kind)
    table = _packaged_table() if replications == _BASELINE_REPLICATIONS else None
    if table is not None and table.has("gaussian", params, n, c, "upper"):
        thr = table.value("gaussian", params, n, c, "upper")
    else:
        values = _simulate([_baseline_job(kind, n, replications)])[0]
        thr = empirical_quantile(values, 1.0 - c)
    _baseline_cache[key] = thr
    return thr


def baseline_table() -> QuantileTable:
    """Simulate the packaged baseline thresholds again, as one :func:`_simulate` call.

    The grid is both kinds at every packaged ``(n, c)``, at M = 100000; each
    ``(kind, n)`` is the job :func:`_baseline_threshold` simulates on a
    miss, so every value is the bits that path gives. The metadata are
    :func:`~greenwood.critical.table_metadata` of the internal seed.
    """
    keys = [(kind, n) for kind in BASELINE_KINDS for n in _PACKAGED_N]

    def records(j, values):
        kind, n = keys[j]
        requests = (TableRequest(GAUSSIAN_NULL, n, c, "upper") for c in _PACKAGED_C)
        return [quantile_record(r, _baseline_params(kind), values) for r in requests]

    jobs = [_baseline_job(kind, n, _BASELINE_REPLICATIONS) for kind, n in keys]
    metadata = table_metadata(_BASELINE_REPLICATIONS, RngStream(_BASELINE_SEED))
    return QuantileTable(metadata, [rec for group in _simulate(jobs, records) for rec in group])


def _baseline_sample(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if x.size < BASELINE_MIN_N:
        raise ValueError(f"baseline tests need at least {BASELINE_MIN_N} observations")
    if not np.isfinite(x).all():
        raise ValueError("sample contains NaN or infinite values")
    if not _varies(x[None, :])[0]:
        raise ValueError("sample is degenerate (all values equal)")
    return x


def _varies(x: np.ndarray) -> np.ndarray:
    """Whether each row of ``x`` holds two different values: the baselines'
    statistics are finite on exactly those finite rows, at any magnitude."""
    return (x != x[:, :1]).any(axis=1)


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
    """Thresholds of ``spec`` at sample size ``n``: from its table, or a baseline's own."""
    kind, c, table, extra = spec.kind, spec.c, spec.table, spec.extra_params
    if n != int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
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


def _accepted_rows(kind: str, x: np.ndarray) -> np.ndarray:
    """Which rows of the 2-D array ``x`` :func:`run_test` accepts as samples."""
    accepted = np.isfinite(x).all(axis=1)
    if kind in BASELINE_KINDS:
        accepted &= (x.shape[1] >= BASELINE_MIN_N) & _varies(x)
    else:
        accepted &= (x.shape[1] >= 2) & (x != 0.0).any(axis=1)
        if kind == "mg3_gpd":
            accepted &= ~(x < 0.0).any(axis=1)
    return accepted


def _statistic_rows(kind: str):
    """The kernel whose value on each accepted row is :func:`run_test`'s statistic, bit for bit."""
    return _BASELINE_VALUES.get(kind, _modified_greenwood_rows)


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
    clean = _accepted_rows(kind, x)
    statistic = _BASELINE_VALUES.get(kind, modified_greenwood_batch)
    s = np.full(len(x), np.nan)
    s[clean] = statistic(x if clean.all() else x[clean])
    t = np.asarray(thresholds, dtype=np.float64)
    near = (np.abs(s[:, None] - t) <= _TIE_BAND * np.abs(t)).any(axis=1)
    reject = _rejects(kind, s, thresholds)
    for i in np.flatnonzero(near | ~np.isfinite(s)):
        reject[i] = run_test(spec, x[i]).reject
    return reject
