"""Hypothesis tests built on the modified Greenwood statistic, plus baselines.

Every test, the five statistic-based ones and the two baselines, is decided
on one path: a :class:`TestSpec` checks the kind, the level, the table and
the null, and :func:`run_test` computes the statistic, reads its
threshold(s) with :func:`thresholds_for` and compares, as in
``run_test(TestSpec("mg2", 0.05, table), x)``. Ties reject, so every
rejection region is closed.

==============  =================  =============  =============================
kind            null               rejects when   threshold
==============  =================  =============  =============================
mg1             Gaussian           S_n <= q       table (c, lower)
mg2             Gaussian           S_n >= q       table (c, upper)
mg3_gpd         GPD, gamma = 0.5   S_n <= q       table (c, lower)
mg4_student_t   Student t, nu = 2  S_n <= q       table (c, lower)
mg_two_sided    ``null_spec``      outside [l,u]  table (c/2, both)
jarque_bera     Gaussian           JB >= q        packaged or simulated (1 - c)
ks_normality    Gaussian           D_n >= q       packaged or simulated (1 - c)
==============  =================  =============  =============================

One entry of the private registry ``_KINDS`` defines a kind, for testing,
power, signal and the CLI alike: its null, its rejecting tails, its exact
row kernel (:func:`run_test`'s statistic) and fast batch kernel, its
smallest sample, its row refusals, and whether it reads a table. The order
of the baselines in it is their ``kind_code`` in the substreams of their
thresholds: 0 for Jarque-Bera, 1 for KS.

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

A sample is refused with a ``ValueError`` by the first check it fails, in this
order: ``mg3_gpd`` refuses a negative value; a sample needs 2 values (mg kinds)
or ``BASELINE_MIN_N`` (baselines); every value must be finite; an mg kind needs
a nonzero value, a baseline two different values. :func:`reject_rows` decides
the rows of a 2-D array at once and always reaches the decision
:func:`run_test` reaches on each of them, or raises the error of the first
one it refuses.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .critical import (
    QuantileTable,
    TableRequest,
    _sample_job,
    _simulate,
    _whole,
    empirical_quantile,
    quantile_record,
    table_metadata,
)
from .distributions import GPD, DistributionSpec, Gaussian, StudentT, params_dict
from .rng import RngStream
from .statistic import _modified_greenwood_rows, _scaled, modified_greenwood_batch

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
    "reject_rows",
    "run_test",
    "thresholds_for",
]

GAUSSIAN_NULL = Gaussian(0.0, 1.0)
GPD_BOUNDARY = GPD(0.5, 1.0)  # last shape with infinite variance
STUDENT_T_BOUNDARY = StudentT(2)  # last integer nu with infinite variance

_BASELINE_SEED = 271828182845
_BASELINE_REPLICATIONS = 100000
# fast statistic values this close (relative) to a threshold are decided
# again with the exact kernel; the two differ by a few ulps at most
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
    ``null_spec`` holds the null the kind is calibrated under: the given one
    for ``mg_two_sided``, which requires it, else the kind's fixed null,
    which a given one must equal. ``extra_params`` widens the table key (the
    spectrogram pipeline uses this to keep time-frequency nulls separate).
    """

    __test__ = False  # keep pytest from collecting the Test* name

    kind: str
    c: float = 0.05
    table: QuantileTable | None = None
    null_spec: DistributionSpec | None = None
    extra_params: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        entry = _KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown test kind {self.kind!r}")
        if not (0.0 < self.c < 0.5):
            raise ValueError("c must lie in (0, 0.5)")
        if entry.tabled and self.table is None:
            raise ValueError(f"kind {self.kind!r} requires a quantile table")
        null = self.null_spec if entry.null is None else entry.null
        if null is None:
            raise ValueError(f"{self.kind} requires a null spec")
        if self.null_spec not in (None, null):
            raise ValueError(f"{self.kind} is calibrated under {null!r}, not {self.null_spec!r}")
        object.__setattr__(self, "null_spec", null)


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


def ks_distance(probs) -> float:
    """Sup distance between an empirical CDF and the CDF that produced ``probs``.

    ``probs`` must be the reference CDF evaluated at the *sorted* sample.
    """
    u = np.asarray(probs, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("probs must be a nonempty one-dimensional array")
    return float(_sup_distance(u))


# --------------------------------------------------------------------------
# the kinds


@dataclass(frozen=True)
class _Kind:
    """One test kind, as :data:`_KINDS` states it for testing, power, signal and the CLI."""

    null: DistributionSpec | None  # the null it is calibrated under; None: the spec's own
    sides: tuple  # the tails that reject, each at level c / len(sides)
    exact: Callable  # rows -> run_test's statistic of each row, bit for bit
    fast: Callable  # rows -> the batch statistic, within a few ulps of exact
    least: int  # the smallest sample it decides on
    short: str  # the error of a shorter sample
    refusals: tuple  # the row checks of a sample, in order (see _refusal)
    tabled: bool  # whether its thresholds come from a quantile table


# A row check is (rows of a 2-D block it accepts, the error of a row it
# refuses); _SHORT holds the place of the size check against the kind's least.
_SHORT = None
_FINITE = (lambda x: np.isfinite(x).all(axis=1), "sample contains NaN or infinite values")
_NONNEGATIVE = (
    lambda x: ~(x < 0.0).any(axis=1), "gpd-family test requires nonnegative observations"
)
_NONZERO = (lambda x: (x != 0.0).any(axis=1), "sample must contain at least one nonzero value")
# the baselines' statistics are finite on exactly the finite rows that hold
# two different values
_VARIED = (lambda x: (x != x[:, :1]).any(axis=1), "sample is degenerate (all values equal)")
# the mg kinds' fast kernel reads modified_greenwood_batch at each call, so that
# a function bound to the module attribute in its place (bench/spans.py's) sees
# every batch
_mg = partial(_Kind, exact=_modified_greenwood_rows, least=2, tabled=True,
              fast=lambda x: modified_greenwood_batch(x),
              short="sample must contain at least 2 values", refusals=(_SHORT, _FINITE, _NONZERO))
_baseline = partial(_Kind, GAUSSIAN_NULL, ("upper",), least=8, tabled=False,
                    short="baseline tests need at least 8 observations",
                    refusals=(_SHORT, _FINITE, _VARIED))

# kind -> its entry, in the order of the --kind choices. The baselines' order
# is their kind_code in the substreams of _baseline_job, so it must not change.
_KINDS = {
    "mg1": _mg(GAUSSIAN_NULL, ("lower",)),
    "mg2": _mg(GAUSSIAN_NULL, ("upper",)),
    "mg3_gpd": _mg(GPD_BOUNDARY, ("lower",), refusals=(_NONNEGATIVE, _SHORT, _FINITE, _NONZERO)),
    "mg4_student_t": _mg(STUDENT_T_BOUNDARY, ("lower",)),
    "mg_two_sided": _mg(None, ("lower", "upper")),
    "jarque_bera": _baseline(exact=_jb_values, fast=_jb_values),
    "ks_normality": _baseline(exact=_ks_values, fast=_ks_values),
}
MG_KINDS = tuple(kind for kind, entry in _KINDS.items() if entry.tabled)
BASELINE_KINDS = tuple(kind for kind, entry in _KINDS.items() if not entry.tabled)
# the smallest sample a baseline test decides on
BASELINE_MIN_N = min(_KINDS[kind].least for kind in BASELINE_KINDS)

# the (n, c) grid of the packaged thresholds, at M = _BASELINE_REPLICATIONS
_PACKAGED_N = (*range(BASELINE_MIN_N, 101), 150, 200, 250, 300, 400, 500, 750, 1000)
_PACKAGED_C = (0.01, 0.025, 0.05, 0.1)


# --------------------------------------------------------------------------
# baseline thresholds


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
    kernel = partial(_KINDS[kind].fast, overwrite_input=True)
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


# --------------------------------------------------------------------------
# dispatch


def _rejects(kind: str, s, t: tuple):
    """Whether statistic value(s) ``s`` fall in the rejection region of thresholds ``t``."""
    reject = False
    for side, q in zip(_KINDS[kind].sides, t):
        reject = reject | (s <= q if side == "lower" else s >= q)
    return reject


def thresholds_for(spec: TestSpec, n: int) -> tuple:
    """Thresholds of ``spec`` at sample size ``n``: from its table, or a baseline's own."""
    kind, c, table, extra = spec.kind, spec.c, spec.table, spec.extra_params
    n = _sample_size(kind, n)  # before any simulation
    if not _KINDS[kind].tabled:
        return (_baseline_threshold(kind, n, c, _BASELINE_REPLICATIONS),)
    sides = _KINDS[kind].sides
    return tuple(table.value_for(spec.null_spec, n, c / len(sides), s, extra) for s in sides)


def _sample_size(kind: str, n) -> int:
    """``n`` as an int; a ValueError unless ``kind`` decides on samples of ``n`` values."""
    entry = _KINDS[kind]
    # a tabled kind refuses a short n in _whole's words, as its table key does
    n = _whole("n", n, entry.least if entry.tabled else 0)
    if n < entry.least:
        raise ValueError(entry.short)
    return n


def run_test(spec: TestSpec, sample) -> TestOutcome:
    """Run the test described by ``spec`` on one sample: statistic, thresholds, compare."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    kind, t = spec.kind, _block_thresholds(spec, x[None, :])
    s = float(_KINDS[kind].exact(x[None, :])[0])
    return TestOutcome(kind, x.size, spec.c, s, t, _rejects(kind, s, t))


def _refusal(kind: str, x: np.ndarray):
    """``(i, error)`` of the first row ``i`` of the 2-D block ``x`` that ``kind`` refuses
    as a sample, by the kind's row checks in order; ``None`` if it has none."""
    entry = _KINDS[kind]
    m, n = x.shape
    checks = [  # (rows each check accepts, the error of a row it refuses)
        (np.full(m, n >= entry.least), entry.short) if check is _SHORT
        else (check[0](x), check[1])
        for check in entry.refusals
    ]
    accepted = np.logical_and.reduce([rows for rows, _ in checks])
    if accepted.all():
        return None
    i = int(accepted.argmin())
    return i, ValueError(next(message for rows, message in checks if not rows[i]))


def _block_thresholds(spec: TestSpec, x: np.ndarray) -> tuple:
    """``thresholds_for(spec, n)`` of the 2-D block ``x`` of size-``n`` samples, or the
    error :func:`run_test` on each row in turn raises first: the lookup's when an
    accepted row comes before the first refused row, else that row's."""
    refused = _refusal(spec.kind, x)
    if refused and refused[0] == 0:
        raise refused[1]  # before any lookup
    t = thresholds_for(spec, x.shape[1])
    if refused:
        raise refused[1]  # once the lookup has passed
    return t


def reject_rows(spec: TestSpec, rows) -> np.ndarray:
    """``run_test(spec, row).reject`` for every row of the 2-D ``rows``, decided in batch.

    The kind's fast statistic is compared with ``thresholds_for(spec, n)`` in
    one pass, once any error :func:`run_test` raises on a row has surfaced.
    The rows whose fast value is not finite, or lies within 1e-12 (relative)
    of a threshold, where the fast and exact sums could fall on different
    sides, are decided again in one call of the exact kernel.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("rows must be a 2-D array, one sample per row")
    t = np.asarray(_block_thresholds(spec, x))
    s = _KINDS[spec.kind].fast(x)
    near = (np.abs(s[:, None] - t) <= _TIE_BAND * np.abs(t)).any(axis=1)
    reject = _rejects(spec.kind, s, t)
    again = np.flatnonzero(near | ~np.isfinite(s))
    if again.size:
        reject[again] = _rejects(spec.kind, _KINDS[spec.kind].exact(x[again]), t)
    return reject
