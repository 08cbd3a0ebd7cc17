"""Monte Carlo null distributions of the statistic and persisted quantile tables.

Rejection thresholds are estimated by simulation: draw ``M`` independent
samples of size ``n`` from the null family, compute the statistic for each,
and read empirical quantiles off the sorted values.

Every Monte Carlo loop of the package (tables, power and size studies,
baseline thresholds, the spectrogram null) has one entry point,
:func:`_simulate`, and one RNG layout, version :data:`RNG_LAYOUT`. A
sampling job (:func:`_sample_job`) takes its replications in blocks of
``rows(n)`` (:func:`_block_rows`), and block ``b`` draws its rows
from substream ``base + b``. A block draws only the rows it uses: each
variate of a draw has its own counter range of the substream (see
:meth:`greenwood.rng.RngStream.generator`), so a short last block is the
first rows of a whole one. Replication ``r`` depends only on the base
stream, ``n`` and ``r``: results are bit-identical across runs, and fewer
replications give a prefix of more. A table build makes one job per null,
whose rows have the null's largest requested ``n``, and reads every smaller
``n`` from the first values of each row (:func:`build_quantile_table`).
The spectrogram null (:func:`greenwood.signal.estimate_spectrogram_null`)
is a job with one signal per block: signal ``s`` is drawn whole from
substream ``s``.

One command's simulations share one block schedule: the groups of a table
build, or the grid points of a power study, are the jobs of one
:func:`_simulate` call, whose ``(job, block)`` pairs, job-major, run
concurrently on the CPUs in the process's affinity mask (``taskset``
narrows it), the calling thread included. Each job is reduced (to its
quantile records, its rejection count) from its block results in block
order as soon as its last block is in. numpy's generator fills, FFTs and
ufuncs release the GIL, so the output is the same for any CPU count.

One assembler, :func:`_quantile_table`, makes the tables of
:func:`build_quantile_table` and :func:`greenwood.testing.baseline_table`.
Tables serialize to a small JSON document (see :meth:`QuantileTable.save`)
keyed by ``(family, params, n, c, side)``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, _whole, family_tag, params_dict, sample
from .rng import RngStream
from .statistic import modified_greenwood_batch

__all__ = [
    "BLOCK_VALUES",
    "ESTIMATOR_ID",
    "RNG_LAYOUT",
    "SCHEMA_VERSION",
    "QuantileTable",
    "TableCoverageError",
    "TableRequest",
    "atomic_open",
    "build_quantile_table",
    "empirical_quantile",
    "estimate_null_distribution",
    "json_text",
    "write_json",
]

SCHEMA_VERSION = 1
# Hyndman-Fan type 7: linear interpolation at h = (m - 1) p + 1 on sorted values
ESTIMATOR_ID = "type7_linear"

_SIDES = ("lower", "upper")

# table entry groups are spaced this far apart in stream-id space so the
# block substreams of different groups can never collide
GROUP_STRIDE = 1 << 32

# version of the replication-to-substream layout, recorded in every table and
# power sidecar: which generator values a replication reads. Each variate of a
# draw has its own counter range, a block draws only the rows it uses, (from
# layout 4) Student's t reads two normals at nu = 1 and one uniform at nu = 2,
# and a GPD reads exponentials, and (from layout 5) a table build groups its
# requests by null and reads every n of a group from the first n values of
# rows drawn at the group's largest n; the README's reproducibility notes say
# what earlier layouts read.
RNG_LAYOUT = 5
# values per block draw (512 KB of float64)
BLOCK_VALUES = 1 << 16


def _block_rows(n: int) -> int:
    """``rows(n)``: the rows of ``n`` values in a block of a sampling job, of an exact
    decision (:mod:`greenwood.testing`) or of a spectrogram's frames."""
    return max(1, BLOCK_VALUES // n)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate(jobs, reduce=None) -> list:
    """``reduce(j, values)`` for each job ``j`` of ``jobs``, all on one block schedule.

    A job is ``(blocks, block)``: ``block(b)`` returns the results of block
    ``b`` as an array, and ``values`` is those arrays concatenated in block
    order. Without ``reduce`` a job's result is its values. Sampling jobs
    come from :func:`_sample_job`.

    The calling thread and ``min(CPUs, pairs) - 1`` helper threads claim the
    ``(job, block)`` pairs of all jobs, job-major, from one iterator. The
    helpers are plain ``threading.Thread`` objects, started just before the
    calling thread's own claims and joined before the call returns or
    raises, so no thread outlives the call; with one CPU or one pair none
    is started. A job is reduced by the thread that finishes its last
    outstanding block, and its block results are dropped then, so at any
    time only the jobs with a block in flight, plus the one whose blocks are
    being claimed, hold values. A failing pair stops further claims; once
    the pairs already claimed are done, the failure of the lowest pair is
    raised, which is the one a serial loop would raise; an interrupt or an
    exit (an error that is not an ``Exception``) is raised ahead of any
    failure. Neither the values nor the error raised depend on the CPU
    count. A job of more blocks than a list can hold is a MemoryError
    before any block runs.
    """
    try:
        parts = [[None] * blocks for blocks, _ in jobs]
    except (OverflowError, MemoryError):  # a count too large to index, or to hold
        blocks = max(blocks for blocks, _ in jobs)
        raise MemoryError(f"Unable to allocate the results of {blocks} blocks") from None
    outstanding = [blocks for blocks, _ in jobs]
    results = [None] * len(jobs)
    errors = {}
    claims = ((j, b) for j, (blocks, _) in enumerate(jobs) for b in range(blocks))
    lock = threading.Lock()  # guards the claims and the outstanding counts
    stop = threading.Event()

    def run(j, b):
        parts[j][b] = jobs[j][1](b)
        with lock:
            outstanding[j] -= 1
            if outstanding[j]:
                return
        values = np.concatenate(parts[j])
        parts[j] = None
        results[j] = values if reduce is None else reduce(j, values)

    def drain():
        while not stop.is_set():
            with lock:
                pair = next(claims, None)
            if pair is None:
                return
            try:
                run(*pair)
            except BaseException as exc:  # raised below, once every helper is joined
                errors[pair] = exc
                stop.set()

    helpers = []
    try:
        for _ in range(min(_cpu_count(), sum(outstanding)) - 1):
            helper = threading.Thread(target=drain, daemon=True)
            helper.start()
            helpers.append(helper)
        drain()
    except BaseException:  # a helper that cannot start, or an interrupt between claims
        stop.set()
        raise
    finally:
        for t in helpers:
            t.join()
    if errors:  # an interrupt or exit before any failure, else the lowest pair's
        raise min(errors.items(), key=lambda e: (isinstance(e[1], Exception), e[0]))[1]
    return results


def _sample_job(
    spec: DistributionSpec, n: int, replications: int, stream: RngStream, row_fn
) -> tuple:
    """The :func:`_simulate` job of ``row_fn`` over ``replications`` samples of ``spec``.

    Every job that samples size-``n`` replications is made here. With
    ``rows = _block_rows(n)``, its block ``b`` is
    ``sample(spec, (k, n), stream.substream(b))`` for the
    ``k = min(rows, replications - b * rows)`` rows it still needs; being
    the first ``k`` rows of the whole ``(rows, n)`` draw, they do not
    depend on ``replications``. ``row_fn`` gets each block as one 2-D array
    it may overwrite and returns one result per row, so the job's values
    are in replication order.
    """
    rows = _block_rows(n)

    def block(b):
        k = min(rows, replications - b * rows)
        return row_fn(sample(spec, (k, n), stream.substream(b)))

    return (-(-replications // rows), block)


class TableCoverageError(KeyError):
    """Raised when a quantile table has no entry for the requested key."""

    def __init__(self, family: str, params: dict, n: int, c: float, side: str):
        super().__init__(
            f"no table entry for family={family} params={params} n={n} c={c} side={side}"
        )

    def __str__(self) -> str:  # KeyError quotes its payload; keep the message readable
        return self.args[0]


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` that replaces ``path`` only on success.

    On any exception the temp file is removed and an existing ``path`` is
    left as it was. The new file gets the permissions a plain ``open`` would
    give it (``0o666`` less the umask) rather than the owner-only ones the
    temp file is created with.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(doc) -> str:
    """``doc`` as the package writes JSON: indented by 2, keys sorted, plus a newline.

    A NaN or infinite number, which JSON cannot hold, is a ``ValueError``
    that names its key path, such as ``statistic`` or ``units[17].statistic``.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        # a circular document fails too, and has no end to walk
        found = _non_finite(doc, "") if str(exc).startswith("Out of range float") else None
        if found is None:
            raise
        raise ValueError(f"{found[0]} is {found[1]}, which JSON cannot hold") from None


def _non_finite(node, path: str):
    """``(path, value)`` of the first non-finite float in ``node``, in the encoder's order."""
    if isinstance(node, float):
        return None if math.isfinite(node) else (path, node)
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else str(k), node[k]) for k in sorted(node))
    elif isinstance(node, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for p, v in items:
        found = _non_finite(v, p)
        if found:
            return found
    return None


def write_json(path, doc) -> None:
    """Write ``doc`` atomically as :func:`json_text` gives it.

    A NaN or infinite number is the ``ValueError`` of :func:`json_text`,
    and then ``path`` is left as it was. The text is encoded whole and
    written in one call.
    """
    text = json_text(doc)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path):
    """The JSON document in the file ``path``; one nested too deeply to decode is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # neither a ValueError nor an OSError, which callers report
            raise ValueError("JSON nested too deeply to decode") from None


def empirical_quantile(values, p: float) -> float:
    """Order-statistic quantile with linear interpolation (Hyndman & Fan type 7).

    The bits of ``np.quantile(values, p, method="linear")``, found by
    partition rather than by sorting, with numpy's arithmetic step for step.
    With ``m`` values, ``h = (m - 1) * p`` in float64, ``lo = floor(h)`` and
    ``hi = min(lo + 1, m - 1)``; ``a`` and ``b`` are the order statistics of
    ranks ``lo`` and ``hi`` (counted from 0), ``t = h - lo`` and ``d = b - a``.
    The result is ``b - d * (1 - t)`` when ``t >= 0.5`` and ``a + d * t``
    otherwise. Rank ``m - 1`` is placed by the same partition, and a NaN
    there, which is where a NaN sorts, makes the result NaN. A zero result
    may differ from numpy's in sign only, as which of ``-0.0`` and ``0.0``
    lands on a rank depends on the partition call. The result always lies
    inside ``[min(values), max(values)]``.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("values must be a nonempty one-dimensional array")
    if not (0.0 < float(p) < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    m = x.size
    h = (m - 1) * float(p)
    lo = math.floor(h)
    hi = min(lo + 1, m - 1)
    ranked = np.partition(x, sorted({lo, hi, m - 1}))
    if math.isnan(ranked[-1]):
        return float(ranked[-1])
    a, b = float(ranked[lo]), float(ranked[hi])
    t, d = h - lo, b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def estimate_null_distribution(
    spec: DistributionSpec, n: int, replications: int, rng: RngStream
) -> np.ndarray:
    """Statistic values over ``replications`` independent size-``n`` null samples.

    With ``rows = _block_rows(n)``, replication ``r`` is row
    ``r % rows`` of the block drawn from ``rng.substream(r // rows)``.
    """
    return _simulate([_null_job(spec, [_whole("n", n, 2)], replications, rng)])[0][:, 0]


def _null_job(spec: DistributionSpec, sizes: list, replications: int, rng: RngStream) -> tuple:
    """The :func:`_simulate` job whose values hold the statistic over ``replications``
    samples, one column per size of the ascending ``sizes``: its rows have the
    largest size, and column ``i`` is the statistic of their first ``sizes[i]`` values."""
    replications = _whole("replications", replications, 1000)

    # modified_greenwood_batch is read at each call, so that a function bound to
    # the module attribute in its place (bench/spans.py's) sees every block
    def statistic(block):
        return modified_greenwood_batch(block, overwrite_input=True, sizes=sizes)

    return _sample_job(spec, sizes[-1], replications, rng, statistic)


@dataclass(frozen=True)
class TableRequest:
    """One quantile-table entry to build: a null, a sample size, a level, a tail."""

    spec: DistributionSpec
    n: int
    c: float
    side: str

    def __post_init__(self) -> None:
        _check_entry(self.n, self.c, self.side)
        object.__setattr__(self, "n", int(self.n))


def _check_entry(n, c: float, side: str) -> None:
    """Raise ValueError unless ``(n, c, side)`` can key a table entry."""
    _whole("n", n, 2)
    if not (0.0 < c < 0.5):
        raise ValueError("c must lie in (0, 0.5)")
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}")


def json_number(v):
    """``v`` as the JSON files store it: infinity as ``"inf"``, all else unchanged."""
    return "inf" if isinstance(v, float) and math.isinf(v) else v


def _canon_number(value) -> str:
    # + 0.0 keys -0.0 as 0.0, which it equals
    return str(json_number(float(value) + 0.0))


def _canon_value(value) -> str:
    # string params (the spectrogram geometry tags) are prefixed so they can
    # never collide with the canonical form of a number
    if isinstance(value, str):
        return "s:" + value
    return _canon_number(value)


def _entry_key(family: str, params: dict, n: int, c: float, side: str) -> tuple:
    canon_params = tuple(sorted((k, _canon_value(v)) for k, v in params.items()))
    return (family, canon_params, _whole("n", n, 2), _canon_number(c), side)


def _decode_param(value):
    if value == "inf":
        return math.inf
    return value if isinstance(value, str) else float(value)


def _record_from_json(entry: dict) -> dict:
    """A table entry read back from JSON, checked like a :class:`TableRequest`."""
    n, c, value = float(entry["n"]), float(entry["c"]), float(entry["value"])
    _check_entry(n, c, entry["side"])
    if not math.isfinite(value):
        raise ValueError(f"entry value must be finite, got {value!r}")
    return {
        "family": entry["family"],
        "params": {k: _decode_param(v) for k, v in entry["params"].items()},
        "n": int(n),
        "c": c,
        "side": entry["side"],
        "value": value,
    }


class QuantileTable:
    """Lookup table of Monte Carlo null quantiles.

    Entries are keyed by ``(family, params, n, c, side)``. For ``side ==
    "upper"`` the stored value is the ``1 - c`` empirical quantile of the null
    statistic (a rejection threshold for upper-tail tests); for ``side ==
    "lower"`` it is the ``c`` quantile.
    """

    def __init__(self, metadata: dict, records: list[dict]):
        self.metadata = dict(metadata)
        self._records: list[dict] = []
        self._values: dict[tuple, float] = {}
        for rec in records:
            self._add(rec)

    def _add(self, rec: dict) -> None:
        key = _entry_key(rec["family"], rec["params"], rec["n"], rec["c"], rec["side"])
        if key in self._values:
            raise ValueError(f"duplicate table entry {key}")
        self._records.append({**rec, "params": dict(rec["params"])})
        self._values[key] = float(rec["value"])

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[dict]:
        """Copies of the table entries, in insertion order, ``params`` included."""
        return [{**r, "params": dict(r["params"])} for r in self._records]

    def has(self, family: str, params: dict, n: int, c: float, side: str) -> bool:
        return _entry_key(family, params, n, c, side) in self._values

    def value(self, family: str, params: dict, n: int, c: float, side: str) -> float:
        """Stored quantile for the key; raises :class:`TableCoverageError` if absent."""
        try:
            return self._values[_entry_key(family, params, n, c, side)]
        except KeyError:
            raise TableCoverageError(family, params, n, c, side) from None

    def value_for(
        self,
        spec: DistributionSpec,
        n: int,
        c: float,
        side: str,
        extra_params: dict | None = None,
    ) -> float:
        """Like :meth:`value`, keyed by a spec plus optional extra key fields."""
        params = params_dict(spec)
        if extra_params:
            params.update(extra_params)
        return self.value(family_tag(spec), params, n, c, side)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": dict(self.metadata),
            "entries": [
                {
                    "family": r["family"],
                    "params": {k: json_number(v) for k, v in r["params"].items()},
                    "n": int(r["n"]),
                    "c": float(r["c"]),
                    "side": r["side"],
                    "value": float(r["value"]),
                }
                for r in self._records
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuantileTable":
        if not isinstance(doc, dict) or "schema_version" not in doc:
            raise ValueError("not a quantile table document")
        if doc["schema_version"] != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {doc['schema_version']!r}"
                f" (expected {SCHEMA_VERSION})"
            )
        try:
            records = [_record_from_json(entry) for entry in doc.get("entries", [])]
            return cls(doc.get("metadata", {}), records)
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed table document: {exc!r}") from None

    def save(self, path) -> None:
        """Write the table as JSON, atomically (see :func:`atomic_open`)."""
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "QuantileTable":
        return cls.from_json_dict(_read_json(path))


def build_quantile_table(requests, replications: int, rng: RngStream) -> QuantileTable:
    """Estimate every requested quantile and pack the results into a table.

    Requests of one null form a group. Group ``g`` (in first-seen order)
    draws the rows of its largest ``n``, ``N``, and its block ``b`` is
    ``sample(spec, (k, N), rng.substream(g * GROUP_STRIDE + b))`` for the
    ``k <= rows(N)`` rows it needs. Replication ``r`` at size ``n`` is the
    first ``n`` values of row ``r``, so it depends only on ``rng``, the
    group, ``N`` and ``r``, and the table is a pure function of
    ``(requests, replications, rng)``; the order of the sizes is not part of
    it. All groups share one block schedule, and each is reduced to its
    entries as soon as its last block is in. Entries follow the groups, and
    the requests within a group.
    """
    replications = _whole("replications", replications, 1000)
    groups = []
    for g, (spec, rs) in enumerate(_request_groups(requests).items()):
        sizes = sorted({r.n for r in rs})
        job = _null_job(spec, sizes, replications, rng.substream(g * GROUP_STRIDE))
        groups.append((job, params_dict(spec), rs))
    return _quantile_table(table_metadata(replications, rng), groups)


def _quantile_table(metadata: dict, groups: list) -> QuantileTable:
    """The table of ``metadata`` whose entries answer the requests of each group
    ``(job, params, requests)`` by :func:`quantile_record`, keyed by ``params``,
    from the values of the :func:`_simulate` job ``job``; all jobs share one schedule.
    A job's values hold one column per sample size of its requests, ascending,
    or are one column's values when its requests share one size."""

    def records(g, values):
        _, params, rs = groups[g]
        sizes = sorted({r.n for r in rs})
        columns = values.reshape(len(values), -1)
        return [quantile_record(r, params, columns[:, sizes.index(r.n)]) for r in rs]

    entries = _simulate([job for job, _, _ in groups], records)
    return QuantileTable(metadata, [rec for group in entries for rec in group])


def _request_groups(requests) -> dict:
    """``requests`` grouped by null, in first-seen order; a ValueError if one repeats."""
    seen = set()
    groups: dict[DistributionSpec, list[TableRequest]] = {}
    for r in requests:
        key = _entry_key(family_tag(r.spec), params_dict(r.spec), r.n, r.c, r.side)
        if key in seen:
            raise ValueError(f"duplicate request {key}")
        seen.add(key)
        groups.setdefault(r.spec, []).append(r)
    return groups


def quantile_record(request: TableRequest, params: dict, values) -> dict:
    """The table entry answering ``request`` from simulated null ``values``.

    ``params`` is the entry's key beyond the family; it is the null's own
    parameters, or those widened with extra fields (the spectrogram geometry).
    """
    p = 1.0 - request.c if request.side == "upper" else request.c
    return {
        "family": family_tag(request.spec),
        "params": params,
        "n": request.n,
        "c": request.c,
        "side": request.side,
        "value": empirical_quantile(values, p),
    }


def table_metadata(m: int, rng: RngStream, **extra) -> dict:
    """Table provenance: ``m`` pooled values per entry, the stream and its layout, the estimator.

    It also holds the numpy version, since numpy does not promise the same
    ``Generator`` streams across versions, and nothing that changes between runs.
    """
    return {
        "M": m,
        "master_seed": rng.master_seed,
        "stream_id": rng.stream_id,
        "rng_layout": RNG_LAYOUT,
        "estimator": ESTIMATOR_ID,
        "numpy_version": np.__version__,
        **extra,
    }
