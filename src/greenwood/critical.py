"""Monte Carlo null distributions of the statistic and persisted quantile tables.

Rejection thresholds are estimated by simulation: draw ``M`` independent
samples of size ``n`` from the null family, compute the statistic for each,
and read empirical quantiles off the sorted values.

Every Monte Carlo loop of the package (tables, power and size studies,
baseline thresholds) runs on one engine with one RNG layout, version
:data:`RNG_LAYOUT`: replications come in blocks of
``rows(n) = max(1, BLOCK_VALUES // n)``, and block ``b`` is one
``(rows(n), n)`` draw from substream ``base + b``. Blocks are always drawn
whole, so replication ``r`` depends only on the base stream, ``n`` and
``r``: results are bit-identical across runs, and fewer replications give
a prefix of more.

The blocks of one call run concurrently on the CPUs in the process's
affinity mask (``taskset`` narrows it), the calling thread included, on
one block runner, :func:`_map_blocks`. numpy's generator fills, FFTs and
ufuncs release the GIL, and results are put back in block order, so the
output is the same for any CPU count. The spectrogram null
(:func:`greenwood.signal.estimate_spectrogram_null`) runs on the same
runner with one signal per block: signal ``s`` is drawn whole from
substream ``s``.

Tables serialize to a small JSON document (see :meth:`QuantileTable.save`)
keyed by ``(family, params, n, c, side)``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import numpy.ma  # noqa: F401  (np.quantile imports it on its first call)

from .distributions import DistributionSpec, family_tag, params_dict, sample
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
    "write_json",
]

SCHEMA_VERSION = 1
# Hyndman-Fan type 7: linear interpolation at h = (m - 1) p + 1 on sorted values
ESTIMATOR_ID = "type7_linear"

_SIDES = ("lower", "upper")

# table entry groups are spaced this far apart in stream-id space so the
# block substreams of different groups can never collide
GROUP_STRIDE = 1 << 32

# version of the replication-to-substream layout; recorded in every table
# and power sidecar
RNG_LAYOUT = 2
# values per block draw (512 KB of float64)
BLOCK_VALUES = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(run, blocks: int) -> list:
    """``[run(b) for b in range(blocks)]``, with the blocks spread over the CPUs.

    With more than one block and more than one CPU, the calling thread and
    ``min(CPUs, blocks) - 1`` helper threads claim blocks from one counter.
    A failing block stops further claims; once the blocks already claimed
    are done, the failure of the lowest block is raised, which is the one a
    serial loop would raise.
    """
    helpers = min(_cpu_count(), blocks) - 1
    if helpers < 1:
        return [run(b) for b in range(blocks)]

    results = [None] * blocks
    errors = {}
    claims = iter(range(blocks))
    claim_lock = threading.Lock()
    stop = threading.Event()

    def drain():
        while not stop.is_set():
            with claim_lock:
                b = next(claims, None)
            if b is None:
                return
            try:
                results[b] = run(b)
            except Exception as exc:
                errors[b] = exc
                stop.set()

    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        try:
            drain()
        except BaseException:  # an interrupt: the helpers claim nothing more
            stop.set()
            raise
    for f in futures:
        f.result()
    if errors:
        raise errors[min(errors)]
    return results


def _simulate(spec: DistributionSpec, n: int, replications: int, rng: RngStream, row_fn):
    """``row_fn`` applied to ``replications`` size-``n`` samples of ``spec``.

    Block ``b`` is ``sample(spec, (rows, n), rng.substream(b))`` with
    ``rows = max(1, BLOCK_VALUES // n)``; ``row_fn`` gets the rows of each
    block still needed, as one 2-D array it may overwrite, and returns one
    result per row. The blocks run on :func:`_map_blocks`, and the results
    are concatenated in replication order.
    """
    rows = max(1, BLOCK_VALUES // n)
    blocks = -(-replications // rows)

    def run(b):
        block = sample(spec, (rows, n), rng.substream(b))
        return row_fn(block[: replications - b * rows])

    return np.concatenate(_map_blocks(run, blocks))


class TableCoverageError(KeyError):
    """Raised when a quantile table has no entry for the requested key."""

    def __init__(self, family: str, params: dict, n: int, c: float, side: str):
        self.key = (family, dict(params), n, c, side)
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


def write_json(path, doc) -> None:
    """Write ``doc`` atomically as indented, key-sorted JSON plus a newline."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def empirical_quantile(values, p: float) -> float:
    """Order-statistic quantile with linear interpolation (type 7).

    ``h = (m - 1) p + 1`` on the sorted values; the result always lies inside
    ``[min(values), max(values)]``.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("values must be a nonempty one-dimensional array")
    if not (0.0 < float(p) < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    return float(np.quantile(x, float(p), method="linear"))


def estimate_null_distribution(
    spec: DistributionSpec, n: int, replications: int, rng: RngStream
) -> np.ndarray:
    """Statistic values over ``replications`` independent size-``n`` null samples.

    With ``rows = max(1, BLOCK_VALUES // n)``, replication ``r`` is row
    ``r % rows`` of the block drawn from ``rng.substream(r // rows)``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if replications < 1000:
        raise ValueError("replications must be at least 1000")

    def statistic(block):
        return modified_greenwood_batch(block, overwrite_input=True)

    return _simulate(spec, n, replications, rng, statistic)


@dataclass(frozen=True)
class TableRequest:
    """One quantile-table entry to build: a null, a sample size, a level, a tail."""

    spec: DistributionSpec
    n: int
    c: float
    side: str

    def __post_init__(self) -> None:
        _check_entry(self.n, self.c, self.side)


def _check_entry(n, c: float, side: str) -> None:
    """Raise ValueError unless ``(n, c, side)`` can key a table entry."""
    if n != int(n) or n < 2:
        raise ValueError(f"n must be an integer of at least 2, got {n!r}")
    if not (0.0 < c < 0.5):
        raise ValueError("c must lie in (0, 0.5)")
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}")


def json_number(v):
    """``v`` as the JSON files store it: infinity as ``"inf"``, all else unchanged."""
    return "inf" if isinstance(v, float) and math.isinf(v) else v


def _canon_number(value) -> str:
    return str(json_number(float(value)))


def _canon_value(value) -> str:
    # string params (the spectrogram geometry tags) are prefixed so they can
    # never collide with the canonical form of a number
    if isinstance(value, str):
        return "s:" + value
    return _canon_number(value)


def _entry_key(family: str, params: dict, n: int, c: float, side: str) -> tuple:
    canon_params = tuple(sorted((k, _canon_value(v)) for k, v in params.items()))
    return (family, canon_params, int(n), _canon_number(c), side)


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
        self._records.append(dict(rec))
        self._values[key] = float(rec["value"])

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[dict]:
        """Copies of the table entries, in insertion order."""
        return [dict(r) for r in self._records]

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
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_json_dict(doc)


def build_quantile_table(
    requests,
    replications: int,
    rng: RngStream,
    created_at: str | None = None,
) -> QuantileTable:
    """Estimate every requested quantile and pack the results into a table.

    Requests sharing ``(spec, n)`` reuse one simulated null distribution.
    Group ``g`` (in first-seen order) draws its block ``b`` from substream
    ``g * GROUP_STRIDE + b`` of ``rng``, making the table a pure function of
    ``(requests, replications, rng)``.
    """
    requests = [
        r if isinstance(r, TableRequest) else TableRequest(*r) for r in requests
    ]
    seen = set()
    for r in requests:
        key = _entry_key(family_tag(r.spec), params_dict(r.spec), r.n, r.c, r.side)
        if key in seen:
            raise ValueError(f"duplicate request {key}")
        seen.add(key)

    groups: dict[tuple, list[TableRequest]] = {}
    for r in requests:
        groups.setdefault((r.spec, r.n), []).append(r)

    records = []
    for g, ((spec, n), members) in enumerate(groups.items()):
        values = estimate_null_distribution(
            spec, n, replications, rng.substream(g * GROUP_STRIDE)
        )
        records += [quantile_record(r, params_dict(spec), values) for r in members]
    return QuantileTable(table_metadata(replications, rng, created_at), records)


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


def table_metadata(m: int, rng: RngStream, created_at: str | None, **extra) -> dict:
    """Table provenance: ``m`` pooled values per entry, the stream and its layout, the estimator."""
    return {
        "M": m,
        "master_seed": rng.master_seed,
        "stream_id": rng.stream_id,
        "rng_layout": RNG_LAYOUT,
        "estimator": ESTIMATOR_ID,
        "created_at": created_at
        if created_at is not None
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **extra,
    }
