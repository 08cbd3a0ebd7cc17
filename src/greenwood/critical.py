"""Monte Carlo null distributions of the statistic and persisted quantile tables.

Rejection thresholds are estimated by simulation: draw ``M`` independent
samples of size ``n`` from the null family, compute the statistic for each,
and read empirical quantiles off the sorted values. Replication ``i`` of a
table entry group always runs on RNG substream ``base + i``, so results are
bit-identical across runs, chunk sizes and thread counts.

Tables serialize to a small JSON document (see :meth:`QuantileTable.save`)
keyed by ``(family, params, n, c, side)``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .distributions import DistributionSpec, family_tag, params_dict, sample, spec_from
from .rng import RngStream
from .statistic import modified_greenwood_batch

__all__ = [
    "ESTIMATOR_ID",
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
# replication substreams of different groups can never collide
GROUP_STRIDE = 1 << 32


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
    spec: DistributionSpec,
    n: int,
    replications: int,
    rng: RngStream,
    chunk: int = 4096,
) -> np.ndarray:
    """Statistic values over ``replications`` independent size-``n`` null samples.

    Replication ``i`` draws from ``rng.substream(i)``; ``chunk`` only sets the
    buffering granularity and cannot change the output.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if replications < 1000:
        raise ValueError("replications must be at least 1000")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    out = np.empty(replications, dtype=np.float64)
    buf = np.empty((min(chunk, replications), n), dtype=np.float64)
    done = 0
    while done < replications:
        m = min(chunk, replications - done)
        for j in range(m):
            buf[j] = sample(spec, n, rng.substream(done + j))
        out[done : done + m] = modified_greenwood_batch(buf[:m])
        done += m
    return out


@dataclass(frozen=True)
class TableRequest:
    """One quantile-table entry to build: a null, a sample size, a level, a tail."""

    spec: DistributionSpec
    n: int
    c: float
    side: str

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (0.0 < self.c < 0.5):
            raise ValueError("c must lie in (0, 0.5)")
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")


def _canon_number(value) -> str:
    v = float(value)
    if math.isinf(v):
        return "inf"
    return repr(v)


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


def _encode_params(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, str):
            out[k] = v
        else:
            out[k] = "inf" if math.isinf(float(v)) else v
    return out


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
                    "params": _encode_params(r["params"]),
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
            records = [
                {
                    "family": entry["family"],
                    "params": {k: _decode_param(v) for k, v in entry["params"].items()},
                    "n": int(entry["n"]),
                    "c": float(entry["c"]),
                    "side": entry["side"],
                    "value": float(entry["value"]),
                }
                for entry in doc.get("entries", [])
            ]
            return cls(doc.get("metadata", {}), records)
        except (KeyError, TypeError, AttributeError) as exc:
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
    Group ``g`` (in first-seen order) runs its replication ``i`` on substream
    ``g * GROUP_STRIDE + i`` of ``rng``, making the table a pure function of
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
    """Table provenance: ``m`` pooled values per entry, the stream, the estimator."""
    return {
        "M": m,
        "master_seed": rng.master_seed,
        "stream_id": rng.stream_id,
        "estimator": ESTIMATOR_ID,
        "created_at": created_at
        if created_at is not None
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **extra,
    }
