"""Signal segmentation, Kaiser-window spectrograms and batch screening.

Long records are screened for heavy-tailed behavior two ways:

* time domain: split the record into fixed-length segments and run one test
  per segment;
* time-frequency domain: compute a magnitude-squared spectrogram and run one
  test per frequency row, each row being a sample of spectrogram values over
  time.

Spectrogram rows are nonnegative and distributed nothing like raw
observations, so thresholds for the time-frequency path must come from nulls
simulated through the identical spectrogram configuration.
:func:`build_spectrogram_quantile_table` produces such tables; their entries
carry the window geometry in the key, which makes accidentally reusing a raw
table in the time-frequency path a lookup error rather than a wrong answer.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .critical import (
    QuantileTable,
    TableRequest,
    atomic_open,
    quantile_record,
    table_metadata,
)
from .distributions import DistributionSpec, params_dict, sample
from .rng import RngStream
from .statistic import modified_greenwood_batch
from .testing import TestSpec, run_test

__all__ = [
    "BatchReport",
    "Signal",
    "Spectrogram",
    "batch_test",
    "build_spectrogram_quantile_table",
    "estimate_spectrogram_null",
    "frequency_rows",
    "kaiser_window",
    "read_signal",
    "segment_signal",
    "spectrogram",
    "spectrogram_null_params",
    "write_signal",
]

_MAGIC = b"GWSIG001"


@dataclass(frozen=True, eq=False)
class Signal:
    """A finite 1-D record with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: float = 1.0

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("signal must be one-dimensional with at least 2 samples")
        if not np.isfinite(x).all():
            raise ValueError("signal contains NaN or infinite values")
        if not (self.sample_rate > 0) or not math.isfinite(self.sample_rate):
            raise ValueError("sample_rate must be a finite positive number")
        object.__setattr__(self, "samples", x)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Magnitude-squared short-time spectrum: rows are frequencies, columns time."""

    magnitude_squared: np.ndarray  # (n_bins, n_frames)
    frequencies: np.ndarray  # Hz, length n_bins
    times: np.ndarray  # s, frame centers, length n_frames
    window: np.ndarray
    overlap: int


def kaiser_window(length: int, beta: float) -> np.ndarray:
    """Kaiser window of ``length`` samples with shape parameter ``beta``.

    Endpoints equal ``1 / I0(beta)``; ``beta = 0`` gives the rectangular
    window.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return np.kaiser(length, beta)


def segment_signal(signal: Signal, segment_length: int) -> list[np.ndarray]:
    """Split into consecutive non-overlapping segments, dropping the remainder."""
    if segment_length < 2:
        raise ValueError("segment_length must be at least 2")
    x = signal.samples
    count = x.size // segment_length
    if count == 0:
        raise ValueError(
            f"signal of length {x.size} is shorter than one segment ({segment_length})"
        )
    return [
        x[i * segment_length : (i + 1) * segment_length].copy() for i in range(count)
    ]


def spectrogram(signal: Signal, window: np.ndarray, overlap: int = 0) -> Spectrogram:
    """Short-time magnitude-squared spectrum over hops of ``len(window) - overlap``.

    Produces ``(len(signal) - len(window)) // hop + 1`` frames; one-sided
    spectra of real input, so ``len(window) // 2 + 1`` frequency rows.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or window.size < 2:
        raise ValueError("window must be one-dimensional with at least 2 samples")
    w = window.size
    if not (0 <= overlap < w):
        raise ValueError("overlap must satisfy 0 <= overlap < len(window)")
    x = signal.samples
    if x.size < w:
        raise ValueError("signal is shorter than the window")
    hop = w - overlap
    n_frames = (x.size - w) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, w)[:: hop][:n_frames]
    spectrum = np.fft.rfft(frames * window, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2).T
    freqs = np.fft.rfftfreq(w, d=1.0 / signal.sample_rate)
    times = (np.arange(n_frames) * hop + (w - 1) / 2.0) / signal.sample_rate
    return Spectrogram(power, freqs, times, window, overlap)


def frequency_rows(
    spec: Spectrogram, f_min: float | None = None, f_max: float | None = None
) -> list[tuple[float, np.ndarray]]:
    """Rows of the spectrogram whose frequency lies in ``[f_min, f_max]``.

    Returns ``(frequency, row)`` pairs; the full band when no limits given.
    """
    freqs = spec.frequencies
    lo = freqs[0] if f_min is None else f_min
    hi = freqs[-1] if f_max is None else f_max
    if lo > hi:
        raise ValueError("f_min must not exceed f_max")
    mask = (freqs >= lo) & (freqs <= hi)
    if not mask.any():
        raise ValueError(f"no frequency rows inside [{lo}, {hi}] Hz")
    return [(float(f), spec.magnitude_squared[i]) for i, f in enumerate(freqs) if mask[i]]


@dataclass(frozen=True)
class BatchReport:
    """Per-unit outcomes of one test applied across segments or frequency rows."""

    domain: str  # "time" or "time-frequency"
    c: float
    outcomes: tuple
    labels: tuple  # segment index or row frequency, parallel to outcomes

    @property
    def rejection_percentage(self) -> float:
        if not self.outcomes:
            return 0.0
        return 100.0 * sum(o.reject for o in self.outcomes) / len(self.outcomes)

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain,
            "c": self.c,
            "units": [
                {"unit": label, **outcome.to_json_dict()}
                for label, outcome in zip(self.labels, self.outcomes)
            ],
            "rejection_percentage": self.rejection_percentage,
        }


def batch_test(units, test: TestSpec, domain: str = "time", labels=None) -> BatchReport:
    """Apply ``test`` to every unit (a segment or a frequency row)."""
    if domain not in ("time", "time-frequency"):
        raise ValueError("domain must be 'time' or 'time-frequency'")
    units = list(units)
    if not units:
        raise ValueError("no units to test")
    if labels is None:
        labels = list(range(len(units)))
    else:
        labels = list(labels)
        if len(labels) != len(units):
            raise ValueError("labels must match units one to one")
    outcomes = tuple(run_test(test, u) for u in units)
    return BatchReport(domain, test.c, outcomes, tuple(labels))


# --------------------------------------------------------------------------
# spectrogram-domain nulls


def spectrogram_null_params(
    base_spec: DistributionSpec,
    window_length: int,
    beta: float,
    overlap: int,
    signal_length: int,
) -> dict:
    """Extra table-key fields that pin an entry to one spectrogram geometry."""
    return {
        **params_dict(base_spec),
        "domain": "spectrogram",
        "window": "kaiser",
        "window_length": int(window_length),
        "beta": float(beta),
        "overlap": int(overlap),
        "signal_length": int(signal_length),
    }


def estimate_spectrogram_null(
    base_spec: DistributionSpec,
    signal_length: int,
    window_length: int,
    beta: float,
    overlap: int,
    signals: int,
    rng: RngStream,
    f_min: float | None = None,
    f_max: float | None = None,
    sample_rate: float = 1.0,
) -> np.ndarray:
    """Pool statistic values of spectrogram rows over simulated null signals.

    Each simulated signal runs through the exact spectrogram configuration
    under study; every in-band frequency row contributes one statistic value.
    """
    if signals < 1:
        raise ValueError("signals must be at least 1")
    window = kaiser_window(window_length, beta)
    pooled = []
    for s in range(signals):
        x = sample(base_spec, signal_length, rng.substream(s))
        sp = spectrogram(Signal(x, sample_rate), window, overlap)
        rows = frequency_rows(sp, f_min, f_max)
        pooled.append(modified_greenwood_batch(np.stack([r for _, r in rows])))
    return np.concatenate(pooled)


def build_spectrogram_quantile_table(
    base_spec: DistributionSpec,
    levels,
    signal_length: int,
    window_length: int,
    beta: float,
    overlap: int,
    signals: int,
    rng: RngStream,
    f_min: float | None = None,
    f_max: float | None = None,
    sample_rate: float = 1.0,
    created_at: str | None = None,
) -> QuantileTable:
    """Quantile table for the time-frequency path, one entry per ``(c, side)``.

    ``levels`` is an iterable of ``(c, side)`` pairs. Entries are keyed with
    the spectrogram geometry (see :func:`spectrogram_null_params`), and ``n``
    is the number of time frames each row contains.
    """
    if not (0 <= overlap < window_length):
        raise ValueError("overlap must satisfy 0 <= overlap < window_length")
    n_frames = (signal_length - window_length) // (window_length - overlap) + 1
    requests = [TableRequest(base_spec, n_frames, c, side) for c, side in levels]
    if not requests:
        raise ValueError("levels must be nonempty")
    values = estimate_spectrogram_null(
        base_spec,
        signal_length,
        window_length,
        beta,
        overlap,
        signals,
        rng,
        f_min,
        f_max,
        sample_rate,
    )
    params = spectrogram_null_params(
        base_spec, window_length, beta, overlap, signal_length
    )
    records = [quantile_record(r, params, values) for r in requests]
    metadata = table_metadata(int(values.size), rng, created_at, signals=signals)
    return QuantileTable(metadata, records)


# --------------------------------------------------------------------------
# signal files


def write_signal(path, signal: Signal) -> None:
    """Write the raw binary format: magic, count, sample rate, little-endian f64."""
    x = signal.samples
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Qd", x.size, signal.sample_rate))
        fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())


def read_signal(path, sample_rate: float = 1.0) -> Signal:
    """Read a signal file: the raw binary format, or single-column CSV text.

    CSV files carry no rate, so ``sample_rate`` supplies it (binary files
    ignore the argument).
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        if head == _MAGIC:
            header = fh.read(16)
            if len(header) != 16:
                raise ValueError("signal file truncated inside its header")
            count, rate = struct.unpack("<Qd", header)
            available = (os.fstat(fh.fileno()).st_size - fh.tell()) // 8
            if count > available:
                raise ValueError(
                    f"signal file truncated: {available} of {count} samples"
                )
            data = np.frombuffer(fh.read(count * 8), dtype="<f8")
            return Signal(data.astype(np.float64), rate)
    values = np.loadtxt(path, dtype=np.float64, ndmin=1)
    if values.ndim != 1:
        raise ValueError("CSV signal must contain a single column")
    return Signal(values, sample_rate)
