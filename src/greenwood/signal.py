"""Signal segmentation, Kaiser-window spectrograms and batch screening.

Long records are screened for heavy-tailed behavior two ways:

* time domain: split the record into fixed-length segments, one per row of
  an array, and test each segment;
* time-frequency domain: compute a magnitude-squared spectrogram and test
  each frequency row, each row being a sample of spectrogram values over
  time.

:func:`batch_test` decides units that stack into one 2-D array by the exact
decision that :func:`greenwood.testing.run_test` makes of one sample, run on
all the units at once, in blocks on every CPU; a unit ``run_test`` refuses
raises its error first. Other units go through ``run_test`` one by one.
Either way the outcomes and errors are those of a loop of ``run_test`` calls.

Spectrogram rows are nonnegative and distributed nothing like raw
observations, so thresholds for the time-frequency path must come from nulls
simulated through the identical spectrogram configuration.
:func:`build_spectrogram_quantile_table` produces such tables; their entries
carry the window geometry in the key, which makes accidentally reusing a raw
table in the time-frequency path a lookup error rather than a wrong answer.
Every function that takes a geometry checks it by one rule, :func:`_frames`.

The null is one job of the Monte Carlo runner
:func:`greenwood.critical._simulate`, with one signal per block, so its
signals run concurrently on the CPUs the process may use: signal ``s`` is
drawn from substream ``s`` and the pooled values keep signal order, so the
table is the same for any CPU count. No null signal is held whole: it is
drawn and transformed a chunk of frames at a time, its draw continued from
chunk to chunk, and each chunk's in-band power goes into the one matrix
the statistic reads, so a signal in flight holds one band power matrix plus
one chunk.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np
import numpy.fft  # noqa: F401  (loaded with the package, not on the first spectrogram)

from .critical import (
    QuantileTable,
    TableRequest,
    _block_rows,
    _request_groups,
    _simulate,
    _whole,
    atomic_open,
    json_text,
    quantile_record,
    table_metadata,
)
from .distributions import DistributionSpec, _ContinuedStream, params_dict, sample
from .rng import RngStream
from .statistic import modified_greenwood_batch
from .testing import TestOutcome, TestSpec, _decide, run_test

__all__ = [
    "BatchReport",
    "Signal",
    "Spectrogram",
    "batch_test",
    "build_spectrogram_quantile_table",
    "estimate_spectrogram_null",
    "frequency_rows",
    "is_binary_signal",
    "kaiser_window",
    "read_csv_column",
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
        _check_finite(x)
        _check_rate(self.sample_rate)
        object.__setattr__(self, "samples", x)

    def __len__(self) -> int:
        return self.samples.size


def _check_finite(samples: np.ndarray) -> None:
    if not np.isfinite(samples).all():
        raise ValueError("signal contains NaN or infinite values")


def _check_rate(sample_rate) -> None:
    if not (sample_rate > 0) or not math.isfinite(sample_rate):
        raise ValueError("sample_rate must be a finite positive number")


def _check_beta(beta) -> None:
    """A ValueError unless ``beta`` is a Kaiser shape: nonnegative, with a finite I0."""
    with np.errstate(all="ignore"):
        i0 = np.i0(beta)
    # I0 overflows for beta above about 709, and NaN passes a sign check
    if beta < 0 or not np.isfinite(i0):
        raise ValueError(f"beta must be nonnegative with a finite I0(beta), got {beta}")


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Magnitude-squared short-time spectrum: rows are frequencies, columns time."""

    magnitude_squared: np.ndarray  # (n_bins, n_frames)
    frequencies: np.ndarray  # Hz, length n_bins
    times: np.ndarray  # s, frame centers, length n_frames
    window: np.ndarray
    overlap: int


def _frames(signal_length, window_length, overlap=0, least: int = 1) -> tuple:
    """``(signal_length, window_length, overlap, frames)`` as ints; a ValueError unless the
    window has 2 samples or more, ``0 <= overlap < window_length``, and the record is a window
    long or more and gives ``least`` frames or more (1: a spectrogram; 2: a tf null or test)."""
    w = _whole("window_length", window_length, 2)
    overlap = _whole("overlap", overlap, 0)
    if overlap >= w:
        raise ValueError("overlap must satisfy 0 <= overlap < window_length")
    length = _whole("signal_length", signal_length, 2)
    if length < w:
        raise ValueError(f"signal_length {length} is shorter than window_length {w}")
    frames = (length - w) // (w - overlap) + 1
    if frames < least:
        raise ValueError(
            f"signal_length {length} gives fewer than {least} frames of"
            f" window_length {w} at overlap {overlap}"
        )
    return length, w, overlap, frames


def kaiser_window(length: int, beta: float) -> np.ndarray:
    """Kaiser window of ``length`` samples with shape parameter ``beta``.

    Endpoints equal ``1 / I0(beta)``; ``beta = 0`` gives the rectangular
    window. ``length`` and ``beta`` follow the rules of :func:`_frames` and :func:`_check_beta`.
    """
    length = _frames(length, length)[1]  # a window is one frame of its own length
    _check_beta(beta)
    return np.kaiser(length, beta)


def segment_signal(signal: Signal, segment_length: int) -> np.ndarray:
    """Consecutive non-overlapping segments, one per row of a new array.

    Returns a ``(count, segment_length)`` copy of the record's first
    ``count * segment_length`` samples; the remainder is dropped.
    """
    segment_length = _whole("segment_length", segment_length, 2)
    x = signal.samples
    count = x.size // segment_length
    if count == 0:
        raise ValueError(
            f"signal of length {x.size} is shorter than one segment ({segment_length})"
        )
    return x[: count * segment_length].reshape(count, segment_length).copy()


def spectrogram(signal: Signal, window: np.ndarray, overlap: int = 0) -> Spectrogram:
    """Short-time magnitude-squared spectrum over hops of ``len(window) - overlap``.

    Frames as :func:`_frames` counts them, of ``len(window)`` samples; one-sided
    spectra of real input, so ``len(window) // 2 + 1`` frequency rows.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise ValueError("window must be one-dimensional")
    _, w, overlap, n_frames = _frames(len(signal), window.size, overlap)
    hop = w - overlap
    frames = np.lib.stride_tricks.sliding_window_view(signal.samples, w)[:: hop][:n_frames]
    # frames are transformed a chunk at a time into one (frames, bins) array,
    # so the windowed copy and the complex spectrum never exceed one chunk
    power = np.empty((n_frames, w // 2 + 1))
    step = _block_rows(w)  # about BLOCK_VALUES windowed samples
    for i in range(0, n_frames, step):
        _power(frames[i : i + step], window, power[i : i + step])
    power = power.T
    freqs = np.fft.rfftfreq(w, d=1.0 / signal.sample_rate)
    times = (np.arange(n_frames) * hop + (w - 1) / 2.0) / signal.sample_rate
    return Spectrogram(power, freqs, times, window, overlap)


def _power(frames: np.ndarray, window: np.ndarray, out: np.ndarray, bins=slice(None)) -> None:
    """Write into ``out``, one row per frame, ``|X|**2`` at the one-sided rfft
    bins ``bins`` of each windowed frame (a row of ``frames``)."""
    spectrum = np.fft.rfft(frames * window, axis=1)[:, bins]
    np.add(spectrum.real**2, spectrum.imag**2, out=out)


def _band(freqs: np.ndarray, f_min, f_max) -> np.ndarray:
    """The mask of ``freqs`` inside ``[f_min, f_max]``, a missing limit being
    that end of ``freqs``; a ValueError if the limits cross or no frequency is inside."""
    lo = freqs[0] if f_min is None else f_min
    hi = freqs[-1] if f_max is None else f_max
    if f_min is not None and f_max is not None and f_min > f_max:
        raise ValueError("f_min must not exceed f_max")
    mask = (freqs >= lo) & (freqs <= hi)
    if not mask.any():
        raise ValueError(f"no frequency rows inside [{lo}, {hi}] Hz")
    return mask


def frequency_rows(
    spec: Spectrogram, f_min: float | None = None, f_max: float | None = None
) -> tuple[list[float], np.ndarray]:
    """Rows of the spectrogram whose frequency lies in ``[f_min, f_max]``.

    Returns ``(frequencies, rows)``, a list and a C-contiguous 2-D copy of
    their rows; the full band when no limits given.
    """
    mask = _band(spec.frequencies, f_min, f_max)
    return spec.frequencies[mask].tolist(), spec.magnitude_squared[mask]


@dataclass(frozen=True)
class BatchReport:
    """Per-unit outcomes of one test applied across segments or frequency rows.

    Its JSON document is :meth:`to_json_dict`, and :meth:`json_text` is that
    document as the package writes it, which ``greenwood analyze`` writes or
    prints.
    """

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

    def json_text(self) -> str:
        """:func:`greenwood.critical.json_text` of :meth:`to_json_dict`, byte for byte.

        The standard library indents JSON with its pure-Python encoder, so
        the units, which make up nearly all of a report, are written here
        from one fixed layout instead. A unit outside that layout (an
        outcome that is not a plain :class:`TestOutcome` of ``str``, ``int``,
        ``bool`` and finite ``float`` fields, or a label that is not an
        ``int``, a ``str`` or a finite ``float``) sends the whole report
        through :func:`~greenwood.critical.json_text`, whose bytes and errors
        are the encoder's.
        """
        try:
            if type(self.domain) is not str:
                raise _Irregular
            c, percentage = _float_text(self.c), _float_text(self.rejection_percentage)
            units = _units_text(self.labels, self.outcomes)
        except _Irregular:
            return json_text(self.to_json_dict())
        units = "[\n" + ",\n".join(units) + "\n  ]" if units else "[]"
        return (
            f'{{\n  "c": {c},\n  "domain": {encode_basestring_ascii(self.domain)},\n'
            f'  "rejection_percentage": {percentage},\n  "units": {units}\n}}\n'
        )


class _Irregular(Exception):
    """A report value outside the layout that :meth:`BatchReport.json_text` writes."""


# one unit of a report's "units" list, its keys sorted, as json.dumps(indent=2)
# writes it: the fields up to "reject", then the rest
_UNIT_HEAD = '    {\n      "c": %s,\n      "kind": %s,\n      "n": %s,\n      "reject": '
_UNIT_TAIL = ',\n      "statistic": %s,\n      "thresholds": %s,\n      "unit": %s\n    }'


def _float_text(v) -> str:
    """A finite float as JSON writes it; anything else is :class:`_Irregular`."""
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    raise _Irregular


def _units_text(labels, outcomes) -> list:
    """Each unit as ``json.dumps(..., indent=2)`` writes it inside a report's ``units``."""
    texts = []
    # the outcomes of one test share their c, kind, n and thresholds objects,
    # so those are written once per distinct set; each set's first outcome
    # is kept with its text, so that no id in a key can be reused
    shared = {}
    for label, o in zip(labels, outcomes):
        if type(o) is not TestOutcome:
            raise _Irregular
        key = (id(o.c), id(o.kind), id(o.n), id(o.thresholds))
        if key not in shared:
            shared[key] = (*_shared_text(o), o)
        head, thresholds, _ = shared[key]
        if o.reject is True:
            reject = "true"
        elif o.reject is False:
            reject = "false"
        else:
            raise _Irregular
        if type(label) is int:
            label = int.__repr__(label)
        elif type(label) is str:
            label = encode_basestring_ascii(label)
        else:
            label = _float_text(label)
        texts.append(head + reject + _UNIT_TAIL % (_float_text(o.statistic), thresholds, label))
    return texts


def _shared_text(o: TestOutcome) -> tuple:
    """The text of ``o``'s fields before ``reject``, and of its thresholds."""
    if type(o.kind) is not str or type(o.n) is not int:
        raise _Irregular
    head = _UNIT_HEAD % (_float_text(o.c), encode_basestring_ascii(o.kind), int.__repr__(o.n))
    thresholds = ",\n        ".join(map(_float_text, o.thresholds))
    return head, f"[\n        {thresholds}\n      ]" if thresholds else "[]"


def batch_test(units, test: TestSpec, domain: str = "time", labels=None) -> BatchReport:
    """Apply ``test`` to every unit (a segment or a frequency row).

    ``units`` is a 2-D array with one unit per row, as
    :func:`segment_signal` returns, or a sequence of 1-D units. Each outcome
    equals ``run_test(test, unit)`` field for field, bit for bit, and the
    first unit that :func:`run_test` refuses, in unit order, raises the
    error ``run_test`` raises for it.

    Units that stack into one 2-D array are decided in one pass by
    :func:`greenwood.testing._decide`, the exact decision ``run_test`` makes
    of one unit: the thresholds are read once and the row kernels that
    reproduce the scalar statistic exactly run on blocks of ``rows(n)``
    units, on every CPU. Units that do not stack go through ``run_test``
    unit by unit.
    """
    if domain not in ("time", "time-frequency"):
        raise ValueError("domain must be 'time' or 'time-frequency'")
    count = len(units)
    if not count:
        raise ValueError("no units to test")
    if labels is None:
        labels = list(range(count))
    else:
        labels = list(labels)
        if len(labels) != count:
            raise ValueError("labels must match units one to one")

    try:
        # C order (copied if need be): the baseline kernels reduce a row as
        # run_test reduces one unit only when the row is contiguous
        x = np.ascontiguousarray(units, dtype=np.float64)
    except (TypeError, ValueError):  # ragged units, or units that are not numbers
        x = None
    if x is None or x.ndim != 2:
        outcomes = [run_test(test, unit) for unit in units]
    else:
        outcomes = _decide(test, x)
    return BatchReport(domain, test.c, tuple(outcomes), tuple(labels))


# --------------------------------------------------------------------------
# spectrogram-domain nulls


def spectrogram_null_params(
    base_spec: DistributionSpec,
    window_length: int,
    beta: float,
    overlap: int,
    signal_length: int,
) -> dict:
    """Extra table-key fields that pin an entry to one Kaiser geometry of 2 frames or more."""
    signal_length, window_length, overlap, _ = _frames(signal_length, window_length, overlap, 2)
    _check_beta(beta)
    return {
        **params_dict(base_spec),
        "domain": "spectrogram",
        "window": "kaiser",
        "window_length": window_length,
        "beta": float(beta),
        "overlap": overlap,
        "signal_length": signal_length,
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
    Signal ``s`` is drawn from ``rng.substream(s)``; the signals are the
    blocks of one :func:`greenwood.critical._simulate` job, and their values
    are pooled in signal order, so the result does not depend on the CPU
    count. A geometry of fewer than 2 frames, a bad ``sample_rate`` and a
    band without rows are refused before any signal is drawn.

    Each signal's values are, bit for bit, ``modified_greenwood_batch`` of
    ``frequency_rows(spectrogram(Signal(x, sample_rate), window, overlap),
    f_min, f_max)[1]`` for its whole draw ``x = sample(base_spec,
    signal_length, rng.substream(s))``, but no signal is held whole: it is
    drawn and transformed as :func:`spectrogram` transforms a record, a
    chunk of frames at a time, the last ``overlap`` samples of a chunk
    carried into the next, and each chunk's in-band power is copied into
    the one C-order ``(rows, frames)`` matrix the statistic reads, with no
    copy of the band.
    """
    length, w, overlap, frames = _frames(signal_length, window_length, overlap, 2)
    signals = _whole("signals", signals, 1)
    window = kaiser_window(w, beta)
    _check_rate(sample_rate)
    rows = np.flatnonzero(_band(np.fft.rfftfreq(w, d=1.0 / sample_rate), f_min, f_max))
    bins = slice(rows[0], rows[-1] + 1)  # the bins ascend, so a band is one run of them
    hop, step = w - overlap, _block_rows(w)

    def one_signal(s):
        stream = _ContinuedStream(rng.master_seed, rng.substream(s).stream_id)
        power = np.empty((rows.size, frames))
        band = np.empty((step, rows.size))  # a chunk's power, frame by frame
        x, drawn = np.empty(0), 0
        for i in range(0, frames, step):
            count = min(step, frames - i)
            # the samples up to the chunk's last frame, after the last overlap
            # samples of the one before; the last chunk draws on to the
            # record's end, whose samples no frame reads but a whole draw checks
            end = (i + count - 1) * hop + w if i + count < frames else length
            new = sample(base_spec, end - drawn, stream)
            _check_finite(new)
            x, drawn = np.concatenate((x[x.size - overlap :], new)), end
            chunk = np.lib.stride_tricks.sliding_window_view(x, w)[::hop][:count]
            # summed into a contiguous buffer, then copied into the frames'
            # columns: about 1 ms a signal faster at window 2000 than summing
            # into the columns
            _power(chunk, window, band[:count], bins)
            power[:, i : i + count] = band[:count].T
        return modified_greenwood_batch(power, overwrite_input=True)

    return _simulate([(signals, one_signal)])[0]


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
) -> QuantileTable:
    """Quantile table for the time-frequency path, one entry per ``(c, side)``.

    ``levels`` is an iterable of ``(c, side)`` pairs. Entries are keyed with
    the spectrogram geometry (see :func:`spectrogram_null_params`), and ``n``
    is the number of time frames each row contains, at least 2.
    """
    n_frames = _frames(signal_length, window_length, overlap, 2)[3]
    requests = [TableRequest(base_spec, n_frames, c, side) for c, side in levels]
    if not requests:
        raise ValueError("levels must be nonempty")
    _request_groups(requests)  # a repeated level is refused before any draw
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
    metadata = table_metadata(int(values.size), rng, signals=int(signals))
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


def is_binary_signal(path) -> bool:
    """Whether ``path`` holds a signal in the binary format, which records its rate."""
    with open(path, "rb") as fh:
        return fh.read(len(_MAGIC)) == _MAGIC


def read_signal(path, sample_rate: float = 1.0) -> Signal:
    """Read a signal file: the raw binary format, or single-column CSV text.

    CSV files carry no rate, so ``sample_rate`` supplies it. A binary file
    records its own rate and does not use ``sample_rate``; tell the formats
    apart with :func:`is_binary_signal`.
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
            # read straight into the array, with no second copy of the samples
            return Signal(np.fromfile(fh, dtype="<f8", count=count), rate)
    return Signal(read_csv_column(path), sample_rate)


def read_csv_column(path) -> np.ndarray:
    """The numbers of a single-column CSV text file, one per line.

    Raises ValueError for a file that is not text, holds no numbers or has
    more than one column.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as an error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except UnicodeDecodeError:
        raise ValueError(
            f"{path}: input must be a single-column numeric CSV; it is not text"
        ) from None
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{path}: input must be a single-column numeric CSV")
    return values
