"""Tests for segmentation, spectrograms, batch screening and signal files."""

import json
import math
import re
import struct
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwood import signal as signal_module
from greenwood import testing
from greenwood.critical import (
    QuantileTable,
    TableCoverageError,
    TableRequest,
    _simulate,
    build_quantile_table,
)
from greenwood.distributions import GPD, Gaussian, Stable, StudentT, sample
from greenwood.rng import RngStream
from greenwood.signal import (
    BatchReport,
    Signal,
    batch_test,
    build_spectrogram_quantile_table,
    estimate_spectrogram_null,
    frequency_rows,
    kaiser_window,
    read_signal,
    segment_signal,
    spectrogram,
    spectrogram_null_params,
    write_signal,
)
from greenwood.statistic import modified_greenwood, modified_greenwood_batch
from greenwood.testing import (
    BASELINE_KINDS,
    BASELINE_MIN_N,
    MG_KINDS,
    TestOutcome,
    TestSpec,
    reject_rows,
    run_test,
)


def bessel_i0(x: float) -> float:
    # series sum_k ((x/2)^k / k!)^2, summed until terms vanish
    term, total, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (x / 2.0 / k) ** 2
        total += term
    return total


class TestSignalType:
    def test_coerces_and_validates(self):
        s = Signal([1, 2, 3], sample_rate=10.0)
        assert s.samples.dtype == np.float64
        assert len(s) == 3
        with pytest.raises(ValueError, match="at least 2"):
            Signal([1.0])
        with pytest.raises(ValueError, match="NaN or infinite"):
            Signal([1.0, np.inf])
        with pytest.raises(ValueError, match="one-dimensional"):
            Signal([[1.0, 2.0]])
        with pytest.raises(ValueError, match="sample_rate"):
            Signal([1.0, 2.0], sample_rate=0.0)


class TestKaiserWindow:
    def test_matches_bessel_series(self):
        m, beta = 9, 5.0
        w = kaiser_window(m, beta)
        i0b = bessel_i0(beta)
        for i in range(m):
            r = (2.0 * i - (m - 1)) / (m - 1)
            expected = bessel_i0(beta * math.sqrt(1.0 - r * r)) / i0b
            assert w[i] == pytest.approx(expected, rel=1e-12)

    def test_endpoints_and_flat_case(self):
        w = kaiser_window(11, 8.0)
        assert w[0] == pytest.approx(1.0 / bessel_i0(8.0), rel=1e-12)
        assert w[-1] == w[0]
        assert np.all(kaiser_window(6, 0.0) == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            kaiser_window(0, 1.0)
        with pytest.raises(ValueError):
            kaiser_window(8, -1.0)


class TestSegmentation:
    def test_splits_and_drops_remainder(self):
        sig = Signal(np.arange(10.0))
        parts = segment_signal(sig, 3)
        assert len(parts) == 3
        assert np.array_equal(parts[0], [0.0, 1.0, 2.0])
        assert np.array_equal(parts[2], [6.0, 7.0, 8.0])  # sample 9 dropped

    def test_exact_division(self):
        parts = segment_signal(Signal(np.arange(25500.0)), 1000)
        assert parts.shape == (25, 1000)
        assert parts.tobytes() == np.arange(25000.0).tobytes()

    def test_segments_are_copies(self):
        sig = Signal(np.arange(6.0))
        parts = segment_signal(sig, 3)
        parts[0][0] = 99.0
        assert sig.samples[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            segment_signal(Signal(np.arange(8.0)), 1)
        with pytest.raises(ValueError, match="shorter than one segment"):
            segment_signal(Signal(np.arange(8.0)), 9)


class TestSpectrogram:
    def test_shapes_axes_and_values(self):
        fs = 8.0
        x = RngStream(11).generator().standard_normal(32)
        sp = spectrogram(Signal(x, fs), kaiser_window(8, 4.0), overlap=4)
        assert sp.magnitude_squared.shape == (5, 7)  # (8//2+1 bins, (32-8)//4+1 frames)
        assert np.array_equal(sp.frequencies, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert sp.times[0] == pytest.approx(3.5 / fs)
        assert sp.times[1] - sp.times[0] == pytest.approx(4.0 / fs)
        w = kaiser_window(8, 4.0)
        for k in (0, 3, 6):
            ref = np.abs(np.fft.rfft(x[4 * k : 4 * k + 8] * w)) ** 2
            assert np.allclose(sp.magnitude_squared[:, k], ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "length, w, overlap",
        [
            (33 * 2000 + 17, 2000, 0),  # 32 frames per chunk, then a short chunk
            (100_000, 2000, 500),  # overlapping frames: 66 of them
            (190_000, 70_000, 30_000),  # a window longer than a chunk: one frame each
        ],
    )
    def test_chunks_equal_the_whole_array_transform(self, length, w, overlap):
        x = RngStream(19).generator().standard_normal(length)
        window = kaiser_window(w, 5.0)
        frames = np.lib.stride_tricks.sliding_window_view(x, w)[:: w - overlap]
        spectrum = np.fft.rfft(frames * window, axis=1)
        reference = (spectrum.real**2 + spectrum.imag**2).T
        power = spectrogram(Signal(x), window, overlap).magnitude_squared
        assert power.shape == reference.shape
        assert power.flags.f_contiguous
        assert power.tobytes() == reference.tobytes()

    def test_long_record_frame_count(self):
        x = RngStream(12).generator().standard_normal(2_550_000)
        sp = spectrogram(Signal(x), np.ones(2000), overlap=0)
        assert sp.magnitude_squared.shape == (1001, 1275)

    def test_energy_identity_per_frame(self):
        # one-sided power: doubling all bins except DC and Nyquist recovers
        # the two-sided sum, which equals W times the frame energy
        x = RngStream(13).generator().standard_normal(64)
        sp = spectrogram(Signal(x), np.ones(16), overlap=0)
        p = sp.magnitude_squared
        two_sided = 2.0 * p.sum(axis=0) - p[0] - p[-1]
        frames = x.reshape(4, 16)
        assert np.allclose(two_sided, 16.0 * (frames**2).sum(axis=1), rtol=1e-9)

    def test_pure_tone_hits_one_bin(self):
        fs = 8000.0
        t = np.arange(16000) / fs
        sp = spectrogram(Signal(np.sin(2 * np.pi * 400.0 * t), fs), np.ones(1000))
        p = sp.magnitude_squared
        assert np.argmax(p[:, 0]) == 50  # 400 Hz at fs/W = 8 Hz per bin
        assert np.all(p.max(axis=0) / p.sum(axis=0) > 0.9999)

    def test_validation(self):
        sig = Signal(np.arange(16.0))
        with pytest.raises(ValueError, match="overlap"):
            spectrogram(sig, np.ones(8), overlap=8)
        with pytest.raises(ValueError, match="shorter than window_length"):
            spectrogram(sig, np.ones(32))
        with pytest.raises(ValueError, match="window must be"):
            spectrogram(sig, np.ones((4, 4)))


class TestFrequencyRows:
    def _spec(self):
        x = RngStream(14).generator().standard_normal(64)
        return spectrogram(Signal(x, 8.0), np.ones(8), overlap=0)

    def test_band_selection_is_inclusive(self):
        freqs, rows = frequency_rows(self._spec(), 1.0, 3.0)
        assert freqs == [1.0, 2.0, 3.0]
        assert all(type(f) is float for f in freqs)
        assert rows.shape == (3, 8)

    def test_default_is_full_band(self):
        sp = self._spec()
        freqs, rows = frequency_rows(sp)
        assert freqs == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rows.tobytes() == sp.magnitude_squared.tobytes(order="C")

    @pytest.mark.parametrize("band", [(2.0, 2.0), (1.0, 3.0), (0.0, 4.0)])
    def test_rows_are_the_stacked_band(self, band):
        sp = self._spec()
        freqs, rows = frequency_rows(sp, *band)
        stacked = np.stack([sp.magnitude_squared[int(f)] for f in freqs])
        assert rows.flags.c_contiguous
        assert rows.tobytes() == stacked.tobytes()
        rows[:] = -1.0  # a copy: the spectrogram keeps its values
        assert (sp.magnitude_squared >= 0.0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="no frequency rows"):
            frequency_rows(self._spec(), 1.4, 1.6)
        with pytest.raises(ValueError, match="f_min"):
            frequency_rows(self._spec(), 3.0, 1.0)
        # a lone limit past the other end of the band is an empty band
        with pytest.raises(ValueError, match=r"no frequency rows inside \[5.0, 4.0\] Hz"):
            frequency_rows(self._spec(), 5.0)


class TestBatchTest:
    def _table(self):
        return QuantileTable(
            {},
            [
                {
                    "family": "gaussian",
                    "params": {"mu": 0.0, "sigma2": 1.0},
                    "n": 3,
                    "c": 0.05,
                    "side": "upper",
                    "value": 0.375,
                }
            ],
        )

    def test_counts_and_labels(self):
        spec = TestSpec("mg2", 0.05, self._table())
        units = [[1.0, -1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 5.0], [2.0, -2.0, 2.0]]
        report = batch_test(units, spec)
        assert report.domain == "time"
        assert report.labels == (0, 1, 2, 3)
        assert [o.reject for o in report.outcomes] == [True, False, True, False]
        assert report.rejection_percentage == 50.0

    def test_custom_labels_and_json(self):
        spec = TestSpec("mg2", 0.05, self._table())
        report = batch_test(
            [[1.0, 1.0, 1.0]], spec, domain="time-frequency", labels=[437.5]
        )
        doc = report.to_json_dict()
        assert doc["domain"] == "time-frequency"
        assert doc["rejection_percentage"] == 0.0
        assert doc["units"][0]["unit"] == 437.5
        assert doc["units"][0]["kind"] == "mg2"

    def test_validation(self):
        spec = TestSpec("mg2", 0.05, self._table())
        with pytest.raises(ValueError, match="domain"):
            batch_test([[1.0, 1.0, 1.0]], spec, domain="cepstral")
        with pytest.raises(ValueError, match="no units"):
            batch_test([], spec)
        with pytest.raises(ValueError, match="labels"):
            batch_test([[1.0, 1.0, 1.0]], spec, labels=[1, 2])


def _outcomes_or_error(decide):
    try:
        return decide()
    except Exception as exc:
        return type(exc), str(exc)


def _encoded(report: BatchReport) -> str:
    """The report as the standard library's encoder writes it."""
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _refusal_reference(kind, row):
    """The error ``run_test`` gives a ``kind`` sample, from its checks in order, or None."""
    if kind == "mg3_gpd" and (row < 0.0).any():
        return "gpd-family test requires nonnegative observations"
    if kind in BASELINE_KINDS and row.size < BASELINE_MIN_N:
        return f"baseline tests need at least {BASELINE_MIN_N} observations"
    if kind in MG_KINDS and row.size < 2:
        return "sample must contain at least 2 values"
    if not np.isfinite(row).all():
        return "sample contains NaN or infinite values"
    if kind in BASELINE_KINDS and (row == row[0]).all():
        return "sample is degenerate (all values equal)"
    if kind in MG_KINDS and (row == 0.0).all():
        return "sample must contain at least one nonzero value"
    return None


# the first two fill a whole row, the others are put in one place of it
DEFECTS = {
    "zeros": 0.0, "constant": 2.5, "negative": -1.5, "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
}


class TestBatchMatchesRunTest:
    """``batch_test`` returns what ``run_test`` returns unit by unit, or raises what it raises."""

    NS = (3, 10, 20)

    @pytest.fixture(scope="class")
    def table(self):
        requests = [
            TableRequest(spec, n, c, side)
            for n in self.NS
            for spec, c, side in (
                (Gaussian(0.0, 1.0), 0.05, "lower"),
                (Gaussian(0.0, 1.0), 0.05, "upper"),
                (Gaussian(0.0, 1.0), 0.025, "lower"),
                (Gaussian(0.0, 1.0), 0.025, "upper"),
                (GPD(0.5, 1.0), 0.05, "lower"),
                (StudentT(2), 0.05, "lower"),
            )
        ]
        return build_quantile_table(requests, 1000, RngStream(4040))

    def _spec(self, kind, table):
        if kind in BASELINE_KINDS:
            return TestSpec(kind, 0.05)
        null = Gaussian(0.0, 1.0) if kind == "mg_two_sided" else None
        return TestSpec(kind, 0.05, table, null_spec=null)

    def _time_units(self, lengths="ragged"):
        # heavy- and light-tailed, nonnegative (so mg3_gpd accepts them); ragged
        # units go through run_test, equal ones stack into one batched array
        long = 20 if lengths == "ragged" else 10
        g = RngStream(4041).generator()
        return [
            np.abs(g.standard_cauchy(10) if i % 3 else g.standard_normal(long))
            for i in range(12)
        ]

    def _tf_rows(self):
        # 33 rows of 10 frames: a column-major array and its strided rows
        x = RngStream(4042).generator().standard_cauchy(640)
        return spectrogram(Signal(x), kaiser_window(64, 5.0)).magnitude_squared

    def _check(self, units, spec, domain="time"):
        batch = _outcomes_or_error(lambda: batch_test(units, spec, domain).outcomes)
        assert batch == _outcomes_or_error(lambda: tuple(run_test(spec, u) for u in units))
        return batch

    @pytest.mark.parametrize("kind", MG_KINDS + BASELINE_KINDS)
    def test_time_and_tf_units(self, table, kind):
        spec = self._spec(kind, table)
        for lengths in ("ragged", "equal"):
            time_units = self._time_units(lengths)
            assert len(self._check(time_units, spec)) == 12
            signed = [u * np.where(np.arange(u.size) % 2, 1.0, -1.0) for u in time_units]
            self._check(signed, spec)  # mg3_gpd refuses the first, the rest decide all
        self._check(np.stack(signed), spec)  # one 2-D array, as analyze passes
        rows = self._tf_rows()
        for units in (rows, list(rows), np.ascontiguousarray(rows)):
            assert len(self._check(units, spec, "time-frequency")) == 33
        report = batch_test(rows, spec, "time-frequency", labels=range(33))
        loop = BatchReport("time-frequency", 0.05, tuple(run_test(spec, r) for r in rows), tuple(range(33)))
        assert json.dumps(report.to_json_dict()) == json.dumps(loop.to_json_dict())

    @pytest.mark.parametrize("kind", MG_KINDS + BASELINE_KINDS)
    def test_report_text_is_the_encoders_without_the_encoder(self, table, kind, monkeypatch):
        reports = [batch_test(self._time_units(lengths), self._spec(kind, table))
                   for lengths in ("ragged", "equal")]
        assert len({o.n for o in reports[0].outcomes}) == 2  # decided by the run_test loop
        freqs = np.linspace(0.0, 0.5, 33).tolist()
        reports.append(batch_test(self._tf_rows(), self._spec(kind, table), "time-frequency", freqs))
        thresholds = 2 if kind == "mg_two_sided" else 1
        assert {len(o.thresholds) for r in reports for o in r.outcomes} == {thresholds}
        expected = [_encoded(r) for r in reports]
        # every report batch_test makes is written from the layout, never by the encoder
        monkeypatch.setattr(signal_module, "json_text", lambda doc: pytest.fail("encoded"))
        assert [r.json_text() for r in reports] == expected

    @pytest.mark.parametrize("kind", MG_KINDS + BASELINE_KINDS)
    @pytest.mark.parametrize(
        "bad",
        [
            [[np.nan] * 10],
            [np.zeros(10)],
            [-np.ones(10)],
            [np.full(10, 2.5)],  # zero variance
            [np.ones(5)],  # too short for a baseline, not in the table
            [np.ones((2, 10))],
            ["abc"],
            [np.arange(1.0, 13.0), [np.nan] * 10],  # not in the table, then a bad unit
            [[np.nan] * 10, np.arange(1.0, 13.0)],  # a bad unit, then one not in the table
            # two faults in one unit pin the order of run_test's checks
            [np.r_[-1.0, np.nan, np.ones(8)]],  # negative (mg3_gpd) and not finite
            [[np.nan] * 5],  # too short for a baseline and not finite
            [np.r_[np.zeros(9), np.inf]],  # not finite and (but for inf) all zero
        ],
        ids=[
            "nan", "zeros", "negative", "constant", "short", "2-d", "text",
            "uncovered-first", "uncovered-second", "negative-nan", "short-nan", "zeros-inf",
        ],
    )
    def test_the_first_refused_unit_raises_run_tests_error(self, table, kind, bad):
        for lengths in ("ragged", "equal"):
            units = self._time_units(lengths)
            units[5:5] = bad
            self._check(units, self._spec(kind, table))

    @pytest.mark.parametrize("kind", MG_KINDS)
    def test_a_refused_last_unit_raises_before_any_scalar_statistic(self, table, kind, monkeypatch):
        units = np.abs(RngStream(4045).generator().standard_cauchy((12, 10)))
        units[-1] = np.nan
        calls = []
        exact = testing._KINDS[kind].exact
        counted = replace(testing._KINDS[kind], exact=lambda x: calls.append(x) or exact(x))
        monkeypatch.setitem(testing._KINDS, kind, counted)
        with pytest.raises(ValueError, match="NaN or infinite"):
            batch_test(units, self._spec(kind, table))
        assert len(calls) == 0  # found refused without the exact statistic

    @pytest.mark.parametrize("kind", MG_KINDS)
    def test_a_table_miss_is_raised_before_a_later_refused_unit(self, table, kind):
        units = np.abs(RngStream(4046).generator().standard_cauchy((4, 11)))  # n = 11: no entry
        units[2] = np.nan
        spec = self._spec(kind, table)
        error, message = self._check(units, spec)  # batch_test raises what the loop raises
        assert error is TableCoverageError and "n=11" in message
        units[0] = np.nan  # now a refused unit comes before any lookup
        assert self._check(units, spec)[0] is ValueError

    def test_identical_on_any_cpu_count(self, table, set_cpus, monkeypatch):
        monkeypatch.setattr(signal_module, "BLOCK_VALUES", 40)  # 4 rows of 10 per block
        g = RngStream(4043).generator()
        rows = g.standard_cauchy((150, 10))
        ragged = [g.standard_normal(20) for _ in range(30)] + list(rows)
        spec = self._spec("mg_two_sided", table)
        docs = []
        for k in (1, 2, 3):
            set_cpus(k)
            docs.append(
                [json.dumps(batch_test(units, spec).to_json_dict()) for units in (rows, ragged)]
            )
        assert docs[1:] == docs[:1] * 2
        assert self._check(ragged, spec) == batch_test(ragged, spec).outcomes

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baseline_units_in_late_blocks_on_helper_threads(self, kind, set_cpus, monkeypatch):
        monkeypatch.setattr(signal_module, "BLOCK_VALUES", 40)  # 4 rows of 10 per block
        set_cpus(3)
        spec = TestSpec(kind, 0.05)
        rows = RngStream(4044).generator().standard_cauchy((40, 10))  # 10 blocks
        # units far from 1, decided as the same units scaled by a power of two
        far = rows.copy()
        far[33] *= 2.0**700
        far[38] *= 2.0**-1000
        assert self._check(far, spec) == batch_test(rows, spec).outcomes
        # a degenerate unit in block 8 raises run_test's error, from batch_test
        # and from reject_rows run on a helper thread
        rows[33] = 2.5
        assert self._check(rows, spec) == (ValueError, "sample is degenerate (all values equal)")
        blocks = rows.reshape(10, 4, 10)
        with pytest.raises(ValueError, match="degenerate"):
            _simulate([(10, lambda b: reject_rows(spec, blocks[b]))])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.sampled_from(MG_KINDS + BASELINE_KINDS),
        st.sampled_from((0, 1, 2, 3, 7, 8, 10, 20)),  # short for some kinds, not tabled for some
        st.lists(st.sets(st.sampled_from(list(DEFECTS)), max_size=3), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_a_block_with_defect_rows(self, table, kind, n, faults, seed):
        # refused rows anywhere in a block: batch_test and reject_rows raise what
        # a run_test loop raises, and run_test what its checks, in order, say
        x = 1.0 + np.abs(RngStream(seed).generator().standard_cauchy((len(faults), n)))
        for row, defects in zip(x, faults):
            for k, (defect, value) in enumerate(DEFECTS.items()):
                if defect not in defects:
                    continue
                if k < 2:
                    row[:] = value
                elif n:
                    row[3 * k % n] = value
        spec = self._spec(kind, table)
        loop = _outcomes_or_error(lambda: tuple(run_test(spec, row) for row in x))
        assert _outcomes_or_error(lambda: batch_test(x, spec).outcomes) == loop
        expected = [o.reject for o in loop] if isinstance(loop[0], TestOutcome) else loop
        assert _outcomes_or_error(lambda: reject_rows(spec, x).tolist()) == expected
        for row in x:
            message = _refusal_reference(kind, row)
            got = _outcomes_or_error(lambda: run_test(spec, row))
            if message is None:
                assert isinstance(got, TestOutcome) or got[0] is TableCoverageError
            else:
                assert got == (ValueError, message)
                if kind in MG_KINDS and kind != "mg3_gpd":
                    assert _outcomes_or_error(lambda: modified_greenwood(row)) == got


class TestReportText:
    """``BatchReport.json_text`` is the encoder's text of ``to_json_dict``, or its error."""

    OUTCOME = TestOutcome("mg2", 10, 0.05, 0.25, (0.375,), False)

    def _report(self, labels, outcomes=None, c=0.05):
        outcomes = [self.OUTCOME] * len(labels) if outcomes is None else outcomes
        return BatchReport("time", c, tuple(outcomes), tuple(labels))

    def _check(self, report):
        text = _outcomes_or_error(report.json_text)
        assert text == _outcomes_or_error(lambda: _encoded(report))
        return text

    def test_caller_labels(self):
        for labels in (["a", "", 'caf\u00e9 "\\\n'], [None, 1, 2.5, "z"], [True, False, 0]):
            assert isinstance(self._check(self._report(labels)), str)
        assert self._check(self._report([0, np.int64(1)]))[0] is TypeError

    def test_report_without_outcomes(self):
        for domain, c in (("time", 0.05), ("time-frequency", 0.25)):
            text = self._check(BatchReport(domain, c, (), ()))
            assert text.endswith('"units": []\n}\n')

    def test_values_outside_the_layout(self):
        class Tagged(TestOutcome):
            def to_json_dict(self):
                return {**super().to_json_dict(), "tag": "extra"}

        o = self.OUTCOME
        for outcome in (
            replace(o, statistic=np.float64(0.25)),
            replace(o, c=np.float64(0.05)),
            replace(o, thresholds=[0.375, np.float64(0.5)]),
            replace(o, thresholds=()),
            replace(o, n=np.int64(10)),
            replace(o, n=10.0),
            replace(o, reject=np.bool_(True)),
            replace(o, reject=1),
            replace(o, kind=None),
            Tagged(*vars(o).values()),
        ):
            self._check(self._report([0, 1], [o, outcome]))
        self._check(self._report([0], c=np.float64(0.05)))
        self._check(BatchReport(None, 0.05, (o,), (0,)))

    @pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_names_its_path(self, number):
        o = self.OUTCOME
        for report, path in (
            (self._report(range(18), [o] * 17 + [replace(o, statistic=number)]), "units[17].statistic"),
            (self._report([0, number]), "units[1].unit"),
            (self._report([0], [replace(o, thresholds=(0.1, number))]), "units[0].thresholds[1]"),
            (self._report([0], c=number), "c"),
        ):
            with pytest.raises(ValueError, match=rf"^{re.escape(path)} is {number}, which JSON"):
                report.json_text()

    FINITE = st.floats(allow_nan=False, allow_infinity=False)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers() | FINITE | st.text(max_size=3),
                st.builds(
                    TestOutcome,
                    st.text(max_size=3),
                    st.integers(),
                    FINITE,
                    FINITE,
                    st.lists(FINITE, max_size=3).map(tuple),
                    st.booleans(),
                ),
            ),
            max_size=5,
        ),
        FINITE,
    )
    def test_any_plain_report(self, units, c):
        report = BatchReport("time", c, tuple(o for _, o in units), tuple(u for u, _ in units))
        assert report.json_text() == _encoded(report)


class TestSpectrogramNulls:
    BASE = Gaussian(0.0, 1.0)
    L, W, BETA, OV = 400, 64, 10.0, 0
    BAND = (0.01, 0.49)  # interior bins; DC and Nyquist follow a different null

    def _table(self):
        return build_spectrogram_quantile_table(
            self.BASE,
            [(0.05, "upper")],
            self.L,
            self.W,
            self.BETA,
            self.OV,
            60,
            RngStream(31415),
            f_min=self.BAND[0],
            f_max=self.BAND[1],
        )

    def _rows(self, x):
        sp = spectrogram(Signal(x), kaiser_window(self.W, self.BETA), self.OV)
        return frequency_rows(sp, *self.BAND)[1]

    def test_table_is_keyed_by_geometry(self):
        table = self._table()
        rec = table.records[0]
        assert rec["n"] == 6  # (400 - 64) // 64 + 1 frames
        assert rec["params"]["domain"] == "spectrogram"
        assert rec["params"]["window_length"] == 64
        assert table.metadata["M"] == 60 * 31  # signals times in-band rows
        extra = spectrogram_null_params(self.BASE, self.W, self.BETA, self.OV, self.L)
        assert table.value_for(self.BASE, 6, 0.05, "upper", extra) > 0.0

    def test_geometry_key_survives_json(self, tmp_path):
        table = self._table()
        path = tmp_path / "tf.json"
        table.save(path)
        loaded = QuantileTable.load(path)
        extra = spectrogram_null_params(self.BASE, self.W, self.BETA, self.OV, self.L)
        assert loaded.value_for(self.BASE, 6, 0.05, "upper", extra) == table.value_for(
            self.BASE, 6, 0.05, "upper", extra
        )

    def test_a_repeated_level_is_refused_before_any_draw(self, monkeypatch):
        def fail(*args):
            raise AssertionError("simulated")

        monkeypatch.setattr(signal_module, "_simulate", fail)
        levels = [(0.05, "upper"), (0.01, "lower"), (0.05, "upper")]
        # the raw domain's rule and message, keyed by the null and the frame count
        message = r"^duplicate request \('gaussian', .*, 6, '0.05', 'upper'\)$"
        with pytest.raises(ValueError, match=message):
            build_spectrogram_quantile_table(
                self.BASE, levels, self.L, self.W, self.BETA, self.OV, 60, RngStream(31415)
            )

    def test_raw_table_cannot_serve_the_tf_path(self, quick_gaussian_table):
        extra = spectrogram_null_params(self.BASE, self.W, self.BETA, self.OV, self.L)
        spec = TestSpec("mg2", 0.05, quick_gaussian_table, extra_params=extra)
        x = sample(self.BASE, self.L, RngStream(16))
        with pytest.raises(TableCoverageError):
            batch_test(self._rows(x), spec, domain="time-frequency")

    def test_null_rows_reject_near_level(self):
        extra = spectrogram_null_params(self.BASE, self.W, self.BETA, self.OV, self.L)
        spec = TestSpec("mg2", 0.05, self._table(), extra_params=extra)
        rng = RngStream(2718)
        rejected = total = 0
        for s in range(30):
            rows = self._rows(sample(self.BASE, self.L, rng.substream(s)))
            report = batch_test(rows, spec, domain="time-frequency")
            rejected += sum(o.reject for o in report.outcomes)
            total += len(report.outcomes)
        # calibrated on these seeds: 60/930; wide band covers the finite-M
        # threshold noise shared by every row decision
        assert 0.02 < rejected / total < 0.10

    def test_heavy_tailed_rows_reject_often(self):
        extra = spectrogram_null_params(self.BASE, self.W, self.BETA, self.OV, self.L)
        spec = TestSpec("mg2", 0.05, self._table(), extra_params=extra)
        rng = RngStream(2719)
        rejected = total = 0
        # pooled over enough signals that the rate, not one seed's luck, is
        # tested: 200 signals read 0.30-0.41 over seeds 100-119, where 10
        # signals fell under the bound for 9 of 40 seeds
        for s in range(200):
            rows = self._rows(sample(Stable(1.5, 1.0), self.L, rng.substream(s)))
            report = batch_test(rows, spec, domain="time-frequency")
            rejected += sum(o.reject for o in report.outcomes)
            total += len(report.outcomes)
        assert rejected / total > 0.25  # calibrated: 2439/6200

    def _null(self, signals, rng):
        return estimate_spectrogram_null(
            self.BASE, self.L, self.W, self.BETA, self.OV, signals, rng, *self.BAND
        )

    def test_null_is_identical_for_any_cpu_count(self, set_cpus, monkeypatch):
        rng = RngStream(31415)

        def slow_first_sample(spec, n, stream):
            if stream.stream_id == rng.stream_id:  # with threads, signal 0 finishes after later ones
                time.sleep(0.1)
            return sample(spec, n, stream)

        monkeypatch.setattr(signal_module, "sample", slow_first_sample)
        pooled, docs = [], []
        for k in (1, 2, 3):
            set_cpus(k)
            pooled.append(self._null(7, rng).tobytes())
            docs.append(json.dumps(self._table().to_json_dict(), sort_keys=True))
        assert pooled[1:] == pooled[:1] * 2
        assert docs[1:] == docs[:1] * 2
        # signal s is drawn from substream s, and its rows keep signal order
        values = np.frombuffer(pooled[0])
        for s in range(7):
            rows = self._rows(sample(self.BASE, self.L, rng.substream(s)))
            expected = modified_greenwood_batch(rows)
            assert values[31 * s : 31 * (s + 1)].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_lowest_failing_signal_is_raised(self, set_cpus, monkeypatch, cpus):
        rng = RngStream(31416)

        def failing_sample(spec, n, stream):
            s = stream.stream_id - rng.stream_id
            if s in (1, 2):
                if s == 1:  # with threads, signal 2 fails first
                    time.sleep(0.2)
                raise ValueError(f"signal {s}")
            return sample(spec, n, stream)

        monkeypatch.setattr(signal_module, "sample", failing_sample)
        set_cpus(cpus)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^signal 1$"):
            self._null(6, rng)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "base",
        [Gaussian(0.3, 2.0), Stable(1.5), Stable(1.0), StudentT(3), GPD(0.5)],
        ids=["gaussian", "stable", "cauchy", "student_t", "gpd"],  # a Cauchy draws no exponential
    )
    @pytest.mark.parametrize(
        "length, w, overlap",
        [
            (400, 64, 0),  # one chunk, 16 samples past the last frame
            (2100 * 64 + 30, 64, 0),  # chunks of 1024 frames, a short last one, 30 samples past
            (2500 * 55 + 64 + 17, 64, 9),  # 9 samples carried into each next chunk, 17 past
            (70_005, 40_000, 30_000),  # one frame per chunk, carrying more than a hop
        ],
        ids=["one_chunk", "chunks", "overlapping_chunks", "frame_chunks"],
    )
    @pytest.mark.parametrize("band", [(None, None), (0.1, 0.3)], ids=["full", "band"])
    def test_streamed_signals_are_the_whole_signal_rows(self, base, length, w, overlap, band):
        rng, rate = RngStream(4242), 2.0
        values = estimate_spectrogram_null(base, length, w, 5.0, overlap, 2, rng, *band, rate)
        expected = [
            modified_greenwood_batch(
                frequency_rows(
                    spectrogram(
                        Signal(sample(base, length, rng.substream(s)), rate),
                        kaiser_window(w, 5.0),
                        overlap,
                    ),
                    *band,
                )[1]
            )
            for s in range(2)
        ]
        assert values.tobytes() == np.concatenate(expected).tobytes()

    @pytest.mark.parametrize(
        "base", [Gaussian(), Stable(1.5), StudentT(3), GPD(0.5)], ids=lambda b: type(b).__name__
    )
    def test_no_signal_is_held_whole(self, base, set_cpus):
        # one 2e6-sample signal is 16 MB, and its one-row band 83 kB; numpy
        # reports its buffers to tracemalloc
        set_cpus(1)
        tracemalloc.start()
        try:
            estimate_spectrogram_null(base, 2_000_000, 256, 5.0, 64, 1, RngStream(3), 0.25, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_refused_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(signal_module, "sample", lambda *args: drawn.append(args))
        refusals = [
            ("no frequency rows inside [5.0, 0.5] Hz", {"f_min": 5.0}),
            ("f_min must not exceed f_max", {"f_min": 0.3, "f_max": 0.2}),
            ("sample_rate must be a finite positive number", {"sample_rate": 0.0}),
            ("sample_rate must be a finite positive number", {"sample_rate": math.inf}),
        ]
        for message, kwargs in refusals:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                estimate_spectrogram_null(self.BASE, 400, 64, 10.0, 0, 3, RngStream(1), **kwargs)
        assert drawn == []

    def test_non_finite_draws_are_refused(self, monkeypatch):
        def draw_inf(spec, n, stream):
            x = sample(spec, n, stream)
            x[-1] = math.inf  # past the last frame: read by no frame, but drawn
            return x

        monkeypatch.setattr(signal_module, "sample", draw_inf)
        with pytest.raises(ValueError, match="^signal contains NaN or infinite values$"):
            estimate_spectrogram_null(self.BASE, 400, 64, 10.0, 0, 3, RngStream(1))

    def test_validation(self):
        with pytest.raises(ValueError, match="signals"):
            estimate_spectrogram_null(self.BASE, 400, 64, 10.0, 0, 0, RngStream(1))
        with pytest.raises(ValueError, match="signal_length 100 gives fewer than 2 frames"):
            build_spectrogram_quantile_table(
                self.BASE, [(0.05, "upper")], 100, 64, 10.0, 0, 2, RngStream(1)
            )
        with pytest.raises(ValueError, match="levels"):
            build_spectrogram_quantile_table(
                self.BASE, [], 400, 64, 10.0, 0, 2, RngStream(1)
            )
        with pytest.raises(ValueError, match="side"):
            build_spectrogram_quantile_table(
                self.BASE, [(0.05, "middle")], 400, 64, 10.0, 0, 2, RngStream(1)
            )


# every function that takes a spectrogram geometry, as a call on (signal
# length, window length, overlap); kaiser_window takes the window length only
_BASE = Gaussian(0.0, 1.0)
_GEOMETRY_CALLS = {
    "kaiser_window": lambda L, w, o: kaiser_window(w, 5.0),
    "spectrogram": lambda L, w, o: spectrogram(Signal(np.arange(float(L))), np.ones(w), o),
    "spectrogram_null_params": lambda L, w, o: spectrogram_null_params(_BASE, w, 5.0, o, L),
    "estimate_spectrogram_null": lambda L, w, o: estimate_spectrogram_null(
        _BASE, L, w, 5.0, o, 2, RngStream(1)
    ),
    "build_spectrogram_quantile_table": lambda L, w, o: build_spectrogram_quantile_table(
        _BASE, [(0.05, "upper")], L, w, 5.0, o, 2, RngStream(1)
    ),
}
_TF_CALLS = ("spectrogram_null_params", "estimate_spectrogram_null",
             "build_spectrogram_quantile_table")


class TestGeometryRule:
    """Each rule of the spectrogram geometry has one message, whichever function checks it."""

    @pytest.mark.parametrize(
        "geometry, message, calls",
        [
            ((100, 0, 0), "window_length must be at least 2, got 0", tuple(_GEOMETRY_CALLS)),
            ((100, 1, 0), "window_length must be at least 2, got 1", tuple(_GEOMETRY_CALLS)),
            ((100, 64, 64), "overlap must satisfy 0 <= overlap < window_length",
             ("spectrogram", *_TF_CALLS)),
            ((100, 128, 0), "signal_length 100 is shorter than window_length 128",
             ("spectrogram", *_TF_CALLS)),
            ((100, 64, 0),
             "signal_length 100 gives fewer than 2 frames of window_length 64 at overlap 0",
             _TF_CALLS),
        ],
        ids=["window_0", "window_1", "overlap_is_window", "signal_shorter", "one_tf_frame"],
    )
    def test_one_message_per_rule(self, monkeypatch, geometry, message, calls):
        simulated = []

        def counted(jobs):
            simulated.append(jobs)
            return _simulate(jobs)

        monkeypatch.setattr(signal_module, "_simulate", counted)
        for name in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _GEOMETRY_CALLS[name](*geometry)
        assert simulated == []  # refused before any signal is drawn

    def test_a_spectrogram_may_have_one_frame(self):
        sp = _GEOMETRY_CALLS["spectrogram"](100, 64, 0)
        assert sp.magnitude_squared.shape == (33, 1)


class TestSignalFiles:
    def test_binary_round_trip(self, tmp_path):
        x = RngStream(17).generator().standard_normal(257)
        sig = Signal(x, sample_rate=25000.0)
        path = tmp_path / "sig.bin"
        write_signal(path, sig)
        back = read_signal(path)
        assert back.sample_rate == 25000.0
        assert np.array_equal(back.samples, x)
        assert not list(tmp_path.glob("*.tmp"))

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.5\n-2.25\n0.5\n3.0\n")
        sig = read_signal(path, sample_rate=100.0)
        assert sig.sample_rate == 100.0
        assert np.array_equal(sig.samples, [1.5, -2.25, 0.5, 3.0])

    def test_truncated_binary_rejected(self, tmp_path):
        x = Signal(np.arange(32.0))
        path = tmp_path / "sig.bin"
        write_signal(path, x)
        raw = path.read_bytes()
        for cut in (raw[:-8], raw[:12]):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match="truncated"):
                read_signal(path)


# --------------------------------------------------------------------------
# files read_signal may be handed: binary files with any header, truncated
# anywhere or followed by garbage, and CSV text with any number of columns,
# separators, NaN and infinities

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = _FINITE | st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _binary_files(draw):
    # mostly well formed, so that many files read; then maybe a wrong count,
    # a cut or trailing garbage
    values = draw(st.lists(_FINITE, max_size=12) | st.lists(_FLOATS, max_size=12))
    count = len(values)
    if draw(st.integers(0, 3)) == 3:
        count = draw(st.integers(0, 16) | st.integers(0, 2**64 - 1))
    rate = draw(st.floats(1e-3, 1e6) | _FLOATS)
    raw = b"GWSIG001" + struct.pack("<Qd", count, rate) + struct.pack(f"<{len(values)}d", *values)
    if draw(st.integers(0, 3)) == 3:
        raw = raw[: draw(st.integers(0, len(raw)))]
    if draw(st.integers(0, 3)) == 3:
        raw += draw(st.binary(min_size=1, max_size=8))
    return raw


_CSV = st.builds(
    lambda rows, sep: "\n".join(sep.join(repr(v) for v in row) for row in rows).encode(),
    st.lists(st.lists(_FINITE, min_size=1, max_size=1), max_size=8)
    | st.lists(st.lists(_FLOATS, min_size=1, max_size=3), max_size=8),
    st.sampled_from([",", " ", "\t", ";"]),
)
ANY_SIGNAL_FILE = _binary_files() | _CSV | st.binary(max_size=64) | st.text(max_size=32).map(str.encode)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "signal"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ANY_SIGNAL_FILE, st.floats(1e-3, 1e6) | _FLOATS)
def test_any_file_reads_or_is_a_value_error(fuzz_path, raw, rate):
    fuzz_path.write_bytes(raw)
    try:
        sig = read_signal(fuzz_path, rate)
    except ValueError:
        return
    assert sig.samples.dtype == np.float64 and sig.samples.ndim == 1
    assert sig.samples.size >= 2 and np.isfinite(sig.samples).all()
    assert sig.sample_rate > 0 and math.isfinite(sig.sample_rate)
