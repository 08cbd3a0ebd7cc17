"""Tests for segmentation, spectrograms, batch screening and signal files."""

import math

import numpy as np
import pytest

from greenwood.critical import QuantileTable, TableCoverageError
from greenwood.distributions import Gaussian, Stable, sample
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
from greenwood.testing import TestSpec


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
        assert len(parts) == 25
        assert all(p.size == 1000 for p in parts)

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
        with pytest.raises(ValueError, match="shorter than the window"):
            spectrogram(sig, np.ones(32))
        with pytest.raises(ValueError, match="window must be"):
            spectrogram(sig, np.ones((4, 4)))


class TestFrequencyRows:
    def _spec(self):
        x = RngStream(14).generator().standard_normal(64)
        return spectrogram(Signal(x, 8.0), np.ones(8), overlap=0)

    def test_band_selection_is_inclusive(self):
        rows = frequency_rows(self._spec(), 1.0, 3.0)
        assert [f for f, _ in rows] == [1.0, 2.0, 3.0]
        assert all(r.size == 8 for _, r in rows)

    def test_default_is_full_band(self):
        assert [f for f, _ in frequency_rows(self._spec())] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_row_values_match_matrix(self):
        sp = self._spec()
        rows = dict(frequency_rows(sp, 2.0, 2.0))
        assert np.array_equal(rows[2.0], sp.magnitude_squared[2])

    def test_validation(self):
        with pytest.raises(ValueError, match="no frequency rows"):
            frequency_rows(self._spec(), 1.4, 1.6)
        with pytest.raises(ValueError, match="f_min"):
            frequency_rows(self._spec(), 3.0, 1.0)


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
            created_at="fixed",
        )

    def _rows(self, x):
        sp = spectrogram(Signal(x), kaiser_window(self.W, self.BETA), self.OV)
        return [r for _, r in frequency_rows(sp, *self.BAND)]

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
        for s in range(10):
            rows = self._rows(sample(Stable(1.5, 1.0), self.L, rng.substream(s)))
            report = batch_test(rows, spec, domain="time-frequency")
            rejected += sum(o.reject for o in report.outcomes)
            total += len(report.outcomes)
        assert rejected / total > 0.25  # calibrated: 139/310

    def test_validation(self):
        with pytest.raises(ValueError, match="signals"):
            estimate_spectrogram_null(self.BASE, 400, 64, 10.0, 0, 0, RngStream(1))
        with pytest.raises(ValueError, match="levels"):
            build_spectrogram_quantile_table(
                self.BASE, [], 400, 64, 10.0, 0, 2, RngStream(1)
            )
        with pytest.raises(ValueError, match="side"):
            build_spectrogram_quantile_table(
                self.BASE, [(0.05, "middle")], 400, 64, 10.0, 0, 2, RngStream(1)
            )


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
