import json
import math
import stat
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwood import critical, testing
from greenwood.critical import (
    BLOCK_VALUES,
    ESTIMATOR_ID,
    GROUP_STRIDE,
    RNG_LAYOUT,
    SCHEMA_VERSION,
    QuantileTable,
    TableCoverageError,
    TableRequest,
    _sample_job,
    _simulate,
    atomic_open,
    build_quantile_table,
    empirical_quantile,
    estimate_null_distribution,
    json_text,
    quantile_record,
    write_json,
)
from greenwood.distributions import GPD, Gaussian, Stable, StudentT, params_dict, sample
from greenwood.power import PowerStudyConfig, export_curve, run_power_study, size_check
from greenwood.rng import RngStream
from greenwood.signal import (
    Signal,
    build_spectrogram_quantile_table,
    estimate_spectrogram_null,
    kaiser_window,
    segment_signal,
    spectrogram,
    spectrogram_null_params,
)
from greenwood.statistic import modified_greenwood_batch
from greenwood.testing import TestSpec, thresholds_for

# the metadata every table records (table_metadata); no field varies between runs
PROVENANCE = {"M", "master_seed", "stream_id", "rng_layout", "estimator", "numpy_version"}

_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_KEYS = ("family", "params", "n", "c", "side", "value")
_GOOD_ENTRY = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["gaussian", "student_t"]),
        "params": st.dictionaries(st.sampled_from(["mu", "nu"]), _SCALAR, max_size=2),
        "n": st.integers(2, 100),
        "c": st.floats(0.001, 0.499),
        "side": st.sampled_from(["lower", "upper"]),
        "value": st.floats(0.0, 1.0),
    }
)
# a good entry with up to two fields replaced by any JSON value and maybe one
# dropped, so that most documents reach the checks of each field
_ENTRY = st.builds(
    lambda good, bad, drop: {k: v for k, v in {**good, **bad}.items() if k not in drop},
    _GOOD_ENTRY,
    st.dictionaries(st.sampled_from(_KEYS), st.floats() | _JSON, max_size=2),
    st.sets(st.sampled_from(_KEYS), max_size=1),
)
ANY_TABLE_DOCUMENT = _JSON | st.fixed_dictionaries(
    {"schema_version": st.just(SCHEMA_VERSION)},
    optional={"metadata": _JSON, "entries": st.lists(_ENTRY | _JSON, max_size=3)},
)


class TestEmpiricalQuantile:
    def test_median_of_five(self):
        assert empirical_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_interpolates_between_order_statistics(self):
        # type 7: h = (m - 1) p + 1; for m=4, p=0.5 -> h=2.5 -> 2 + 0.5*(3-2)
        assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        # m=2, p=0.25 -> h=1.25 -> 10 + 0.25*(20-10)
        assert empirical_quantile([20.0, 10.0], 0.25) == 12.5

    def test_constant_input(self):
        assert empirical_quantile(np.full(9, 3.3), 0.9) == 3.3

    def test_result_inside_data_range(self):
        g = RngStream(401).generator()
        x = g.standard_normal(101)
        for p in (0.001, 0.05, 0.5, 0.95, 0.999):
            q = empirical_quantile(x, p)
            assert x.min() <= q <= x.max()

    # table levels, the ends of the open interval, and levels at which
    # h = (m - 1) p is whole or has fraction 0.5 at some of the sizes below
    EXACT_LEVELS = (
        0.5, 0.25, 0.75, 0.125, 1 / 3, 2 / 3, 0.001, 0.01, 0.025, 0.05, 0.1,
        0.9, 0.95, 0.975, 0.99, 0.999, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0),
    )

    @staticmethod
    def _assert_numpy_bits(x, p, label):
        expected = float(np.quantile(x, p, method="linear"))
        got = empirical_quantile(x, p)
        if expected == 0.0:  # which signed zero lands on a rank depends on the partition
            assert got == 0.0, (label, x.size, p)
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (label, x.size, p)

    @pytest.mark.parametrize("m", [1, 2, 3, 999, 1000, 1001, 65536, 100000])
    def test_numpy_linear_bits(self, m):
        g = RngStream(402).generator()
        samples = {
            "normal": g.standard_normal(m),
            "cauchy": g.standard_cauchy(m),
            "ties": g.integers(-2, 3, m).astype(np.float64),
            "signed zeros": np.copysign(g.integers(0, 2, m), g.standard_normal(m)),
        }
        with_inf = g.standard_normal(m)
        with_inf[g.choice(m, max(1, m // 10), replace=False)] = np.inf
        with_inf[g.choice(m, m // 20, replace=False)] = -np.inf
        samples["infinities"] = with_inf
        for label, x in samples.items():
            whole = (j / (m - 1) for j in (1, m // 3, m - 2)) if m > 2 else ()
            half = ((j + 0.5) / (m - 1) for j in (0, m // 2, m - 2)) if m > 1 else ()
            for p in (*self.EXACT_LEVELS, *whole, *half):
                if 0.0 < p < 1.0:
                    with np.errstate(invalid="ignore"):  # inf - inf inside numpy's lerp
                        self._assert_numpy_bits(x, p, label)

    @pytest.mark.parametrize("m", [1, 2, 10, 1001, 100000])
    def test_a_nan_gives_nan(self, m):
        x = RngStream(403).generator().standard_normal(m)
        x[m // 2] = np.nan
        for p in (0.01, 0.5, 0.99):
            assert math.isnan(np.quantile(x, p, method="linear"))
            assert math.isnan(empirical_quantile(x, p))

    def test_input_is_not_reordered(self):
        x = RngStream(404).generator().standard_normal(1000)
        before = x.copy()
        empirical_quantile(x, 0.95)
        assert x.tobytes() == before.tobytes()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0, 2.0], 1.0)


class TestNullDistribution:
    def test_deterministic_replay(self):
        a = estimate_null_distribution(Gaussian(0.0, 1.0), 10, 1000, RngStream(11))
        b = estimate_null_distribution(Gaussian(0.0, 1.0), 10, 1000, RngStream(11))
        np.testing.assert_array_equal(a, b)

    def test_each_value_is_its_own_rows_statistic(self):
        # replication r is row r % rows of block r // rows, and the statistic
        # is row-wise: deciding a whole block at once changes no value
        spec, n = StudentT(2), 10
        values = estimate_null_distribution(spec, n, 7000, RngStream(12))
        rows = BLOCK_VALUES // n
        blocks = [sample(spec, (rows, n), RngStream(12).substream(b)) for b in (0, 1)]
        expected = [modified_greenwood_batch(row[None, :])[0] for row in np.vstack(blocks)]
        np.testing.assert_array_equal(values, expected[:7000])

    @pytest.mark.parametrize("n", [10, 100])
    def test_fewer_replications_are_a_prefix(self, n):
        # a short last block is the first rows of a whole one, so replication
        # r never depends on the total
        more = estimate_null_distribution(Stable(1.5, 1.0), n, 2000, RngStream(15))
        fewer = estimate_null_distribution(Stable(1.5, 1.0), n, 1000, RngStream(15))
        np.testing.assert_array_equal(more[:1000], fewer)

    @pytest.mark.parametrize("n, replications", [(10, 14000), (1000, 1001)])
    def test_blocks_draw_only_the_rows_they_use(self, monkeypatch, n, replications):
        # rows = 6553 at n = 10 and 65 at n = 1000; neither divides the total
        assert replications % (BLOCK_VALUES // n)
        shapes = []

        def counting(spec, shape, rng):
            shapes.append(shape)
            return sample(spec, shape, rng)

        monkeypatch.setattr(critical, "sample", counting)
        values = estimate_null_distribution(Stable(1.5, 1.0), n, replications, RngStream(16))
        assert values.shape == (replications,)
        assert all(cols == n for _, cols in shapes)
        assert sum(rows for rows, _ in shapes) == replications

    def test_values_inside_statistic_range(self):
        vals = estimate_null_distribution(GPD(0.5, 1.0), 10, 2000, RngStream(13))
        assert vals.shape == (2000,)
        assert ((0.1 <= vals) & (vals <= 1.0)).all()

    def test_gaussian_mean_level(self):
        # E S_n is approximately pi / (2 n) for Gaussian data; generous band
        vals = estimate_null_distribution(Gaussian(0.0, 1.0), 100, 4000, RngStream(14))
        assert 1.2 / 100 < vals.mean() < 2.0 / 100

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            estimate_null_distribution(Gaussian(0.0, 1.0), 10, 999, RngStream(1))

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            estimate_null_distribution(Gaussian(0.0, 1.0), 1, 1000, RngStream(1))


def _null_values(m, path):
    return estimate_null_distribution(Gaussian(0.0, 1.0), 10, m, RngStream(30)).tobytes()


def _table_text(m, path):
    requests = [TableRequest(Gaussian(0.0, 1.0), 10, 0.05, "upper")]
    return json_text(build_quantile_table(requests, m, RngStream(30)).to_json_dict())


def _size(m, path):
    return size_check(TestSpec("jarque_bera"), 10, m, RngStream(30))


def _power_files(m, path, sizes=(10,)):
    config = PowerStudyConfig(TestSpec("jarque_bera"), "gaussian", (1.0,), sizes, m, 30)
    export_curve(run_power_study(config), path)
    return path.read_bytes() + path.with_name(path.name + ".json").read_bytes()


def _spectrogram_null_values(m, path, length=128):
    values = estimate_spectrogram_null(Gaussian(0.0, 1.0), length, 32, 5.0, 0, m, RngStream(30))
    return values.tobytes()


def _spectrogram_table_text(m, path, length=128, width=32, overlap=0):
    args = (Gaussian(0.0, 1.0), [(0.05, "upper")], length, width, 5.0, overlap, m, RngStream(30))
    return json_text(build_spectrogram_quantile_table(*args).to_json_dict())


_GAUSS_PARAMS = {"mu": 0.0, "sigma2": 1.0}
_ENTRY = {"family": "gaussian", "params": _GAUSS_PARAMS, "n": 10, "c": 0.05, "side": "upper"}
_ONE_ROW = QuantileTable({}, [{**_ENTRY, "value": 0.25}])
_SIGNAL = Signal(np.sin(np.arange(100.0)))


def _mg_thresholds(n, path):
    return thresholds_for(TestSpec("mg2", table=_ONE_ROW), n)


def _baseline_thresholds(n, path):
    return thresholds_for(TestSpec("jarque_bera"), n)


def _size_at(n, path):
    return size_check(TestSpec("jarque_bera"), n, 100, RngStream(30))


def _power_files_at(n, path):
    return _power_files(100, path, (n,))


def _table_value(n, path):
    return _ONE_ROW.value("gaussian", _GAUSS_PARAMS, n, 0.05, "upper")


def _segments(k, path):
    return segment_signal(_SIGNAL, k).tobytes()


def _kaiser(k, path):
    return kaiser_window(k, 5.0).tobytes()


def _spectrogram_overlap(k, path):
    return spectrogram(_SIGNAL, kaiser_window(8, 5.0), k).magnitude_squared.tobytes()


def _tf_null_signal_length(k, path):
    return _spectrogram_null_values(2, path, length=k)


def _tf_signal_length(k, path):
    return _spectrogram_table_text(2, path, length=k)


def _tf_window_length(k, path):
    return _spectrogram_table_text(2, path, width=k)


def _tf_overlap(k, path):
    return _spectrogram_table_text(2, path, overlap=k)


def _tf_key(window_length=32, overlap=0, signal_length=128):
    return spectrogram_null_params(Gaussian(0.0, 1.0), window_length, 5.0, overlap, signal_length)


def _tf_key_window_length(k, path):
    return _tf_key(window_length=k)


def _tf_key_overlap(k, path):
    return _tf_key(overlap=k)


def _tf_key_signal_length(k, path):
    return _tf_key(signal_length=k)


def _sample_size(k, path):
    return sample(Stable(1.5, 1.0), k, RngStream(30)).tobytes()


def _sample_rows(k, path):
    return sample(Stable(1.5, 1.0), (k, 10), RngStream(30)).tobytes()


def _sample_row_size(k, path):
    return sample(Stable(1.5, 1.0), (3, k), RngStream(30)).tobytes()


# (argument name, a valid count, the least valid count, the call taking it)
_COUNTS = [
    ("replications", 1000, 1000, _null_values),
    ("replications", 1000, 1000, _table_text),
    ("replications", 100, 100, _size),
    ("replications", 100, 100, _power_files),
    ("signals", 2, 1, _spectrogram_null_values),
    ("signals", 2, 1, _spectrogram_table_text),
    ("n", 10, 2, _mg_thresholds),
    ("n", 10, 0, _baseline_thresholds),  # n from 0 to 7 is short of BASELINE_MIN_N
    ("n", 10, 0, _size_at),
    ("n", 10, 0, _power_files_at),
    ("n", 10, 2, _table_value),
    ("segment_length", 10, 2, _segments),
    ("window_length", 64, 2, _kaiser),
    ("overlap", 4, 0, _spectrogram_overlap),
    ("signal_length", 128, 2, _tf_null_signal_length),
    ("signal_length", 128, 2, _tf_signal_length),
    ("window_length", 32, 2, _tf_window_length),
    ("overlap", 16, 0, _tf_overlap),
    ("window_length", 32, 2, _tf_key_window_length),
    ("overlap", 16, 0, _tf_key_overlap),
    ("signal_length", 128, 2, _tf_key_signal_length),
    ("n", 10, 1, _sample_size),
    ("m", 3, 1, _sample_rows),
    ("n", 10, 1, _sample_row_size),
]


@pytest.mark.parametrize(
    "name, count, least, run", _COUNTS, ids=[f"{c}-{run.__name__}" for _, c, _, run in _COUNTS]
)
def test_a_count_is_a_whole_number(name, count, least, run, tmp_path):
    # every count, size and length: an integral float gives the int's bytes,
    # metadata included, and anything else is refused with the argument's name
    path = tmp_path / "curve.csv"
    assert run(float(count), path) == run(count, path)
    for bad in (count + 0.5, math.nan, math.inf, -math.inf, str(count), None):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            run(bad, path)
    with pytest.raises(ValueError, match=rf"^{name} must be at least {least}, got {least - 1}$"):
        run(least - 1, path)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.json"


# CPU counts the engine is run at: serial, then 1, 2 and 3 helper threads
CPU_COUNTS = (1, 2, 3, 4)


class TestThreadedEngine:
    """Blocks run concurrently, and no output depends on how many threads run them."""

    def test_table_is_identical_for_any_helper_count(self, set_cpus):
        # 5 and 10 blocks per family, so every helper gets blocks
        requests = [
            TableRequest(spec, n, 0.05, side)
            for spec in (Gaussian(0.0, 1.0), Stable(1.5, 1.0), StudentT(2), GPD(0.5, 1.0))
            for n in (50, 100)
            for side in ("lower", "upper")
        ]
        docs = []
        for k in CPU_COUNTS:
            set_cpus(k)
            table = build_quantile_table(requests, 6000, RngStream(16))
            docs.append(json.dumps(table.to_json_dict(), sort_keys=True))
        assert docs[1:] == docs[:1] * 3

    @pytest.mark.parametrize("kind", ["jarque_bera", "ks_normality"])
    def test_baseline_threshold_is_identical_for_any_helper_count(
        self, set_cpus, monkeypatch, kind
    ):
        thresholds = []
        for k in CPU_COUNTS:
            set_cpus(k)
            monkeypatch.setattr(testing, "_baseline_cache", {})
            thresholds.append(testing._baseline_threshold(kind, 20, 0.05, 20000))  # 7 blocks
        assert thresholds[1:] == thresholds[:1] * 3

    def test_stress_eight_threads_switching_every_microsecond(self, set_cpus):
        spec, n, reps, rng = Stable(1.5, 1.0), 1000, 2000, RngStream(17)  # 31 blocks

        def statistic(rows):
            return modified_greenwood_batch(rows, overwrite_input=True)

        set_cpus(1)
        serial = _simulate([_sample_job(spec, n, reps, rng, statistic)])[0]
        set_cpus(8)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # run from a thread of its own, so that a hang fails the test
            worker = threading.Thread(
                target=lambda: results.extend(
                    _simulate([_sample_job(spec, n, reps, rng, statistic)])[0] for _ in range(3)
                ),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "the engine did not finish within 120 s"
        assert [r.tobytes() for r in results] == [serial.tobytes()] * 3

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_lowest_failing_block_is_raised(self, set_cpus, cpus):
        spec, n, reps, rng = Gaussian(0.0, 1.0), 1000, 1000, RngStream(18)  # 16 blocks of 65
        block_of = {sample(spec, (65, n), rng.substream(b))[0, 0]: b for b in range(16)}

        def first_column(rows):
            b = block_of[rows[0, 0]]
            if b in (1, 2):
                if b == 1:  # with threads, block 2 fails first
                    time.sleep(0.2)
                raise ValueError(f"block {b}")
            return rows[:, 0]

        set_cpus(cpus)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^block 1$"):
            _simulate([_sample_job(spec, n, reps, rng, first_column)])
        assert threading.active_count() == before

    def test_interrupt_in_the_calling_thread_outranks_a_helper_failure(self, set_cpus):
        # the helper fails on a lower pair than the one the calling thread is
        # interrupted in, and the caller still sees the interrupt
        caller = threading.current_thread()
        helper_in, caller_in, helper_failed = (threading.Event() for _ in range(3))

        def block(b):
            if threading.current_thread() is not caller:
                helper_in.set()
                caller_in.wait(5)
                helper_failed.set()
                raise ValueError(f"block {b}")
            if b == 0:  # the helper claims the next pair first
                helper_in.wait(5)
                return np.zeros(1)
            caller_in.set()
            helper_failed.wait(5)
            raise KeyboardInterrupt

        set_cpus(2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            _simulate([(3, block)])
        assert threading.active_count() == before



def _first_column(rows):
    return rows[:, 0]


class TestOneSchedule:
    """The blocks of many jobs share one schedule; each job is reduced as soon as it is done."""

    # (spec, n, replications): 4, 3, 5 and 1 blocks
    JOBS = [
        (Gaussian(0.0, 1.0), 100, 2000),
        (Stable(1.5, 1.0), 50, 3000),
        (StudentT(3), 1000, 300),
        (GPD(0.5, 1.0), 10, 100),
    ]

    @staticmethod
    def _stream(g):
        return RngStream(19).substream(g * GROUP_STRIDE)

    def _jobs(self, row_fns):
        return [
            _sample_job(spec, n, reps, self._stream(g), row_fn)
            for g, ((spec, n, reps), row_fn) in enumerate(zip(self.JOBS, row_fns))
        ]

    def test_slow_first_job_gives_the_same_values_for_any_cpu_count(self, set_cpus):
        slow = threading.Event()

        def slow_once(rows):  # the first block of the first job finishes last
            if not slow.is_set():
                slow.set()
                time.sleep(0.2)
            return _first_column(rows)

        set_cpus(1)
        alone = [_simulate([job])[0] for job in self._jobs([_first_column] * 4)]
        for k in (1, 2, 3):
            set_cpus(k)
            slow.clear()
            got = _simulate(self._jobs([slow_once] + [_first_column] * 3))
            assert [v.tobytes() for v in got] == [v.tobytes() for v in alone]

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_lowest_failing_job_and_block_is_raised(self, set_cpus, cpus):
        block_of = {
            sample(spec, (max(1, BLOCK_VALUES // n), n), self._stream(g).substream(b))[0, 0]: (g, b)
            for g, (spec, n, reps) in enumerate(self.JOBS)
            for b in range(5)
        }

        def failing(rows):
            g, b = block_of[rows[0, 0]]
            if (g, b) == (0, 2):  # with threads, (1, 1) fails first
                time.sleep(0.2)
                raise ValueError("job 0 block 2")
            if (g, b) == (1, 1):
                raise ValueError("job 1 block 1")
            return _first_column(rows)

        set_cpus(cpus)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^job 0 block 2$"):
            _simulate(self._jobs([failing] * 4))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_jobs_are_reduced_before_the_schedule_ends(self, set_cpus, cpus):
        spec, n, reps, rng = Gaussian(0.0, 1.0), 100, 1965, RngStream(20)  # 3 blocks
        lock = threading.Lock()
        holding, peak = set(), []

        def job(g):
            def row_fn(rows):
                with lock:
                    holding.add(g)
                    peak.append(len(holding))
                time.sleep(0.002)
                return _first_column(rows)

            return _sample_job(spec, n, reps, rng.substream(g * GROUP_STRIDE), row_fn)

        def reduce(g, values):
            with lock:
                holding.remove(g)
            return values.sum()

        set_cpus(cpus)
        sums = _simulate([job(g) for g in range(12)], reduce)
        assert not holding
        assert max(peak) <= cpus + 1
        assert sums == [_simulate([job(g)])[0].sum() for g in range(12)]

    # group 0 reads n = 10 and 200 off rows of 200 values; group 1 has one size
    MIXED = [
        TableRequest(spec, n, c, side)
        for spec, ns in ((Gaussian(0.0, 1.0), (200, 10)), (StudentT(2), (50,)))
        for n in ns
        for c, side in ((0.05, "upper"), (0.01, "lower"))
    ]

    def _mixed_table(self, set_cpus):
        set_cpus(3)
        table = build_quantile_table(self.MIXED, 3000, RngStream(21))
        set_cpus(1)
        return table

    def test_a_null_reads_every_n_from_prefixes_of_rows_of_its_largest(self, set_cpus):
        table = self._mixed_table(set_cpus)
        spec, sizes, rows = Gaussian(0.0, 1.0), [10, 200], BLOCK_VALUES // 200
        stream = RngStream(21).substream(0)
        drawn = np.vstack(
            [sample(spec, (min(rows, 3000 - b * rows), 200), stream.substream(b)) for b in range(10)]
        )
        values = modified_greenwood_batch(drawn, sizes=sizes)
        reference = [
            quantile_record(r, params_dict(spec), values[:, sizes.index(r.n)]) for r in self.MIXED[:4]
        ]
        assert json.dumps(table.records[:4]) == json.dumps(reference)

    def test_a_one_size_null_is_its_estimated_null_distribution(self, set_cpus):
        table = self._mixed_table(set_cpus)
        spec = StudentT(2)
        values = estimate_null_distribution(spec, 50, 3000, RngStream(21).substream(GROUP_STRIDE))
        reference = [quantile_record(r, params_dict(spec), values) for r in self.MIXED[4:]]
        assert json.dumps(table.records[4:]) == json.dumps(reference)

    def test_every_monte_carlo_loop_runs_on_one_simulate_call(self, monkeypatch):
        # _simulate reads the CPU count once per call, and nothing else reads it
        calls = []
        monkeypatch.setattr(critical, "_cpu_count", lambda: calls.append(1) or 1)
        monkeypatch.setattr(testing, "_baseline_cache", {})
        gauss, rng = Gaussian(0.0, 1.0), RngStream(22)
        requests = [TableRequest(gauss, n, 0.05, "upper") for n in (10, 20)]
        spec = TestSpec("mg2", 0.05, build_quantile_table(requests, 1000, rng))
        loops = [
            lambda: estimate_null_distribution(gauss, 10, 1000, rng),
            lambda: build_quantile_table(requests, 1000, rng),
            lambda: run_power_study(PowerStudyConfig(spec, "stable", (1.5, 2.0), (10, 20), 100, 22)),
            lambda: size_check(spec, 10, 100, rng),
            lambda: testing._baseline_threshold("jarque_bera", 10, 0.05, 1000),
            lambda: estimate_spectrogram_null(gauss, 400, 64, 5.0, 0, 3, rng),
        ]
        for loop in loops:
            calls.clear()
            loop()
            assert len(calls) == 1
        assert not hasattr(critical, "_map_blocks")


def _small_requests():
    gauss = Gaussian(0.0, 1.0)
    return [
        TableRequest(gauss, 10, 0.05, "upper"),
        TableRequest(gauss, 10, 0.01, "upper"),
        TableRequest(gauss, 10, 0.05, "lower"),
        TableRequest(StudentT(2), 10, 0.05, "lower"),
    ]


class TestBuildTable:
    def test_side_semantics_and_level_monotonicity(self):
        table = build_quantile_table(_small_requests(), 4000, RngStream(42))
        gauss = Gaussian(0.0, 1.0)
        up05 = table.value_for(gauss, 10, 0.05, "upper")
        up01 = table.value_for(gauss, 10, 0.01, "upper")
        lo05 = table.value_for(gauss, 10, 0.05, "lower")
        # upper thresholds grow as the level shrinks; lower sits below upper
        assert up01 > up05 > lo05
        assert 0.1 <= lo05 <= 1.0 and up01 <= 1.0

    def test_entries_stable_under_request_extension(self):
        # adding more levels at a size the null already has must not move
        # existing entries: groups own their substream blocks and row length
        gauss = Gaussian(0.0, 1.0)
        small = build_quantile_table(
            [TableRequest(gauss, 10, 0.05, "upper")], 2000, RngStream(7)
        )
        bigger = build_quantile_table(
            [
                TableRequest(gauss, 10, 0.05, "upper"),
                TableRequest(gauss, 10, 0.01, "lower"),
            ],
            2000,
            RngStream(7),
        )
        assert small.value_for(gauss, 10, 0.05, "upper") == bigger.value_for(
            gauss, 10, 0.05, "upper"
        )

    def test_rebuild_is_bit_identical(self):
        a = build_quantile_table(_small_requests(), 2000, RngStream(5))
        b = build_quantile_table(_small_requests(), 2000, RngStream(5))
        assert a.to_json_dict() == b.to_json_dict()

    def test_duplicate_requests_rejected(self):
        reqs = [
            TableRequest(Gaussian(0.0, 1.0), 10, 0.05, "upper"),
            TableRequest(Gaussian(0.0, 1.0), 10, 0.05, "upper"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            build_quantile_table(reqs, 2000, RngStream(1))

    def test_empty_request_list(self):
        table = build_quantile_table([], 2000, RngStream(1))
        assert len(table) == 0
        assert table.metadata["M"] == 2000
        assert table.metadata["estimator"] == ESTIMATOR_ID

    def test_request_validation(self):
        with pytest.raises(ValueError):
            TableRequest(Gaussian(0.0, 1.0), 10, 0.6, "upper")
        with pytest.raises(ValueError):
            TableRequest(Gaussian(0.0, 1.0), 10, 0.05, "middle")
        with pytest.raises(ValueError):
            TableRequest(Gaussian(0.0, 1.0), 1, 0.05, "upper")

    def test_rough_agreement_with_large_sample_location(self):
        # loose sanity anchor for the Gaussian n=10 upper 5% region; the
        # tight reproduction runs in the acceptance suite at M=100000
        table = build_quantile_table(
            [TableRequest(Gaussian(0.0, 1.0), 10, 0.05, "upper")], 5000, RngStream(99)
        )
        assert abs(table.value_for(Gaussian(0.0, 1.0), 10, 0.05, "upper") - 0.1986) < 0.01


class TestTableRoundTrip:
    def test_json_save_load(self, tmp_path):
        table = build_quantile_table(_small_requests(), 2000, RngStream(3))
        path = tmp_path / "table.json"
        table.save(path)
        loaded = QuantileTable.load(path)
        assert loaded.metadata == table.metadata
        assert loaded.records == table.records
        gauss = Gaussian(0.0, 1.0)
        assert loaded.value_for(gauss, 10, 0.05, "upper") == table.value_for(
            gauss, 10, 0.05, "upper"
        )

    def test_document_shape(self, tmp_path):
        table = build_quantile_table(_small_requests()[:1], 2000, RngStream(3))
        path = tmp_path / "t.json"
        table.save(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc["metadata"]) == PROVENANCE
        assert doc["metadata"]["rng_layout"] == RNG_LAYOUT == 6
        entry = doc["entries"][0]
        assert set(entry) == {"family", "params", "n", "c", "side", "value"}

    def test_every_table_records_the_one_provenance(self):
        tf = build_spectrogram_quantile_table(
            Gaussian(0.0, 1.0), [(0.05, "upper")], 300, 32, 5.0, 0, 2, RngStream(70)
        )
        assert set(tf.metadata) == PROVENANCE | {"signals"}
        packaged = testing._packaged_table().metadata
        assert set(packaged) == PROVENANCE
        assert (packaged["M"], packaged["master_seed"], packaged["stream_id"]) == (
            testing._BASELINE_REPLICATIONS, testing._BASELINE_SEED, 0
        )

    def test_table_written_with_a_timestamp_still_loads(self, tmp_path):
        # tables used to record their creation time, and no numpy version
        table = build_quantile_table(_small_requests(), 2000, RngStream(3))
        doc = table.to_json_dict()
        del doc["metadata"]["numpy_version"]
        doc["metadata"]["created_at"] = "2026-10-19T10:11:46+00:00"
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded = QuantileTable.load(path)
        assert loaded.metadata == doc["metadata"]
        for r in table.records:
            key = (r["family"], r["params"], r["n"], r["c"], r["side"])
            assert loaded.value(*key) == r["value"]

    def test_infinite_parameter_round_trip(self):
        rec = {
            "family": "student_t",
            "params": {"nu": math.inf},
            "n": 10,
            "c": 0.05,
            "side": "lower",
            "value": 0.12,
        }
        table = QuantileTable({"M": 1000}, [rec])
        doc = table.to_json_dict()
        assert doc["entries"][0]["params"]["nu"] == "inf"
        back = QuantileTable.from_json_dict(json.loads(json.dumps(doc)))
        assert back.value("student_t", {"nu": math.inf}, 10, 0.05, "lower") == 0.12

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(ANY_TABLE_DOCUMENT)
    def test_any_json_document_loads_or_is_a_value_error(self, doc):
        try:
            table = QuantileTable.from_json_dict(doc)
        except ValueError:
            return
        for r in table.records:
            assert type(r["n"]) is int and r["n"] >= 2
            assert 0.0 < r["c"] < 0.5 and r["side"] in ("lower", "upper")
            assert math.isfinite(r["value"])

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.integers(1, 200000), st.sampled_from(["[", '{"a": ']), st.booleans())
    def test_a_deeply_nested_file_is_a_value_error(self, table_path, depth, opener, in_params):
        # the decoder recurses once per level and gives up with a RecursionError
        nested = opener * depth + "0" + ("]" if opener == "[" else "}") * depth
        if in_params:
            entry = {**_ENTRY, "params": {"mu": "deep"}, "value": 0.25}
            doc = json.dumps({"schema_version": 1, "entries": [entry]})
            nested = doc.replace('"deep"', nested)
        table_path.write_text(nested)
        with pytest.raises(ValueError):
            QuantileTable.load(table_path)

    def test_schema_version_gate(self):
        with pytest.raises(ValueError, match="schema_version"):
            QuantileTable.from_json_dict({"schema_version": 2, "entries": []})
        with pytest.raises(ValueError):
            QuantileTable.from_json_dict({"something": 1})


class TestAtomicOpen:
    def test_failed_write_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("previous contents\n")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_open(path, "w", encoding="utf-8") as fh:
                fh.write("partial")
                raise RuntimeError("mid-write")
        assert path.read_text() == "previous contents\n"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_is_an_error_and_nothing_is_written(self, tmp_path, number):
        path = tmp_path / "report.json"
        path.write_text("previous contents\n")
        with pytest.raises(ValueError, match=f"^statistic is {number}, which JSON cannot hold$"):
            write_json(path, {"statistic": number, "thresholds": [1.0]})
        assert path.read_text() == "previous contents\n"
        with pytest.raises(ValueError, match=rf"^nested\.values\[1\] is {number}, which JSON"):
            write_json(tmp_path / "new.json", {"nested": {"z": number, "values": [0.5, number]}})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_json_text_is_the_written_layout(self, tmp_path):
        doc = {"b": [1, 2.5, "x"], "a": {"d": None, "c": True}, "e": []}
        text = json_text(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert text.startswith('{\n  "a": {\n    "c": true,')
        write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == text
        circular = []
        circular.append(circular)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            json_text({"a": circular})

    def test_saved_table_gets_plain_open_permissions(self, tmp_path):
        plain = tmp_path / "plain.json"
        with open(plain, "w") as fh:
            fh.write("{}")
        saved = tmp_path / "saved.json"
        build_quantile_table(_small_requests()[:1], 1000, RngStream(3)).save(saved)
        assert stat.S_IMODE(saved.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


class TestLookup:
    def test_missing_key_names_the_request(self):
        table = build_quantile_table(_small_requests(), 2000, RngStream(3))
        with pytest.raises(TableCoverageError) as err:
            table.value_for(Gaussian(0.0, 1.0), 37, 0.05, "upper")
        message = str(err.value)
        assert "n=37" in message and "gaussian" in message

    def test_has(self):
        table = build_quantile_table(_small_requests(), 2000, RngStream(3))
        assert table.has("gaussian", {"mu": 0.0, "sigma2": 1.0}, 10, 0.05, "upper")
        assert not table.has("gaussian", {"mu": 0.0, "sigma2": 1.0}, 11, 0.05, "upper")

    def test_records_are_copies_down_to_the_params(self):
        # the two Gaussian n = 10 upper entries are one group, built with one params dict
        requests = [r for r in _small_requests() if r.side == "upper"]
        table = build_quantile_table(requests, 2000, RngStream(3))
        saved = table.to_json_dict()
        table.records[0]["params"]["mu"] = 5.0
        assert table.to_json_dict() == saved
        assert table.has("gaussian", {"mu": 0.0, "sigma2": 1.0}, 10, 0.05, "upper")
        assert not table.has("gaussian", {"mu": 5.0, "sigma2": 1.0}, 10, 0.05, "upper")

    def test_integer_float_parameter_equivalence(self):
        # 1 and 1.0 address the same entry
        table = build_quantile_table(_small_requests(), 2000, RngStream(3))
        a = table.value("gaussian", {"mu": 0, "sigma2": 1}, 10, 0.05, "upper")
        b = table.value("gaussian", {"mu": 0.0, "sigma2": 1.0}, 10, 0.05, "upper")
        assert a == b

    @pytest.mark.parametrize("stored, asked", [(-0.0, 0.0), (0.0, -0.0)], ids=["neg", "pos"])
    def test_a_signed_zero_finds_the_other_zero(self, tmp_path, stored, asked):
        rec = {
            "family": "gaussian",
            "params": {"mu": stored, "sigma2": 1.0},
            "n": 10,
            "c": 0.05,
            "side": "upper",
            "value": 0.5,
        }
        table = QuantileTable({}, [rec])
        table.save(tmp_path / "t.json")
        loaded = QuantileTable.load(tmp_path / "t.json")
        for t in (table, loaded):
            assert t.has("gaussian", {"mu": asked, "sigma2": 1.0}, 10, 0.05, "upper")
            assert t.value_for(Gaussian(asked, 1.0), 10, 0.05, "upper") == 0.5
            assert math.copysign(1.0, t.records[0]["params"]["mu"]) == math.copysign(1.0, stored)
        with pytest.raises(ValueError, match="duplicate"):  # both zeros are one key
            QuantileTable({}, [rec, {**rec, "params": {"mu": asked, "sigma2": 1.0}}])

    def test_extra_params_widen_the_key(self):
        rec = {
            "family": "gaussian",
            "params": {"mu": 0.0, "sigma2": 1.0, "domain": 2.0},
            "n": 10,
            "c": 0.05,
            "side": "upper",
            "value": 0.5,
        }
        table = QuantileTable({}, [rec])
        assert (
            table.value_for(Gaussian(0.0, 1.0), 10, 0.05, "upper", {"domain": 2.0})
            == 0.5
        )
        with pytest.raises(TableCoverageError):
            table.value_for(Gaussian(0.0, 1.0), 10, 0.05, "upper")

    def test_duplicate_records_rejected_by_constructor(self):
        rec = {
            "family": "gaussian",
            "params": {"mu": 0.0, "sigma2": 1.0},
            "n": 10,
            "c": 0.05,
            "side": "upper",
            "value": 0.5,
        }
        with pytest.raises(ValueError, match="duplicate"):
            QuantileTable({}, [rec, dict(rec)])
