"""Heavy-tail testing with the modified Greenwood statistic.

The statistic ``S_n = sum(|x|**2) / (sum(|x|))**2`` separates light tails
from heavy ones without moment assumptions. This package bundles:

* exact scalar and batched evaluation of the statistic;
* one reproducible sampler, ``sample(spec, n, rng)``, for Gaussian,
  symmetric alpha-stable, Student's t and generalized Pareto specs;
* Monte Carlo rejection regions persisted as quantile tables;
* one- and two-sided tests plus Jarque-Bera and Kolmogorov-Smirnov
  baselines, each decided by ``run_test(TestSpec(kind, ...), x)``;
* power and size studies over parameter grids;
* a segmentation and Kaiser-window spectrogram pipeline for long signals.
"""

from .critical import (
    QuantileTable,
    TableCoverageError,
    TableRequest,
    build_quantile_table,
    empirical_quantile,
    estimate_null_distribution,
)
from .distributions import (
    GPD,
    DistributionSpec,
    Gaussian,
    Stable,
    StudentT,
    sample,
)
from .power import (
    PowerCurve,
    PowerPoint,
    PowerStudyConfig,
    export_curve,
    import_curve,
    run_power_study,
    size_check,
)
from .rng import RngStream
from .signal import (
    BatchReport,
    Signal,
    Spectrogram,
    batch_test,
    build_spectrogram_quantile_table,
    estimate_spectrogram_null,
    frequency_rows,
    kaiser_window,
    read_signal,
    segment_signal,
    spectrogram,
    write_signal,
)
from .statistic import (
    StatisticValue,
    modified_greenwood,
    modified_greenwood_batch,
)
from .testing import (
    TestOutcome,
    TestSpec,
    run_test,
)

__version__ = "0.1.0"
