"""Rejection-rate studies: power across parameter grids and size at the null.

A study fixes a test, a data family, a parameter grid and sample sizes, then
counts rejections over ``R`` independent replications per grid point. Grid
point ``(i, j)`` always runs on its own group of RNG substreams, one per block
of replications (see :mod:`greenwood.critical`), and decides each block in
batch with the decisions ``run_test`` would reach. All grid points of a study
share one block schedule, so small ones run side by side on the CPUs, and
each is reduced to its rejection count from its blocks in block order: curves
are pure functions of the configuration, and reruns are bit-identical on any
CPU count.

Curves export to CSV with header ``family,param,n,replications,rejection_rate``
plus a JSON sidecar carrying the configuration echo.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import partial

from .critical import (
    GROUP_STRIDE,
    RNG_LAYOUT,
    _read_json,
    _sample_job,
    _simulate,
    _whole,
    atomic_open,
    json_number,
    write_json,
)
from .distributions import FAMILIES, DistributionSpec, family_tag, params_dict
from .rng import RngStream
from .testing import _KINDS, TestSpec, _sample_size, reject_rows, thresholds_for

__all__ = [
    "PowerCurve",
    "PowerPoint",
    "PowerStudyConfig",
    "data_spec",
    "export_curve",
    "import_curve",
    "run_power_study",
    "size_check",
]

CSV_HEADER = ("family", "param", "n", "replications", "rejection_rate")


def data_spec(family: str, param: float) -> DistributionSpec:
    """The ``family`` spec with its ``grid_param`` set to ``param``, the rest at defaults.

    The grid sweeps the variance ``sigma2`` of a Gaussian, ``alpha`` of a
    stable law, ``nu`` of a Student t and the shape ``gamma`` of a GPD.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown data family {family!r}")
    cls = FAMILIES[family]
    return cls(**{cls.grid_param: param})


@dataclass(frozen=True)
class PowerStudyConfig:
    test: TestSpec
    data_family: str
    parameter_grid: tuple
    sample_sizes: tuple
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameter_grid", tuple(self.parameter_grid))
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        if len(self.parameter_grid) == 0:
            raise ValueError("parameter grid must be nonempty")
        if len(self.sample_sizes) == 0:
            raise ValueError("sample sizes must be nonempty")
        if any(b <= a for a, b in zip(self.parameter_grid, self.parameter_grid[1:])):
            raise ValueError("parameter grid must be strictly increasing")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise ValueError(f"sample sizes must not repeat, got {self.sample_sizes}")
        sizes = tuple(_sample_size(self.test.kind, n) for n in self.sample_sizes)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "replications", _whole("replications", self.replications, 100))
        for p in self.parameter_grid:
            data_spec(self.data_family, p)  # fail fast on invalid grid values

    def to_json_dict(self) -> dict:
        kind = self.test.kind
        # the null a tabled test is calibrated under; a baseline records none
        null = self.test.null_spec if _KINDS[kind].tabled else None
        return {
            "test_kind": kind,
            "c": self.test.c,
            "null": None
            if null is None
            else {
                "family": family_tag(null),
                "params": {k: json_number(float(v)) for k, v in params_dict(null).items()},
            },
            "data_family": self.data_family,
            "parameter_grid": [json_number(p) for p in self.parameter_grid],
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "rng_layout": RNG_LAYOUT,
        }


@dataclass(frozen=True)
class PowerPoint:
    param: float
    n: int
    rejection_rate: float
    replications: int


@dataclass(frozen=True)
class PowerCurve:
    points: tuple
    config: dict

    def rate(self, param: float, n: int) -> float:
        for pt in self.points:
            if pt.param == param and pt.n == n:
                return pt.rejection_rate
        raise KeyError(f"no point for param={param} n={n}")


def run_power_study(config: PowerStudyConfig) -> PowerCurve:
    """Rejection rate at every ``(param, n)`` grid point of ``config``.

    The thresholds of every sample size are read up front, so a study
    cannot die halfway through on table coverage. Grid point ``(i, j)`` is
    group ``g = i * len(sample_sizes) + j``: its block ``b`` of replications
    samples from substream ``g * GROUP_STRIDE + b``. All grid points share
    one block schedule (see :func:`~greenwood.critical._simulate`), and each
    is reduced to its rejection count as soon as its last block is decided.
    """
    test, reps = config.test, config.replications
    for n in config.sample_sizes:
        thresholds_for(test, n)
    rng = RngStream(config.master_seed)
    grid = [(param, n) for param in config.parameter_grid for n in config.sample_sizes]
    jobs = [
        _sample_job(
            data_spec(config.data_family, param),
            n,
            reps,
            rng.substream(g * GROUP_STRIDE),
            partial(reject_rows, test),
        )
        for g, (param, n) in enumerate(grid)
    ]
    counts = _simulate(jobs, _rejections)
    points = tuple(
        PowerPoint(param, n, count / reps, reps) for (param, n), count in zip(grid, counts)
    )
    return PowerCurve(points, config.to_json_dict())


def size_check(test: TestSpec, n: int, replications: int, rng: RngStream) -> float:
    """Empirical rejection rate under the test's own null boundary.

    For a well-calibrated test this sits near ``c`` up to binomial noise of
    order ``sqrt(c (1 - c) / replications)``.
    """
    replications = _whole("replications", replications, 100)
    return _rejection_rate(test, test.null_spec, n, replications, rng)


def _rejection_rate(
    test: TestSpec, spec: DistributionSpec, n: int, replications: int, rng: RngStream
) -> float:
    """Share of size-``n`` samples of ``spec`` that ``test`` rejects.

    Block ``b`` of replications is drawn from ``rng.substream(b)`` and
    decided in batch by :func:`~greenwood.testing.reject_rows`.
    """
    thresholds_for(test, n)  # before any draw; it also checks that n is an integer
    job = _sample_job(spec, int(n), replications, rng, partial(reject_rows, test))
    return _simulate([job], _rejections)[0] / replications


def _rejections(j, rejected) -> int:
    return int(rejected.sum())


def export_curve(curve: PowerCurve, path) -> None:
    """Write a curve as CSV plus a ``<path>.json`` configuration sidecar.

    Rows carry exact ``repr`` floats, so identical studies produce
    byte-identical files.
    """
    path = os.fspath(path)
    family = curve.config["data_family"]
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for pt in curve.points:
            writer.writerow(
                [family, repr(pt.param), pt.n, pt.replications, repr(pt.rejection_rate)]
            )
    write_json(path + ".json", curve.config)


def import_curve(path) -> PowerCurve:
    """Read back a curve written by :func:`export_curve`."""
    path = os.fspath(path)
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            _, param, n, reps, rate = row
            points.append(PowerPoint(float(param), int(n), float(rate), int(reps)))
    sidecar = path + ".json"
    config = _read_json(sidecar) if os.path.exists(sidecar) else {}
    return PowerCurve(tuple(points), config)
