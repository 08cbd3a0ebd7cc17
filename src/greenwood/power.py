"""Rejection-rate studies: power across parameter grids and size at the null.

A study fixes a test, a data family, a parameter grid and sample sizes, then
counts rejections over ``R`` independent replications per grid point. Grid
parameter ``i`` always runs on its own group of RNG substreams, one per block
of replications (see :mod:`greenwood.critical`). Its rows have the study's
largest sample size, and each size ``n`` is decided in batch on the first
``n`` values of every row, with the decisions ``run_test`` would reach. So a
replication is drawn once per grid parameter, and the order of the sample
sizes changes no rate. All grid parameters of a study share one block
schedule, so small ones run side by side on the CPUs, and each is reduced to
its rejection counts from its blocks in block order: curves are pure
functions of the configuration, and reruns are bit-identical on any CPU
count. Studies and size checks share one routine, :func:`_rejection_rates`;
a size check is a one-size group that runs on the master stream it is
given, which is the stream of a study's grid parameter 0.

Curves export to CSV with header ``family,param,n,replications,rejection_rate``
plus a JSON sidecar carrying the configuration echo.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

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

    Grid parameter ``i`` is group ``i``: its block ``b`` of replications
    draws rows of the study's largest ``n`` from substream
    ``i * GROUP_STRIDE + b``, and replication ``r`` at size ``n`` is the
    first ``n`` values of row ``r``. The rates come from
    :func:`_rejection_rates`.
    """
    reps, sizes = config.replications, config.sample_sizes
    rng = RngStream(config.master_seed)
    groups = [
        (data_spec(config.data_family, param), sizes, rng.substream(i * GROUP_STRIDE))
        for i, param in enumerate(config.parameter_grid)
    ]
    rates = _rejection_rates(config.test, groups, reps)
    grid = [(param, n) for param in config.parameter_grid for n in sizes]
    return PowerCurve(
        tuple(PowerPoint(param, n, rate, reps) for (param, n), rate in zip(grid, rates)),
        config.to_json_dict(),
    )


def size_check(test: TestSpec, n: int, replications: int, rng: RngStream) -> float:
    """Empirical rejection rate under the test's own null boundary.

    It is a one-size group on ``rng`` itself, the stream of a study's grid
    parameter 0. For a well-calibrated test it sits near ``c`` up to
    binomial noise of order ``sqrt(c (1 - c) / replications)``.
    """
    replications = _whole("replications", replications, 100)
    return _rejection_rates(test, [(test.null_spec, [n], rng)], replications)[0]


def _rejection_rates(test: TestSpec, groups, replications: int) -> list:
    """Share of ``replications`` size-``n`` samples of ``spec`` that ``test`` rejects,
    for each ``n`` of ``sizes`` of each group ``(spec, sizes, stream)`` of ``groups``,
    group by group.

    The thresholds of each distinct ``n`` are read before any draw, so a
    study cannot die halfway through on table coverage (the read also checks
    that ``n`` is an integer). Block ``b`` of a group draws rows of its
    largest ``n`` from ``stream.substream(b)``, and each ``n`` is decided in
    batch on the first ``n`` values of those rows by
    :func:`~greenwood.testing.reject_rows`. All groups share one block
    schedule (see :func:`~greenwood.critical._simulate`), and each is
    reduced to its rejection counts as soon as its last block is decided.
    """
    for n in dict.fromkeys(n for _, sizes, _ in groups for n in sizes):
        thresholds_for(test, n)
    groups = [(spec, [int(n) for n in sizes], stream) for spec, sizes, stream in groups]

    def decide(sizes, block):
        return np.stack([reject_rows(test, block[:, :n]) for n in sizes], axis=1)

    jobs = [
        _sample_job(spec, max(sizes), replications, stream, partial(decide, sizes))
        for spec, sizes, stream in groups
    ]
    counts = _simulate(jobs, lambda j, rejected: rejected.sum(axis=0).tolist())
    return [count / replications for group in counts for count in group]


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
