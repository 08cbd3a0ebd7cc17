"""Shared fixtures: the large acceptance table and a small reusable one.

The acceptance table is expensive (100000 replications per entry group), so
it is built once per session and only when an acceptance test asks for it.
Seeds here are frozen; every tolerance below was checked against these seeds
before freezing.
"""

import pytest

from greenwood import critical
from greenwood.critical import TableRequest, build_quantile_table
from greenwood.distributions import GPD, Gaussian, Stable, StudentT
from greenwood.rng import RngStream

ACCEPTANCE_SEED = 20260822
ACCEPTANCE_M = 100000
FULL_NS = (10, 50, 100, 200, 500, 1000)
SIZE_NS = (10, 100, 1000)
TWO_SIDED_NULL = Stable(1.5, 1.0)

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def acceptance_requests():
    """All rejection-region quantiles the acceptance tests consume.

    Gaussian entries carry the halved levels 0.025/0.005 as well so the same
    table serves both the one-sided tests and the two-sided split.  The
    order of the nulls is frozen: replication substreams are assigned per
    (family, params) group in first-seen order, so reordering them would
    change every value. Each group's rows have its largest n (2000 for the
    GPD), so adding a larger n would change that null's values too.
    """
    requests = []
    for n in FULL_NS:
        for c in (0.05, 0.01, 0.025, 0.005):
            requests.append(TableRequest(Gaussian(0.0, 1.0), n, c, "upper"))
    for n in FULL_NS + (2000,):
        for c in (0.05, 0.01):
            requests.append(TableRequest(GPD(0.5, 1.0), n, c, "lower"))
    for n in FULL_NS:
        for c in (0.05, 0.01):
            requests.append(TableRequest(StudentT(2), n, c, "lower"))
    for n in SIZE_NS:
        for side in ("lower", "upper"):
            requests.append(TableRequest(TWO_SIDED_NULL, n, 0.025, side))
    return requests


@pytest.fixture(scope="session")
def acceptance_table():
    return build_quantile_table(acceptance_requests(), ACCEPTANCE_M, RngStream(ACCEPTANCE_SEED))


@pytest.fixture(scope="session")
def quick_gaussian_table():
    """Small table (M=2000) for integration tests that just need coverage."""
    requests = [
        TableRequest(Gaussian(0.0, 1.0), n, c, side)
        for n in (10, 50)
        for c in (0.05, 0.01)
        for side in ("lower", "upper")
    ]
    return build_quantile_table(requests, 2000, RngStream(1101))


@pytest.fixture
def set_cpus(monkeypatch):
    """Set the CPU count the Monte Carlo engine sees: ``k`` runs it on the
    calling thread plus up to ``k - 1`` helper threads; 1 runs it serially."""

    def set_count(k: int) -> None:
        monkeypatch.setattr(critical, "_cpu_count", lambda: k)

    return set_count
