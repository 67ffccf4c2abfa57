"""Shared test plumbing: collect acceptance verdict lines and print them
in the terminal summary so they survive pytest's output capture, and the
acceptance channels that more than one test file checks."""

import time

import pytest

from qexpander.channel import build_channel
from qexpander.matrixcore import SeededRng
from qexpander.spectrum import eigen_spectrum

ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def herm50():
    """Ten Hermitian channels at N=50, D=4 with their spectra and the
    wall time spent producing them (criterion 1's runtime budget)."""
    start = time.perf_counter()
    rows = []
    for k in range(10):
        chan = build_channel("hermitian", 50, 4, SeededRng(0, k))
        rows.append((k, chan, eigen_spectrum(chan)))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def edge_channels():
    """Criterion 9's ten Hermitian channels: five at N=20, five at N=30."""
    rows = []
    for k in range(5):
        rows.append(build_channel("hermitian", 20, 4, SeededRng(3, k)))
    for k in range(5):
        rows.append(build_channel("hermitian", 30, 4, SeededRng(3, 5 + k)))
    return rows


@pytest.fixture(scope="session")
def nonherm50():
    """Criterion 7's five general channels at N=50, D=4 with their dense spectra."""
    rows = []
    for k in range(5):
        chan = build_channel("nonhermitian", 50, 4, SeededRng(1, k))
        rows.append((chan, eigen_spectrum(chan)))
    return rows
