"""Shared fixtures: small banks, fast timing, and a cold workload plane."""

import random

import pytest

from repro.dram.bank import Bank
from repro.dram.config import DRAMTiming


@pytest.fixture(autouse=True)
def fresh_workload_plane():
    """Start and leave every test with a cold workload plane.

    The plane's caches are process-wide by design; between tests they
    must not leak — a test that monkeypatches trace generation or
    mutates files would otherwise see a neighbour's cached bytes.
    """
    from repro.workloads import plane

    plane.reset()
    yield
    plane.reset()


@pytest.fixture
def timing():
    """Real Table III timing."""
    return DRAMTiming()


@pytest.fixture
def fast_timing():
    """A shrunken 1 ms window for tests that cross window boundaries."""
    return DRAMTiming(refresh_window=1_000_000.0)


@pytest.fixture
def small_bank(fast_timing):
    """A 4K-row bank with a 1 ms window."""
    return Bank(4096, fast_timing)


@pytest.fixture
def rng():
    return random.Random(0xDECAF)
