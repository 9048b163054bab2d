"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.config import SimulationProfile
from repro.kernel.task import Process
from repro.mem.frames import FrameAllocator
from repro.units import MIB

#: Tier-1 runs the same examples every time: derandomized (seeded from
#: each test, no example database), and a failure prints its blob.
settings.register_profile("default", derandomize=True, print_blob=True)
#: Exploration (``--hypothesis-profile=explore``, the nightly job): fresh
#: random seeds and ten times the examples.
settings.register_profile(
    "explore", derandomize=False, max_examples=1000, print_blob=True
)
settings.load_profile("default")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--mmsan",
        action="store_true",
        default=False,
        help="run with the MMSAN/oracle/lockdep runtime checkers enabled "
        "(equivalent to REPRO_MMSAN=1 in the environment)",
    )


def pytest_configure(config: pytest.Config) -> None:
    from repro.analysis import runtime

    if config.getoption("--mmsan"):
        os.environ[runtime.ENV_FLAG] = "1"
    if runtime.enabled():
        runtime.activate()


@pytest.fixture(autouse=True)
def _reset_checker_state():
    """Keep lockdep's held-stack/edges from leaking across tests."""
    from repro.analysis import runtime

    supervisor = runtime.current()
    if supervisor is not None:
        supervisor.reset_transient()
        supervisor.start()  # re-arm hooks a previous test cleared
    yield
    if supervisor is not None:
        supervisor.reset_transient()


@pytest.fixture
def frames() -> FrameAllocator:
    """A fresh unlimited frame allocator."""
    return FrameAllocator()


@pytest.fixture
def parent(frames) -> Process:
    """A process with a 4 MiB VMA and two pages of data.

    The VMA spans two PTE-table ranges (2 MiB each) so fork engines have
    more than one PMD entry to work with.
    """
    process = Process(frames, name="parent")
    vma = process.mm.mmap(4 * MIB)
    process.mm.write_memory(vma.start, b"alpha")
    process.mm.write_memory(vma.start + 2 * MIB, b"beta")
    return process


@pytest.fixture
def tiny_profile() -> SimulationProfile:
    """A fast profile for experiment smoke tests."""
    return SimulationProfile(
        name="test",
        query_count=120_000,
        persist_speedup=32.0,
        sizes_gb=(1, 8, 64),
        repeats=1,
    )
