"""Experiment configuration profiles.

The paper's experiments launch five million queries at 50,000 SET/s against
instances of 1–64 GB and persist at NVMe bandwidth (§6.1).  Running that
verbatim in a Python discrete-event simulator is possible but slow, so the
harness supports two profiles:

``full``
    Paper-scale parameters.  Select with ``REPRO_PROFILE=full``.

``quick`` (default)
    The same arrival rates, cost model and algorithms, but fewer total
    queries and a proportionally shortened persist phase.  Latency
    percentiles are computed over the same *mechanisms* (fork-call blocking,
    table CoW faults, proactive synchronizations, data-page CoW), so the
    shape of every figure is preserved; EXPERIMENTS.md records the measured
    values per profile.

``paper-small``
    An intermediate tier used by the nightly CI job and the perf harness:
    paper-style query volume (millions, not hundreds of thousands) over
    the lower half of the size sweep.  Select with
    ``REPRO_PROFILE=paper-small``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

#: Instance sizes (GiB) swept by the paper's figures.
PAPER_SIZES_GB = (1, 2, 4, 8, 16, 32, 64)

#: Default arrival rate used by the write-intensive experiments (§6.2).
PAPER_SET_RATE_PER_SEC = 50_000

#: Total number of queries launched per run in the paper (§6.1).
PAPER_QUERY_COUNT = 5_000_000


@dataclass(frozen=True)
class SimulationProfile:
    """Scaling knobs for one harness run.

    Attributes
    ----------
    name:
        ``'quick'`` or ``'full'``.
    query_count:
        Total queries launched per run.
    persist_speedup:
        Factor applied to the disk bandwidth so the persist phase (tens of
        seconds at paper scale) fits the reduced query budget while keeping
        the *ratio* of disturbed to undisturbed snapshot queries similar.
    sizes_gb:
        Instance sizes swept by the full-sweep figures.
    repeats:
        How many seeds each experiment averages over (the paper uses 5).
    """

    name: str
    query_count: int
    persist_speedup: float
    sizes_gb: tuple[int, ...] = PAPER_SIZES_GB
    repeats: int = 2
    set_rate_per_sec: int = PAPER_SET_RATE_PER_SEC

    def scaled(self, **changes) -> "SimulationProfile":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)


QUICK_PROFILE = SimulationProfile(
    name="quick",
    query_count=400_000,
    persist_speedup=16.0,
    sizes_gb=(1, 2, 4, 8, 16, 32, 64),
    repeats=2,
)

FULL_PROFILE = SimulationProfile(
    name="full",
    query_count=PAPER_QUERY_COUNT,
    persist_speedup=1.0,
    sizes_gb=PAPER_SIZES_GB,
    repeats=5,
)

PAPER_SMALL_PROFILE = SimulationProfile(
    name="paper-small",
    query_count=1_500_000,
    persist_speedup=4.0,
    sizes_gb=(1, 2, 4, 8, 16),
    repeats=2,
)

_PROFILES = {
    "quick": QUICK_PROFILE,
    "full": FULL_PROFILE,
    "paper-small": PAPER_SMALL_PROFILE,
}


def active_profile() -> SimulationProfile:
    """Resolve the profile from ``REPRO_PROFILE`` (default ``quick``)."""
    name = os.environ.get("REPRO_PROFILE", "quick").lower()
    try:
        return _PROFILES[name]
    except KeyError:
        valid = ", ".join(sorted(_PROFILES))
        raise ValueError(
            f"unknown REPRO_PROFILE {name!r}; expected one of: {valid}"
        ) from None


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the simulated IMKVS engine.

    Mirrors the tunables of §6.1: value size, key range, whether AOF is
    enabled, and how many worker threads the engine runs (1 = Redis,
    4 = KeyDB).
    """

    value_size: int = 1024
    key_range: int = 200_000_000
    threads: int = 1
    aof_enabled: bool = False

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("engine needs at least one thread")
        if self.value_size <= 0:
            raise ValueError("value_size must be positive")


@dataclass(frozen=True)
class AsyncForkConfig:
    """Per-cgroup Async-fork policy (§5.2 'Flexibility').

    A cgroup with ``F=0`` builds no config at all: its members use the
    default fork (:class:`repro.core.policy.ForkPolicy`).
    """

    copy_threads: int = 8
    #: Ablation switch (§4.3): without the two-way pointer the parent must
    #: loop over every PMD entry of a VMA on each VMA-wide modification to
    #: learn whether anything is still uncopied.
    use_two_way_pointer: bool = True

    def __post_init__(self) -> None:
        if self.copy_threads < 1:
            raise ValueError("Async-fork needs at least one copy thread")


@dataclass
class WorkloadConfig:
    """One benchmark workload: arrival process and key access pattern."""

    rate_per_sec: int = PAPER_SET_RATE_PER_SEC
    clients: int = 50
    set_ratio: float = 1.0  # fraction of queries that are SET
    pattern: str = "uniform"  # 'uniform' or 'gaussian'
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.set_ratio <= 1.0:
            raise ValueError("set_ratio must be within [0, 1]")
        if self.pattern not in ("uniform", "gaussian"):
            raise ValueError("pattern must be 'uniform' or 'gaussian'")
        if self.clients < 1:
            raise ValueError("need at least one client")

    def rng(self) -> "np.random.Generator":
        """The seeded generator every derived randomness must come from."""
        from repro.determinism import seeded_rng

        return seeded_rng(self.seed)
