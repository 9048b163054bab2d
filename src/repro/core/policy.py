"""Fork-engine selection: by method name, or per memory cgroup (§5.2).

:func:`make_fork_engine` is the one name -> engine factory (the
experiments' sweep axis, ``repro-serve --engine``, the analysis
workloads).  The paper exposes Async-fork through a *memory cgroup*
parameter ``F``: ``F = 0`` keeps the default fork, any positive value
enables Async-fork with that many child copy threads — no application
change required.  :class:`ForkPolicy` models that interface so the
engine selection is data-driven, just like in the deployed system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import AsyncForkConfig
from repro.core.async_fork import AsyncFork
from repro.errors import ConfigurationError
from repro.kernel.clock import Clock
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.kernel.forks.base import ForkEngine
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kernel.task import Process

#: Fork mechanisms selectable by name.
FORK_METHODS = ("default", "odf", "async")


def make_fork_engine(
    method: str,
    clock: Optional[Clock] = None,
    costs: CostModel = DEFAULT_COSTS,
    copy_threads: int = AsyncForkConfig.copy_threads,
) -> ForkEngine:
    """Build one fork engine by method name (``clock=None``: its own)."""
    if method == "default":
        return DefaultFork(clock=clock, costs=costs)
    if method == "odf":
        return OnDemandFork(clock=clock, costs=costs)
    if method == "async":
        return AsyncFork(
            clock=clock,
            costs=costs,
            config=AsyncForkConfig(copy_threads=copy_threads),
        )
    raise ValueError(
        f"unknown fork method {method!r}; expected one of {FORK_METHODS}"
    )


@dataclass
class MemCgroup:
    """One memory cgroup with its Async-fork policy."""

    name: str
    #: The paper's ``F`` parameter: 0 disables Async-fork; a positive value
    #: enables it and sets the number of child copy threads.
    async_fork_threads: int = 0
    huge_pages: bool = False
    members: set = field(default_factory=set)

    @property
    def async_fork_enabled(self) -> bool:
        """Whether members of this cgroup fork through Async-fork."""
        return self.async_fork_threads > 0

    def to_config(self) -> AsyncForkConfig:
        """Translate the cgroup parameter into an engine configuration."""
        return AsyncForkConfig(copy_threads=self.async_fork_threads)


class ForkPolicy:
    """Routes each process's fork() to the engine its cgroup selects."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.costs = costs
        self._cgroups: dict[str, MemCgroup] = {}
        self._membership: dict[int, str] = {}
        self._default_engine = DefaultFork(self.clock, costs)
        self._async_engines: dict[str, ForkEngine] = {}

    def create_cgroup(
        self, name: str, async_fork_threads: int = 0, huge_pages: bool = False
    ) -> MemCgroup:
        """Create a cgroup; ``async_fork_threads`` is the ``F`` parameter."""
        if name in self._cgroups:
            raise ValueError(f"cgroup {name!r} already exists")
        cgroup = MemCgroup(name, async_fork_threads, huge_pages)
        if cgroup.async_fork_enabled and huge_pages:
            raise ConfigurationError(
                "cannot enable Async-fork in a cgroup with huge pages"
            )
        self._cgroups[name] = cgroup
        return cgroup

    def attach(self, process: Process, cgroup_name: str) -> None:
        """Move a process into a cgroup (echo pid > cgroup.procs)."""
        cgroup = self._cgroups[cgroup_name]
        old = self._membership.get(process.pid)
        if old is not None:
            self._cgroups[old].members.discard(process.pid)
        cgroup.members.add(process.pid)
        self._membership[process.pid] = cgroup_name

    def engine_for(self, process: Process) -> ForkEngine:
        """The fork engine this process's cgroup prescribes.

        Processes outside any cgroup — or in one with ``F = 0`` — use the
        default fork, exactly as in the paper.
        """
        name = self._membership.get(process.pid)
        if name is None:
            return self._default_engine
        cgroup = self._cgroups[name]
        if not cgroup.async_fork_enabled:
            return self._default_engine
        engine = self._async_engines.get(name)
        if engine is None:
            engine = AsyncFork(self.clock, self.costs, cgroup.to_config())
            self._async_engines[name] = engine
        return engine

    def fork(self, process: Process):
        """Fork ``process`` with whatever engine its cgroup selects."""
        return self.engine_for(process).fork(process)
