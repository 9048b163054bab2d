"""The fault plan: typed faults scheduled against named injection sites.

A :class:`FaultPlan` is the single source of chaos for one simulated
machine.  Components expose *sites* — named hooks at the exact points
the paper's §4.4 and the production failure modes care about — and call
:meth:`FaultPlan.fire` with a detail dict each time the site is reached.
The plan deterministically decides whether a fault triggers there, logs
a :class:`FaultEvent`, and hands the site a :class:`FaultSpec` telling
it *what* to break (raise, stall, corrupt, kill).

Sites (one constant per layer touch-point)
------------------------------------------
``mem.frames.alloc``
    Frame-allocation failure (§4.4: parent copy, child copy, proactive
    sync all allocate here).  Kind ``oom``.
``sim.disk.write``
    The persist phase.  Kinds ``io-error`` (write fails) and ``stall``
    (bandwidth collapse for ``magnitude`` extra nanoseconds).
``kvs.aof.fsync``
    Kind ``fsync-error`` — the Redis MISCONF trigger.
``kernel.fork.child-copy``
    The async-fork child copier / its kernel threads.  Kinds
    ``sigkill`` (child dies mid-copy, §4.4 case 2 rollback) and
    ``hang`` (no copy progress for ``magnitude`` steps — a held
    PTE-table lock; the supervision watchdog must notice).
``sim.network.send``
    Kinds ``partition`` (send fails) and ``rtt-spike`` (adds
    ``magnitude`` ns to the round trip).
``kvs.rdb.bytes`` / ``kvs.aof.bytes``
    Persistence artifacts on their way back into :func:`recover`.
    Kinds ``bitrot``/``truncate`` and ``torn-tail``.

Determinism: the plan's only randomness comes from
:func:`repro.determinism.seeded_random`; neither wall clock nor global
RNG state is ever consulted, so a plan (and therefore a whole chaos
run) is a pure function of its seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.determinism import seeded_random
from repro.errors import ConfigurationError

SITE_FRAME_ALLOC = "mem.frames.alloc"
SITE_DISK_WRITE = "sim.disk.write"
SITE_AOF_FSYNC = "kvs.aof.fsync"
SITE_CHILD_COPY = "kernel.fork.child-copy"
SITE_NET_SEND = "sim.network.send"
SITE_RDB_BYTES = "kvs.rdb.bytes"
SITE_AOF_BYTES = "kvs.aof.bytes"
SITE_REPL_SEND = "repl.link.send"
SITE_MASTER_CRON = "repl.master.cron"

#: The original single-machine sites — the default pool
#: :meth:`FaultPlan.storm` draws from (kept stable so storm schedules
#: replay identically across releases; replication drills schedule
#: their ``repl.*`` faults explicitly).
ALL_SITES = (
    SITE_FRAME_ALLOC,
    SITE_DISK_WRITE,
    SITE_AOF_FSYNC,
    SITE_CHILD_COPY,
    SITE_NET_SEND,
    SITE_RDB_BYTES,
    SITE_AOF_BYTES,
)

#: The site registry: every known injection site mapped to the fault
#: kinds it knows how to act on.  Both :class:`FaultSpec` construction
#: and :meth:`FaultPlan.fire` validate against it, so a typo'd site
#: name fails loudly instead of silently never firing.
KINDS_BY_SITE: dict[str, tuple[str, ...]] = {
    SITE_FRAME_ALLOC: ("oom",),
    SITE_DISK_WRITE: ("io-error", "stall"),
    SITE_AOF_FSYNC: ("fsync-error",),
    SITE_CHILD_COPY: ("sigkill", "hang"),
    SITE_NET_SEND: ("partition", "rtt-spike"),
    SITE_RDB_BYTES: ("bitrot", "truncate"),
    SITE_AOF_BYTES: ("torn-tail",),
    SITE_REPL_SEND: ("partition", "rtt-spike"),
    SITE_MASTER_CRON: ("sigkill",),
}


def known_sites() -> tuple[str, ...]:
    """Every registered injection site, sorted."""
    return tuple(sorted(KINDS_BY_SITE))


def register_site(site: str, kinds: tuple[str, ...]) -> str:
    """Register an extension injection site with its allowed kinds.

    Layers outside the core stack declare their sites here before
    building specs against them.  Re-registering an existing site with
    identical kinds is a no-op; changing its kinds is refused (specs
    already validated against the old contract would silently drift).
    """
    if not site or not kinds:
        raise ConfigurationError("a site needs a name and >= 1 kind")
    existing = KINDS_BY_SITE.get(site)
    if existing is not None:
        if tuple(existing) != tuple(kinds):
            raise ConfigurationError(
                f"site {site!r} already registered with kinds "
                f"{existing}; refusing to redefine as {tuple(kinds)}"
            )
        return site
    KINDS_BY_SITE[site] = tuple(kinds)
    return site


@dataclass
class FaultSpec:
    """One scheduled fault.

    ``after`` matching hits of the site pass unharmed before the spec
    starts firing; it then fires ``count`` times (``None`` = every
    further matching hit, e.g. an allocator that stays out of memory).
    ``magnitude`` parameterizes non-raising kinds: stall/rtt-spike
    nanoseconds, hang steps, bytes to corrupt.
    """

    site: str
    kind: str
    after: int = 0
    count: Optional[int] = 1
    magnitude: int = 0
    #: Optional predicate over the site's detail dict (e.g. match only
    #: ``purpose.endswith('-table')`` allocations).
    match: Optional[Callable[[dict], bool]] = None
    # -- runtime state --
    seen: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        allowed = KINDS_BY_SITE.get(self.site)
        if allowed is None:
            raise ConfigurationError(f"unknown fault site {self.site!r}")
        if self.kind not in allowed:
            raise ConfigurationError(
                f"site {self.site!r} cannot inject kind {self.kind!r}; "
                f"allowed: {', '.join(allowed)}"
            )
        if self.after < 0:
            raise ConfigurationError("'after' cannot be negative")
        if self.count is not None and self.count < 1:
            raise ConfigurationError("'count' must be >= 1 (or None)")

    @property
    def exhausted(self) -> bool:
        """Whether this spec can never fire again."""
        return self.count is not None and self.fired >= self.count

    def describe(self) -> str:
        """Stable one-line rendering (used in journals)."""
        count = "inf" if self.count is None else str(self.count)
        return (
            f"{self.site}:{self.kind}"
            f"(after={self.after},count={count},mag={self.magnitude})"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One fault the plan actually injected."""

    index: int
    site: str
    kind: str
    #: The site's matching-hit number at which the fault fired.
    hit: int
    magnitude: int
    detail: str

    def describe(self) -> str:
        """Stable one-line rendering (used in journals)."""
        return (
            f"#{self.index} {self.site}:{self.kind}@{self.hit}"
            f"(mag={self.magnitude}) {self.detail}"
        )


class FaultPlan:
    """Seeded scheduler of typed faults against named sites."""

    def __init__(
        self, seed: int, specs: Iterable[FaultSpec] = ()
    ) -> None:
        self.seed = seed
        self.rng = seeded_random(seed)
        self.specs: list[FaultSpec] = list(specs)
        #: Every fault injected so far, in order.
        self.events: list[FaultEvent] = []
        #: Total hits per site (matching or not).
        self.site_hits: dict[str, int] = {}

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Append one spec to the schedule; returns it."""
        self.specs.append(spec)
        return spec

    # -- the injection decision -----------------------------------------

    def fire(self, site: str, **detail) -> Optional[FaultSpec]:
        """Ask whether a fault triggers at ``site`` for this hit.

        Returns the firing :class:`FaultSpec` (the site reads ``kind``
        and ``magnitude`` off it) or ``None``.  At most one spec fires
        per hit; every matching spec still advances its ``seen``
        counter, so stacked specs trigger at well-defined hits.

        Firing an unregistered site raises
        :class:`~repro.errors.ConfigurationError` — a typo'd site name
        on either end (spec or instrumentation point) fails loudly.
        """
        if site not in KINDS_BY_SITE:
            raise ConfigurationError(
                f"unknown fault site {site!r}; known: "
                f"{', '.join(known_sites())}"
            )
        self.site_hits[site] = self.site_hits.get(site, 0) + 1
        winner: Optional[FaultSpec] = None
        for spec in self.specs:
            if spec.site != site or spec.exhausted:
                continue
            if spec.match is not None and not spec.match(detail):
                continue
            spec.seen += 1
            if winner is None and spec.seen > spec.after:
                spec.fired += 1
                winner = spec
        if winner is not None:
            self.events.append(
                FaultEvent(
                    index=len(self.events),
                    site=site,
                    kind=winner.kind,
                    hit=self.site_hits[site],
                    magnitude=winner.magnitude,
                    detail=_stable_detail(detail),
                )
            )
        return winner

    # -- deterministic helpers ------------------------------------------

    def jitter_ns(self, base_ns: int, spread: float = 0.5) -> int:
        """``base_ns`` plus a deterministic jitter in [0, spread*base].

        Used by the retry/backoff machinery so concurrent chaos runs do
        not retry in lockstep, while staying replayable from the seed.
        """
        if base_ns <= 0:
            return 0
        return base_ns + int(self.rng.random() * spread * base_ns)

    def fingerprint(self) -> str:
        """Digest of the injected-event journal (replay identity)."""
        text = "\n".join(e.describe() for e in self.events)
        return hashlib.blake2b(
            text.encode(), digest_size=16
        ).hexdigest()

    def describe(self) -> str:
        """Stable multi-line rendering of the schedule."""
        return "\n".join(s.describe() for s in self.specs)

    # -- schedule generators --------------------------------------------

    @classmethod
    def storm(
        cls,
        seed: int,
        faults: int = 4,
        sites: Sequence[str] = ALL_SITES,
        horizon: int = 24,
    ) -> "FaultPlan":
        """A random fault schedule drawn deterministically from ``seed``.

        ``faults`` specs are placed on random ``sites`` with trigger
        points uniform in ``[0, horizon)`` matching hits.  Magnitudes
        are drawn per kind: stalls/spikes in the 0.1–2 ms range, hangs
        in the 4–48 step range, corruption touching 1–8 bytes.
        """
        for site in sites:
            if site not in KINDS_BY_SITE:
                raise ConfigurationError(
                    f"unknown fault site {site!r}; known: "
                    f"{', '.join(known_sites())}"
                )
        plan = cls(seed)
        rng = plan.rng
        for _ in range(max(0, faults)):
            site = sites[rng.randrange(len(sites))]
            kinds = KINDS_BY_SITE[site]
            kind = kinds[rng.randrange(len(kinds))]
            magnitude = 0
            if kind in ("stall", "rtt-spike"):
                magnitude = rng.randrange(100_000, 2_000_000)
            elif kind == "hang":
                magnitude = rng.randrange(4, 48)
            elif kind in ("bitrot", "truncate", "torn-tail"):
                magnitude = rng.randrange(1, 8)
            plan.add(
                FaultSpec(
                    site=site,
                    kind=kind,
                    after=rng.randrange(horizon),
                    count=1,
                    magnitude=magnitude,
                )
            )
        return plan


def _stable_detail(detail: dict) -> str:
    """Render a site's detail dict deterministically (sorted keys)."""
    return ",".join(f"{k}={detail[k]}" for k in sorted(detail))
