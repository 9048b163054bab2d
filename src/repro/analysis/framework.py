"""The pluggable checker framework behind ``repro-analyze``.

Every analysis the repo has grown — the determinism lint, lockdep and
its static companion, MMSAN, the happens-before race detector — plugs
in here as a :class:`Checker` with a name, a description and a ``run``
method, registered via :func:`register`.  ``repro-analyze`` (see
:mod:`repro.analysis.cli`) selects checkers by name, runs them against
the tree and the seeded workloads in :mod:`repro.analysis.workloads`,
and renders one deterministic report.

Determinism is a hard requirement: the same seed must produce a
byte-identical report (that is what lets CI diff them).  Checkers must
therefore only emit content derived from the source tree and the
seeded workloads — no wall-clock timestamps, no raw ``id()`` values
(see :func:`_sanitize`), no absolute paths (:func:`relpath`).

Severities: ``error`` findings fail the CLI (exit 1); ``warning`` and
``note`` inform without gating.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.analysis import hooks
from repro.core.policy import FORK_METHODS


class Severity(enum.Enum):
    """How bad a finding is; order matters (ERROR gates the CLI)."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One checker finding, ready for deterministic rendering."""

    checker: str
    severity: Severity
    rule: str
    message: str
    #: ``path:line`` when source-anchored, else a context label.
    location: str = ""

    def format(self) -> str:
        where = f" @ {self.location}" if self.location else ""
        return (
            f"[{self.severity.value}] {self.checker}/{self.rule}{where}: "
            f"{self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "severity": self.severity.value,
            "rule": self.rule,
            "message": self.message,
            "location": self.location,
        }


@dataclass
class CheckResult:
    """What one checker produced."""

    checker: str
    description: str
    findings: list[Finding] = field(default_factory=list)
    #: Deterministic counters proving the checker actually looked at
    #: something (events observed, files scanned, workloads run).
    stats: dict = field(default_factory=dict)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "description": self.description,
            "findings": [f.to_dict() for f in self.findings],
            "stats": self.stats,
        }


class Checker:
    """Base class: subclasses set ``name``/``description``, implement run."""

    name = "?"
    description = ""

    def run(self, root: Path, seed: int) -> CheckResult:
        raise NotImplementedError


#: name -> checker class, in registration order.
REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to :data:`REGISTRY`."""
    if cls.name in REGISTRY:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    REGISTRY[cls.name] = cls
    return cls


def relpath(path: str, root: Path) -> str:
    """Path relative to the repo root (deterministic across machines)."""
    try:
        return str(Path(path).resolve().relative_to(root.resolve()))
    except ValueError:
        return path


_ID_KEY = re.compile(r"\[\d{6,}\]")


def _sanitize(text: str) -> str:
    """Strip raw ``id()``-sized lock keys out of witness strings."""
    return _ID_KEY.sub("[#]", text)


# ---------------------------------------------------------------------------
# the checkers
# ---------------------------------------------------------------------------


@register
class LintChecker(Checker):
    name = "lint"
    description = "determinism/error-hygiene AST lint over src and scripts"

    def run(self, root: Path, seed: int) -> CheckResult:
        from repro.analysis.lint import lint_paths

        targets = [root / "src" / "repro", root / "scripts"]
        findings = lint_paths(p for p in targets if p.exists())
        result = CheckResult(self.name, self.description)
        for f in sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        ):
            result.findings.append(Finding(
                checker=self.name,
                severity=Severity.ERROR,
                rule=f.rule,
                message=f.message,
                location=f"{relpath(f.path, root)}:{f.line}",
            ))
        result.stats["paths"] = [relpath(str(p), root) for p in targets]
        return result


@register
class LockChecker(Checker):
    name = "locks"
    description = (
        "static lock-order graph cross-checked against runtime lockdep"
    )

    #: kind -> severity for the cross-check findings.
    _SEVERITIES = {
        "static-inversion": Severity.ERROR,
        "canonical-violation": Severity.ERROR,
        "dynamic-only-edge": Severity.WARNING,
        "static-only-edge": Severity.NOTE,
    }

    def run(self, root: Path, seed: int) -> CheckResult:
        from repro.analysis import static_locks, workloads
        from repro.analysis.lockdep import LockDep

        graph = static_locks.build_graph([root / "src" / "repro"])
        dep = LockDep()
        dep.install()
        try:
            for engine in FORK_METHODS:
                workloads.run_engine(engine, seed=seed)
            workloads.run_migration()
        finally:
            dep.uninstall()

        result = CheckResult(self.name, self.description)
        for violation in dep.violations:
            count = dep.violation_counts.get(
                (violation.kind, violation.first, violation.second), 1
            )
            result.findings.append(Finding(
                checker=self.name,
                severity=Severity.ERROR,
                rule=violation.kind,
                message=_sanitize(
                    f"{violation.detail} (witnessed {count}x)"
                ),
                location=f"{violation.first} vs {violation.second}",
            ))
        runtime_edges = {
            edge: _sanitize(witness) for edge, witness in dep.edges.items()
        }
        for f in static_locks.cross_check(graph, runtime_edges):
            result.findings.append(Finding(
                checker=self.name,
                severity=self._SEVERITIES[f["kind"]],
                rule=f["kind"],
                message=_sanitize(
                    f["detail"].replace(f"{root.resolve()}/", "")
                ),
                location=f"{f['first']} -> {f['second']}",
            ))
        result.stats.update({
            "functions_with_locks": sorted(graph.acquisitions),
            "static_edges": sorted(
                f"{a} -> {b}" for (a, b) in graph.edges
            ),
            "runtime_edges": sorted(
                f"{a} -> {b}" for (a, b) in dep.edges
            ),
        })
        return result


@register
class MmsanChecker(Checker):
    name = "mmsan"
    description = "memory-management sanitizer audit after each engine"

    def run(self, root: Path, seed: int) -> CheckResult:
        from repro.analysis import workloads
        from repro.analysis.mmsan import Mmsan

        result = CheckResult(self.name, self.description)
        audited = 0
        for engine in FORK_METHODS:
            # Catch every address space the workload creates (parent and
            # child share one allocator) so the audit sees both sides.
            created: list = []
            hooks.MM_HOOKS.append(created.append)
            try:
                res = workloads.run_engine(engine, seed=seed)
            finally:
                hooks.MM_HOOKS.remove(created.append)
            san = Mmsan(res.child.mm.frames)
            for mm in created:
                if mm.frames is res.child.mm.frames:
                    san.track(mm)
                    audited += 1
            for violation in san.audit():
                result.findings.append(Finding(
                    checker=self.name,
                    severity=Severity.ERROR,
                    rule=violation.rule,
                    message=str(violation),
                    location=f"engine:{engine}",
                ))
        result.stats["engines"] = list(FORK_METHODS)
        result.stats["address_spaces_audited"] = audited
        return result


@register
class RaceChecker(Checker):
    name = "races"
    description = (
        "vector-clock happens-before race detection over the seeded "
        "workloads (clean engines + chaos storm + page migration)"
    )

    def run(self, root: Path, seed: int) -> CheckResult:
        from repro.analysis import race, workloads

        result = CheckResult(self.name, self.description)
        event_totals: dict[str, int] = {}
        scenarios: list[tuple[str, Callable]] = [
            *[
                (f"engine:{name}",
                 lambda name=name: workloads.run_engine(name, seed=seed))
                for name in FORK_METHODS
            ],
            ("chaos-storm", lambda: workloads.run_chaos(seed=seed)),
            ("page-migration", workloads.run_migration),
        ]
        for label, run in scenarios:
            with race.detecting() as detector:
                run()
            for space, n in sorted(detector.event_counts.items()):
                event_totals[space] = event_totals.get(space, 0) + n
            for report in detector.races:
                result.findings.append(Finding(
                    checker=self.name,
                    severity=Severity.ERROR,
                    rule=f"race-{report.space}",
                    message=report.format(),
                    location=label,
                ))
        result.stats["scenarios"] = [label for label, _ in scenarios]
        result.stats["events"] = event_totals
        result.stats["seed"] = seed
        return result


# ---------------------------------------------------------------------------
# running and rendering
# ---------------------------------------------------------------------------


def run_checks(
    names: Iterable[str], root: Path, seed: int = 7
) -> list[CheckResult]:
    """Instantiate and run the named checkers, in registry order."""
    wanted = list(names)
    unknown = [n for n in wanted if n not in REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown checker(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(REGISTRY)}"
        )
    results = []
    for name, cls in REGISTRY.items():
        if name not in wanted:
            continue
        hooks.clear()
        try:
            results.append(cls().run(root, seed))
        finally:
            hooks.clear()
    return results


def report_dict(results: list[CheckResult], seed: int) -> dict:
    """The canonical report mapping (renderers serialize this)."""
    return {
        "tool": "repro-analyze",
        "seed": seed,
        "errors": sum(r.errors for r in results),
        "checks": [r.to_dict() for r in results],
    }


def render_json(results: list[CheckResult], seed: int) -> str:
    return json.dumps(
        report_dict(results, seed), indent=2, sort_keys=True
    ) + "\n"


def render_sarif(results: list[CheckResult], seed: int) -> str:
    """A minimal SARIF 2.1.0 log (one run, one result per finding)."""
    rules: dict[str, dict] = {}
    sarif_results = []
    for result in results:
        for f in result.findings:
            rule_id = f"{f.checker}/{f.rule}"
            rules.setdefault(rule_id, {
                "id": rule_id,
                "shortDescription": {"text": result.description},
            })
            entry: dict = {
                "ruleId": rule_id,
                "level": f.severity.value,
                "message": {"text": f.message},
            }
            path, sep, line = f.location.rpartition(":")
            if sep and line.isdigit():
                entry["locations"] = [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": path},
                        "region": {"startLine": int(line)},
                    },
                }]
            elif f.location:
                entry["locations"] = [{
                    "logicalLocations": [{"name": f.location}],
                }]
            sarif_results.append(entry)
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-analyze",
                    "rules": sorted(rules.values(), key=lambda r: r["id"]),
                },
            },
            "properties": {"seed": seed},
            "results": sarif_results,
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"


def render_text(results: list[CheckResult], seed: int) -> str:
    lines = [f"repro-analyze (seed={seed})"]
    for result in results:
        status = "ok" if result.errors == 0 else f"{result.errors} error(s)"
        lines.append(f"== {result.checker}: {status}")
        for f in result.findings:
            lines.append(f"  {f.format()}")
        for key, value in sorted(result.stats.items()):
            lines.append(f"  . {key}: {value}")
    total = sum(r.errors for r in results)
    lines.append(
        f"{total} error(s) across {len(results)} checker(s)"
    )
    return "\n".join(lines) + "\n"
