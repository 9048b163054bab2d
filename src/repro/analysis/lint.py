"""AST lint enforcing determinism and error hygiene in ``src/repro``.

Rules
-----
``wall-clock``
    Calls that read the host clock (``time.time``, ``perf_counter``,
    ``monotonic`` and friends, ``datetime.now`` …).  Simulated time must
    come from :class:`repro.kernel.clock.Clock`.
``global-random``
    Calls into the process-global RNGs (``random.random()``,
    ``np.random.rand()`` …).  Their hidden state makes runs depend on
    import order and earlier tests.
``rng-construction``
    Direct generator construction (``np.random.default_rng``,
    ``random.Random``) anywhere outside :mod:`repro.determinism`, which
    is the blessed construction site and requires an explicit seed.
``generic-raise``
    ``raise Exception(...)`` / ``raise BaseException(...)`` — library
    errors must be :class:`repro.errors.ReproError` subclasses (or the
    specific stdlib types tests already rely on).
``builtin-shadow``
    A class or function whose name collides with a Python builtin
    exception once trailing underscores are stripped (e.g. a class
    ``MemoryError_``), which invites confusing ``except`` clauses.
``pte-loop``
    A ``for`` loop (or comprehension) iterating a PTE table entry by
    entry — ``present_indices()``, ``referencing_indices()``,
    ``referencing_frames()``, ``entries()`` or
    ``range(ENTRIES_PER_TABLE)`` — inside one of the *hot modules* of
    the memory substrate (:data:`_PTE_HOT_MODULES`).  Those paths must
    run as whole-table numpy operations (DESIGN.md §10); a per-element
    Python loop there silently reverts the vectorization.  Deliberate
    scalar fallbacks (e.g. the tracing arms, cold NUMA paths) carry the
    allow pragma.
``hook-leak``
    Non-test code appending a callback to one of the
    :mod:`repro.analysis.hooks` collector lists (``LOCK_HOOKS``,
    ``MM_HOOKS``, ``ACCESS_HOOKS``, ``EDGE_HOOKS``) in a module with no
    paired ``.remove`` on the same collector.  A hook with no teardown
    path survives into every later run and skews both perf numbers and
    checker state.
``unused-import``
    An imported name the module never reads.  ``__future__`` imports,
    names listed in ``__all__``, imports marked ``# noqa: F401`` (a
    deliberate re-export) and names used only inside string annotations
    are exempt.

Alias resolution
----------------
Call targets are resolved through the import table *before* matching,
and the table is built in a pre-pass over the whole module so calls
that lexically precede their import still resolve.  ``from X import *``
of the clock/RNG modules pre-populates the names those modules are
known to export, and simple rebinds (``t = time`` / ``now = t.time``)
propagate the alias to the new name.

A finding on a line containing ``# lint: allow(<rule>)`` is suppressed.
"""

from __future__ import annotations

import ast
import builtins
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Functions in the ``time`` module that read the host clock.
_WALL_CLOCK_TIME_FUNCS = frozenset(
    name + suffix
    for name in ("time", "perf_counter", "monotonic", "process_time", "thread_time")
    for suffix in ("", "_ns")
)

#: ``datetime`` attributes that read the host clock.
_WALL_CLOCK_DATETIME = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``np.random`` attributes that are fine to *call* anywhere: seeding
#: machinery rather than draws from the global generator.  The
#: generator constructors themselves fall under ``rng-construction``.
_NP_RANDOM_OK = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)

#: Draws from the process-global RNG exported by ``random`` — the names
#: a ``from random import *`` pulls into a module's namespace.
_RANDOM_GLOBAL_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint", "random",
        "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
        "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: What a star-import of each watched module binds, as ``name -> dotted``.
_STAR_NAMESPACES: dict[str, dict[str, str]] = {
    "time": {name: f"time.{name}" for name in _WALL_CLOCK_TIME_FUNCS},
    "datetime": {
        "datetime": "datetime.datetime",
        "date": "datetime.date",
    },
    "random": {
        **{name: f"random.{name}" for name in _RANDOM_GLOBAL_FUNCS},
        "Random": "random.Random",
        "SystemRandom": "random.SystemRandom",
    },
}

#: The collector lists in :mod:`repro.analysis.hooks` (rule ``hook-leak``).
_HOOK_COLLECTORS = frozenset(
    {"LOCK_HOOKS", "MM_HOOKS", "ACCESS_HOOKS", "EDGE_HOOKS"}
)

#: Builtin exception names for the shadow rule.
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)

#: Modules whose sources may construct RNGs (with an allow pragma too,
#: but listing them here keeps the lint's self-test honest).
_RNG_BLESSED_MODULES = frozenset({"determinism"})

#: Path suffixes of the vectorized hot modules: per-PTE Python loops in
#: these files are findings (rule ``pte-loop``).
_PTE_HOT_MODULES = (
    "mem/pte_table.py",
    "mem/page_table.py",
    "mem/cow.py",
    "mem/address_space.py",
    "mem/reclaim.py",
    "mem/tlb.py",
    "kernel/forks/default.py",
    "kernel/forks/odf.py",
    "core/async_fork.py",
    "kvs/rdb.py",
)

#: PteTable accessors whose per-element iteration marks a PTE loop.
_PTE_ITER_METHODS = frozenset(
    {
        "present_indices",
        "referencing_indices",
        "referencing_frames",
        "entries",
    }
)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready mapping (stable key set, machine consumers)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class _ImportTracker:
    """Map local names to the dotted module paths they alias."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never reach stdlib/numpy
        for alias in node.names:
            if alias.name == "*":
                # ``from time import *`` binds the module's exports as
                # bare names; pre-populate the ones we know about.
                self.aliases.update(_STAR_NAMESPACES.get(node.module, {}))
                continue
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def visit_assign(self, node: ast.Assign) -> None:
        """Propagate aliases through simple rebinds (``t = time``)."""
        targets = [t for t in node.targets if isinstance(t, ast.Name)]
        if not targets:
            return
        dotted = None
        if isinstance(node.value, (ast.Name, ast.Attribute)):
            dotted = self.resolve_call(node.value)
        for target in targets:
            if dotted is not None and dotted != target.id:
                self.aliases[target.id] = dotted
            else:
                # Rebound to something we can't follow — drop any stale
                # alias rather than report on the wrong target.
                self.aliases.pop(target.id, None)

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted path of a call target, alias-resolved, else ``None``."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str], module_name: str) -> None:
        self.path = path
        self.lines = source_lines
        self.module_name = module_name
        self.imports = _ImportTracker()
        self.findings: list[LintFinding] = []
        posix_path = path.replace("\\", "/")
        self.pte_hot = any(
            posix_path.endswith(suffix) for suffix in _PTE_HOT_MODULES
        )
        self.is_test = (
            "/tests/" in posix_path
            or module_name.startswith("test_")
            or module_name == "conftest"
        )
        #: ``hook-leak`` bookkeeping: append sites and removed collectors.
        self._hook_appends: list[tuple[ast.Call, str]] = []
        self._hook_removes: set[str] = set()

    # -- helpers ---------------------------------------------------------

    def _allowed(self, line: int, rule: str) -> bool:
        if 1 <= line <= len(self.lines):
            return f"# lint: allow({rule})" in self.lines[line - 1]
        return False

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self._allowed(line, rule):
            return
        self.findings.append(
            LintFinding(self.path, line, getattr(node, "col_offset", 0), rule, message)
        )

    # -- imports ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.imports.visit_assign(node)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = self.imports.resolve_call(node.func)
        if target is not None:
            self._check_call_target(node, target)
            self._track_hook_call(node, target)
        self.generic_visit(node)

    def _track_hook_call(self, node: ast.Call, target: str) -> None:
        parts = target.split(".")
        if len(parts) < 2 or parts[-2] not in _HOOK_COLLECTORS:
            return
        if parts[-1] == "append":
            self._hook_appends.append((node, parts[-2]))
        elif parts[-1] in ("remove", "clear"):
            self._hook_removes.add(parts[-2])

    def finalize(self) -> None:
        """Emit the module-scoped findings (``hook-leak``)."""
        if self.is_test:
            return
        for node, collector in self._hook_appends:
            if collector in self._hook_removes:
                continue
            self._report(
                node,
                "hook-leak",
                f"{collector}.append without a paired {collector}.remove "
                "in this module; the hook outlives its checker — pair "
                "install/uninstall",
            )

    def _check_call_target(self, node: ast.Call, target: str) -> None:
        parts = target.split(".")
        # wall-clock -----------------------------------------------------
        if len(parts) == 2 and parts[0] == "time" and parts[1] in _WALL_CLOCK_TIME_FUNCS:
            self._report(
                node,
                "wall-clock",
                f"{target}() reads the host clock; use repro.kernel.clock.Clock",
            )
            return
        if len(parts) == 1 and parts[0] in _WALL_CLOCK_TIME_FUNCS:
            # ``from time import perf_counter`` resolves to
            # ``time.perf_counter`` via the alias table; a bare name only
            # matches when it was imported from ``time``.
            return
        if target in _WALL_CLOCK_DATETIME or (
            len(parts) >= 2 and ".".join(parts[-3:]) in _WALL_CLOCK_DATETIME
        ):
            self._report(
                node,
                "wall-clock",
                f"{target}() reads the host clock; use repro.kernel.clock.Clock",
            )
            return
        # rng-construction ----------------------------------------------
        if target in ("numpy.random.default_rng", "random.Random"):
            if self.module_name not in _RNG_BLESSED_MODULES:
                self._report(
                    node,
                    "rng-construction",
                    f"{target}() outside repro.determinism; use "
                    "repro.determinism.seeded_rng/seeded_random",
                )
            return
        # global-random ---------------------------------------------------
        if len(parts) == 2 and parts[0] == "random" and parts[1] != "SystemRandom":
            self._report(
                node,
                "global-random",
                f"{target}() draws from the process-global RNG; "
                "use repro.determinism.seeded_random",
            )
            return
        if (
            len(parts) >= 3
            and parts[-3] == "numpy"
            and parts[-2] == "random"
            and parts[-1] not in _NP_RANDOM_OK
        ):
            self._report(
                node,
                "global-random",
                f"{target}() draws from numpy's legacy global RNG; "
                "use repro.determinism.seeded_rng",
            )

    # -- per-PTE loops -----------------------------------------------------

    def _is_pte_iterable(self, expr: ast.expr) -> str | None:
        """Describe ``expr`` if iterating it walks a table per element."""
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id == "enumerate" and expr.args:
                return self._is_pte_iterable(expr.args[0])
            if func.id == "range" and any(
                isinstance(arg, ast.Name) and arg.id == "ENTRIES_PER_TABLE"
                for arg in expr.args
            ):
                return "range(ENTRIES_PER_TABLE)"
            return None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _PTE_ITER_METHODS
        ):
            return f".{func.attr}()"
        return None

    def _check_pte_loop(self, node: ast.AST, iterable: ast.expr) -> None:
        if not self.pte_hot:
            return
        what = self._is_pte_iterable(iterable)
        if what is not None:
            self._report(
                node,
                "pte-loop",
                f"per-PTE loop over {what} in a vectorized hot module; "
                "use whole-table numpy ops (DESIGN.md §10)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_pte_loop(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in node.generators:
            self._check_pte_loop(gen.iter, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- raises ----------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        call_func = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(call_func, ast.Name) and call_func.id in ("Exception", "BaseException"):
            self._report(
                node,
                "generic-raise",
                f"raise {call_func.id} is unclassifiable; raise a "
                "repro.errors.ReproError subclass",
            )
        self.generic_visit(node)

    # -- definitions ------------------------------------------------------

    def _check_shadow(self, node: ast.AST, name: str) -> None:
        stripped = name.rstrip("_")
        if stripped != name and stripped in _BUILTIN_EXCEPTIONS:
            self._report(
                node,
                "builtin-shadow",
                f"{name!r} shadows builtin exception {stripped!r}; "
                f"pick a distinct name (e.g. Sim{stripped})",
            )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_shadow(node, node.name)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_shadow(node, node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_shadow(node, node.name)
        self.generic_visit(node)


def _unused_imports(
    tree: ast.Module, lines: Sequence[str]
) -> list[tuple[ast.alias, str]]:
    """Imported ``(alias, bound name)`` pairs the module never reads."""
    imported: list[tuple[ast.alias, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and not any(
                    "# noqa: F401" in lines[line - 1]
                    for line in {node.lineno, alias.lineno}
                ):
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((alias, name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(_strings(node.value))
        else:  # a string annotation of an argument, variable or return
            annotation = getattr(node, "annotation", None) or getattr(
                node, "returns", None
            )
            for text in _strings(annotation):
                try:
                    parsed = ast.parse(text, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return [(alias, name) for alias, name in imported if name not in used]


def _strings(node: ast.AST | None) -> Iterator[str]:
    for const in ast.walk(node) if node is not None else ():
        if isinstance(const, ast.Constant) and isinstance(const.value, str):
            yield const.value


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint Python source text; returns findings sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding(
                path, exc.lineno or 0, exc.offset or 0, "syntax-error", str(exc.msg)
            )
        ]
    module_name = Path(path).stem
    linter = _Linter(path, source.splitlines(), module_name)
    # Import pre-pass: a call that lexically precedes its import (late
    # imports at function scope, bodies defined above the import block)
    # must still resolve through the alias table.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            linter.imports.visit_import(node)
        elif isinstance(node, ast.ImportFrom):
            linter.imports.visit_import_from(node)
    linter.visit(tree)
    linter.finalize()
    for alias, name in _unused_imports(tree, linter.lines):
        linter._report(alias, "unused-import", f"{name!r} is never used")
    return sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: str | Path) -> list[LintFinding]:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def _iter_py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    """Lint files and directories (recursively); returns all findings."""
    findings: list[LintFinding] = []
    for file in _iter_py_files(paths):
        findings.extend(lint_file(file))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: exit 1 when any finding is reported."""
    args = list(sys.argv[1:] if argv is None else argv)
    fmt = "text"
    if "--format" in args:
        i = args.index("--format")
        try:
            fmt = args[i + 1]
        except IndexError:
            print("lint_repro: --format needs an argument", file=sys.stderr)
            return 2
        del args[i : i + 2]
        if fmt not in ("text", "json"):
            print(f"lint_repro: unknown format {fmt!r}", file=sys.stderr)
            return 2
    if not args:
        print(
            "usage: lint_repro.py [--format text|json] PATH [PATH ...]",
            file=sys.stderr,
        )
        return 2
    try:
        findings = lint_paths(args)
    except OSError as exc:
        print(f"lint_repro: cannot read {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if fmt == "json":
        print(
            json.dumps(
                {
                    "count": len(findings),
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
