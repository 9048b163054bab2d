"""Paper-style text tables.

Every benchmark prints the rows the corresponding paper figure/table
reports, with the paper's own numbers alongside where available, so the
reproduction can be eyeballed directly from the bench output (and copied
into EXPERIMENTS.md).
"""

from __future__ import annotations

import csv
import pathlib
import re
from dataclasses import dataclass, field
from typing import Optional


class Table:
    """Minimal fixed-width table renderer."""

    def __init__(self, title: str, headers: list[str]) -> None:
        self.title = title
        self.headers = headers
        self.rows: list[list[str]] = []

    def add_row(self, *cells) -> None:
        """Append a row; cells are str()'d (floats get 3 significant-ish
        decimals)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        """The table as a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def print(self) -> None:
        """Render to stdout with surrounding blank lines."""
        print()
        print(self.render())
        print()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 100:
            return f"{cell:.1f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


@dataclass
class Comparison:
    """One paper-vs-measured data point for EXPERIMENTS.md."""

    label: str
    paper: Optional[float]
    measured: float
    unit: str = "ms"
    note: str = ""

    def ratio(self) -> Optional[float]:
        """measured / paper, when the paper value is known and nonzero."""
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper

    def row(self) -> list:
        """The comparison as report-table cells."""
        paper = "-" if self.paper is None else _fmt(self.paper)
        ratio = self.ratio()
        return [
            self.label,
            paper,
            _fmt(self.measured),
            self.unit,
            "-" if ratio is None else f"{ratio:.2f}x",
            self.note,
        ]


@dataclass
class ExperimentReport:
    """Everything one experiment wants to say."""

    experiment_id: str
    description: str
    tables: list[Table] = field(default_factory=list)
    comparisons: list[Comparison] = field(default_factory=list)
    shape_checks: dict[str, bool] = field(default_factory=dict)

    def add_table(self, table: Table) -> None:
        """Attach a rendered table."""
        self.tables.append(table)

    def check(self, name: str, ok: bool) -> bool:
        """Record a shape assertion (who wins / how gaps scale)."""
        self.shape_checks[name] = bool(ok)
        return bool(ok)

    def all_checks_pass(self) -> bool:
        """Whether every recorded shape assertion held."""
        return all(self.shape_checks.values())

    def render(self) -> str:
        """Full report text."""
        lines = [f"== {self.experiment_id}: {self.description} =="]
        for table in self.tables:
            lines.append("")
            lines.append(table.render())
        if self.comparisons:
            comp = Table(
                "\npaper vs measured",
                ["point", "paper", "measured", "unit", "ratio", "note"],
            )
            for c in self.comparisons:
                comp.add_row(*c.row())
            lines.append(comp.render())
        if self.shape_checks:
            lines.append("")
            for name, ok in self.shape_checks.items():
                lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)

    def print(self) -> None:
        """Render to stdout."""
        print()
        print(self.render())
        print()

    def save_csv(self, directory) -> list[str]:
        """Export every table (and the comparisons) as CSV files.

        Returns the written file names.  Downstream plotting of the
        figures starts from these.
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for i, table in enumerate(self.tables):
            slug = _slugify(table.title) or f"table{i}"
            name = f"{_slugify(self.experiment_id)}_{slug}.csv"
            with open(directory / name, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table.headers)
                writer.writerows(table.rows)
            written.append(name)
        if self.comparisons:
            name = f"{_slugify(self.experiment_id)}_paper_vs_measured.csv"
            with open(directory / name, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(
                    ["point", "paper", "measured", "unit", "ratio", "note"]
                )
                for comparison in self.comparisons:
                    writer.writerow(comparison.row())
            written.append(name)
        return written


def _slugify(text: str) -> str:
    text = text.strip().lower().split("\n")[-1]
    text = re.sub(r"[^a-z0-9]+", "-", text).strip("-")
    return text[:60]
