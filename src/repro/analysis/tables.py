"""Experiment result containers and ASCII table rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class ExperimentResult:
    """Rows of measurements plus enough metadata to render/report them."""

    name: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: per-data-point metrics snapshots (testbed.metrics_snapshot()),
    #: keyed by a point label such as ``"ncache/16384"``.
    reports: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_json(self, indent: int = 2) -> str:
        """The whole result — rows, notes and metrics reports — as JSON."""
        return json.dumps({
            "name": self.name,
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
            "reports": self.reports,
        }, indent=indent, default=str)

    def rows_where(self, **filters: Any) -> List[Dict[str, Any]]:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in filters.items()):
                out.append(row)
        return out

    def where(self, **filters: Any) -> "ExperimentResult":
        """The slice of this table whose rows match ``filters``."""
        return ExperimentResult(self.name, self.title, self.columns,
                                self.rows_where(**filters))

    def value(self, column: str, **filters: Any) -> Any:
        """The single value of ``column`` among rows matching filters."""
        matches = self.rows_where(**filters)
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} rows match {filters!r} in {self.name}")
        return matches[0][column]

    def column(self, column: str, **filters: Any) -> List[Any]:
        return [row[column] for row in self.rows_where(**filters)]

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            # Precision follows the magnitude the cell *shows*: 99.996
            # prints as 100 like 100.0 does, not as 100.00.
            for digits, below in ((3, 1), (2, 100)):
                text = f"{value:.{digits}f}"
                if abs(float(text)) < below:
                    return text
            return f"{value:.0f}"
        return str(value)

    def render(self) -> str:
        widths = {c: len(c) for c in self.columns}
        cells: List[List[str]] = []
        for row in self.rows:
            line = [self._fmt(row.get(c, "")) for c in self.columns]
            cells.append(line)
            for c, text in zip(self.columns, line):
                widths[c] = max(widths[c], len(text))
        sep = "-+-".join("-" * widths[c] for c in self.columns)
        header = " | ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [f"== {self.title} ==", header, sep]
        for line in cells:
            lines.append(" | ".join(
                text.rjust(widths[c]) if _numeric(text) else
                text.ljust(widths[c])
                for c, text in zip(self.columns, line)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown table (for EXPERIMENTS.md etc.)."""
        lines = [f"### {self.title}", "",
                 "| " + " | ".join(self.columns) + " |",
                 "|" + "|".join("---" for _ in self.columns) + "|"]
        for row in self.rows:
            lines.append("| " + " | ".join(
                self._fmt(row.get(c, "")) for c in self.columns) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def ratio(new: float, old: float) -> float:
    """Improvement factor new/old (guards the zero case)."""
    return new / old if old else float("inf")


def pct_gain(new: float, old: float) -> float:
    """Percentage improvement of new over old."""
    return (ratio(new, old) - 1.0) * 100.0
