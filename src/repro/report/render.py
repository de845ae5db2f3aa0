"""Artifact rendering: tables to markdown and CSV.

Render hooks lay figure data out as :class:`Table` rows; this module
owns every output format so all artifacts look alike:

- **Markdown** (:meth:`Artifact.to_markdown`): a heading, one pipe
  table per :class:`Table`, and the figure's notes — the form both the
  report directory and the benchmark tier's ``-s`` output use.
- **CSV** (:meth:`Table.to_csv`): one file per table, machine-readable
  mirrors of the markdown rows.

Values are formatted once, identically everywhere, by
:func:`format_value` (floats via ``%.6g``), so golden-output tests pin
artifacts byte-for-byte.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import Any, List, Sequence


def format_value(value: Any) -> str:
    """The canonical cell rendering (floats ``%.6g``, ``None`` blank)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class Table:
    """One rectangular slice of an artifact.

    Attributes:
        columns: Header cells.
        rows: Row cells (any scalar; rendered by :func:`format_value`).
        name: Table name within the artifact; the main (or only) table
            uses ``""`` and exports as ``<figure>.csv``, named tables
            as ``<figure>.<name>.csv``.
    """

    columns: Sequence[str]
    rows: List[List[Any]]
    name: str = ""

    def to_csv(self) -> str:
        """The table as CSV text (header plus formatted rows)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(list(self.columns))
        for row in self.rows:
            writer.writerow([format_value(cell) for cell in row])
        return buffer.getvalue()

    def to_markdown(self) -> str:
        """The table as a GitHub pipe table."""
        lines = [
            "| " + " | ".join(str(c) for c in self.columns) + " |",
            "|" + "|".join(" --- " for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append(
                "| " + " | ".join(format_value(cell) for cell in row) + " |"
            )
        return "\n".join(lines)


@dataclass
class Artifact:
    """One rendered paper figure/table: tables plus prose notes.

    ``name``/``title``/``kind`` are filled from the figure's registry
    record by :func:`repro.report.planner.render_figure`; render hooks
    only supply tables and notes.
    """

    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    name: str = ""
    title: str = ""
    kind: str = "figure"

    def table(self, name: str = "") -> Table:
        """The table registered under ``name`` (``""`` = the main one)."""
        for table in self.tables:
            if table.name == name:
                return table
        raise LookupError(
            f"artifact {self.name!r} has no table {name!r}; "
            f"tables: {[t.name for t in self.tables]}"
        )

    def to_markdown(self) -> str:
        """The whole artifact as one markdown document section."""
        parts = [f"## {self.title}" if self.title else f"## {self.name}"]
        for table in self.tables:
            if table.name:
                parts.append(f"### {table.name}")
            parts.append(table.to_markdown())
        if self.notes:
            parts.append("\n".join(f"- {note}" for note in self.notes))
        return "\n\n".join(parts) + "\n"


def write_artifact(artifact: Artifact, out_dir: str) -> List[str]:
    """Write ``<name>.md`` plus one CSV per table; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths: List[str] = []
    md_path = os.path.join(out_dir, f"{artifact.name}.md")
    with open(md_path, "w", encoding="utf-8") as handle:
        handle.write(artifact.to_markdown())
    paths.append(md_path)
    for table in artifact.tables:
        stem = f"{artifact.name}.{table.name}" if table.name else artifact.name
        csv_path = os.path.join(out_dir, f"{stem}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(table.to_csv())
        paths.append(csv_path)
    return paths
