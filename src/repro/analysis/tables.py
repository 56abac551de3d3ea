"""Plain-text table rendering shared by all experiment harnesses.

Every experiment prints the same rows/series the paper's figures plot, in a
stable text format that diffs cleanly across runs and reads well in logs.
"""

from __future__ import annotations

from typing import Any, Sequence


class TextTable:
    """A fixed-column text table with alignment and title support."""

    def __init__(self, columns: Sequence[str], title: str | None = None):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self._rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self._rows.append([_fmt(c) for c in cells])

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def redacted(self, columns: Sequence[str], placeholder: str = "~") -> "TextTable":
        """A copy with every cell of the named columns replaced.

        For persisting run-to-run snapshots: columns that carry wall-clock
        measurements (or anything else nondeterministic) are masked with a
        stable ``placeholder`` so re-running a bench never churns the
        committed snapshot's rows.  Unknown column names raise — a renamed
        column must not silently start leaking volatile cells again.
        """
        unknown = [c for c in columns if c not in self.columns]
        if unknown:
            raise ValueError(f"unknown columns to redact: {unknown}")
        masked = TextTable(self.columns, title=self.title)
        targets = [i for i, c in enumerate(self.columns) if c in columns]
        for row in self._rows:
            cells = list(row)
            for i in targets:
                cells[i] = placeholder
            masked._rows.append(cells)
        return masked

    def render(self) -> str:
        widths = [
            max(len(col), *(len(r[i]) for r in self._rows)) if self._rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * len(header))
        lines.append(header)
        lines.append(sep)
        for row in self._rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        # Unmeasured (e.g. a timing field on a host without a thread-CPU
        # clock) — render like a redacted cell, never as a fake 0.
        return "~"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
