"""Terminal line plots for experiment series.

The paper's artifacts are figures; the tables in :mod:`repro.analysis.tables`
carry the numbers, and this module renders their *shape* — multi-series
scatter/line plots on linear or logarithmic axes — as plain text, so a
terminal user can see the curves the paper plots (e.g. the flat-then-linear
clock-skew figure) without a plotting stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Glyphs assigned to series, in order.
SERIES_GLYPHS = "ox*+#@%&"


@dataclass
class Series:
    """One named plot series."""

    name: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ValueError("series xs/ys must be equal-length 1-D arrays")
        if self.xs.size == 0:
            raise ValueError("series must contain at least one point")


@dataclass
class AsciiPlot:
    """A multi-series character plot.

    Parameters
    ----------
    width, height:
        Plot canvas size in characters (excluding axes and labels).
    log_x, log_y:
        Logarithmic axes (all plotted values must then be positive).
    title:
        Optional heading line.
    """

    width: int = 64
    height: int = 18
    log_x: bool = False
    log_y: bool = False
    title: str | None = None
    _series: list[Series] = field(default_factory=list)

    def add_series(self, name: str, xs, ys) -> None:
        if len(self._series) >= len(SERIES_GLYPHS):
            raise ValueError(f"at most {len(SERIES_GLYPHS)} series supported")
        self._series.append(Series(name, np.asarray(xs), np.asarray(ys)))

    def _transform(self, values: np.ndarray, log: bool) -> np.ndarray:
        if not log:
            return values
        if np.any(values <= 0):
            raise ValueError("logarithmic axes require positive values")
        return np.log10(values)

    def render(self) -> str:
        if not self._series:
            raise ValueError("nothing to plot")
        all_x = np.concatenate([s.xs for s in self._series])
        all_y = np.concatenate([s.ys for s in self._series])
        tx = self._transform(all_x, self.log_x)
        ty = self._transform(all_y, self.log_y)
        x_lo, x_hi = float(tx.min()), float(tx.max())
        y_lo, y_hi = float(ty.min()), float(ty.max())
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0

        grid = [[" "] * self.width for _ in range(self.height)]
        for glyph, series in zip(SERIES_GLYPHS, self._series):
            sx = self._transform(series.xs, self.log_x)
            sy = self._transform(series.ys, self.log_y)
            cols = np.round(
                (sx - x_lo) / (x_hi - x_lo) * (self.width - 1)
            ).astype(int)
            rows = np.round(
                (sy - y_lo) / (y_hi - y_lo) * (self.height - 1)
            ).astype(int)
            for c, r in zip(cols, rows):
                row = self.height - 1 - r
                cell = grid[row][c]
                grid[row][c] = glyph if cell in (" ", glyph) else "?"

        def fmt(value: float, log: bool) -> str:
            real = 10**value if log else value
            return f"{real:.3g}"

        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        top_label = fmt(y_hi, self.log_y)
        bottom_label = fmt(y_lo, self.log_y)
        label_width = max(len(top_label), len(bottom_label))
        for i, row in enumerate(grid):
            if i == 0:
                label = top_label.rjust(label_width)
            elif i == self.height - 1:
                label = bottom_label.rjust(label_width)
            else:
                label = " " * label_width
            lines.append(f"{label} |{''.join(row)}|")
        x_left = fmt(x_lo, self.log_x)
        x_right = fmt(x_hi, self.log_x)
        axis = "-" * self.width
        lines.append(f"{' ' * label_width} +{axis}+")
        gap = self.width - len(x_left) - len(x_right)
        lines.append(f"{' ' * label_width}  {x_left}{' ' * max(gap, 1)}{x_right}")
        legend = "   ".join(
            f"{glyph}={series.name}"
            for glyph, series in zip(SERIES_GLYPHS, self._series)
        )
        lines.append(f"{' ' * label_width}  [{legend}]")
        return "\n".join(lines)
