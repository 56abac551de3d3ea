"""ASCII plot rendering."""

import numpy as np
import pytest

from repro.analysis.asciiplot import AsciiPlot


class TestAsciiPlot:
    def test_render_contains_glyphs_and_legend(self):
        plot = AsciiPlot(width=20, height=6, title="demo")
        plot.add_series("a", [0, 1, 2], [0, 1, 2])
        plot.add_series("b", [0, 1, 2], [2, 1, 0])
        text = plot.render()
        assert "demo" in text
        assert "o=a" in text and "x=b" in text
        assert "o" in text and "x" in text

    def test_extreme_points_hit_canvas_corners(self):
        plot = AsciiPlot(width=11, height=5)
        plot.add_series("s", [0.0, 10.0], [0.0, 1.0])
        rows = [
            line for line in plot.render().splitlines() if "|" in line
        ]
        assert rows[0].split("|")[1][-1] == "o"  # max-y at right edge
        assert rows[-1].split("|")[1][0] == "o"  # min-y at left edge

    def test_log_axes_spread_decades_evenly(self):
        plot = AsciiPlot(width=21, height=5, log_x=True, log_y=True)
        plot.add_series("s", [1e-6, 1e-3, 1.0], [1.0, 1e3, 1e6])
        rows = [line for line in plot.render().splitlines() if "|" in line]
        # The three points form a straight diagonal in log-log space:
        # left-bottom, center-middle, right-top.
        assert rows[-1].split("|")[1][0] == "o"
        assert rows[2].split("|")[1][10] == "o"
        assert rows[0].split("|")[1][20] == "o"

    def test_log_axis_rejects_nonpositive(self):
        plot = AsciiPlot(log_y=True)
        plot.add_series("s", [1, 2], [0.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            plot.render()

    def test_axis_labels_show_data_range(self):
        plot = AsciiPlot(width=24, height=4)
        plot.add_series("s", [5.0, 25.0], [100.0, 400.0])
        text = plot.render()
        assert "5" in text and "25" in text
        assert "100" in text and "400" in text

    def test_overlapping_series_marked(self):
        plot = AsciiPlot(width=9, height=3)
        plot.add_series("a", [0, 1], [0, 1])
        plot.add_series("b", [0, 1], [0, 1])
        assert "?" in plot.render()

    def test_empty_plot_rejected(self):
        with pytest.raises(ValueError):
            AsciiPlot().render()

    def test_mismatched_series_rejected(self):
        plot = AsciiPlot()
        with pytest.raises(ValueError):
            plot.add_series("s", [1, 2], [1])

    def test_constant_series_renders(self):
        plot = AsciiPlot(width=10, height=4)
        plot.add_series("flat", [1, 2, 3], [5.0, 5.0, 5.0])
        assert "o" in plot.render()
