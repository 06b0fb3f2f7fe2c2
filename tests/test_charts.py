"""Unit tests for the SVG chart renderer."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lumispec.charts import render_line_chart

X = np.linspace(0.0, 10.0, 25)


def count_tags(svg, tag):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return sum(1 for _ in root.iter(f"{ns}{tag}"))


class TestRenderLineChart:
    def test_well_formed_xml(self):
        svg = render_line_chart([(X, np.sin(X))], title="demo")
        ET.fromstring(svg)  # raises on malformed output

    def test_one_polyline_per_series(self):
        series = [(X, np.sin(X + k)) for k in range(21)]
        svg = render_line_chart(series)
        assert count_tags(svg, "polyline") == 21

    def test_markers_one_circle_per_point(self):
        series = [(X, np.sin(X)), (X, np.cos(X))]
        svg = render_line_chart(series, markers=True)
        assert count_tags(svg, "circle") == 2 * X.size

    def test_no_markers_by_default(self):
        svg = render_line_chart([(X, np.sin(X))])
        assert count_tags(svg, "circle") == 0

    def test_hline_dashed(self):
        svg = render_line_chart([(X, X / 10.0)], hline=0.95)
        assert "stroke-dasharray" in svg

    def test_labels_escaped(self):
        svg = render_line_chart(
            [(X, np.sin(X))],
            title='a<b & "c"',
            x_label="wavelength <nm>",
            y_label="I & Q",
        )
        ET.fromstring(svg)
        assert "a<b" not in svg
        assert "a&lt;b" in svg

    def test_deterministic(self):
        series = [(X, np.sin(X))]
        assert render_line_chart(series) == render_line_chart(series)

    def test_distinct_series_colors(self):
        series = [(X, np.sin(X + k)) for k in range(3)]
        svg = render_line_chart(series)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        colors = [el.get("stroke") for el in root.iter(f"{ns}polyline")]
        assert len(set(colors)) == 3

    def test_empty_series_list_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([(X, X[:-1])])

    def test_non_finite_rejected(self):
        y = np.sin(X).copy()
        y[3] = np.nan
        with pytest.raises(ValueError):
            render_line_chart([(X, y)])

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([(X, np.sin(X))], x_range=(1.0, 1.0))

    def test_constant_series_autoranges(self):
        svg = render_line_chart([(X, np.full_like(X, 2.0))])
        ET.fromstring(svg)
