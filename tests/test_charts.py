"""Unit tests for the SVG chart renderer."""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lumispec.charts import _autorange, _fmt, _fmt_all, _to_pixels, render_line_chart

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

    # sha256 of charts the seed-7 goldens in test_golden.py do not draw: no
    # title or labels, text that needs escaping, and series on two x arrays
    # with markers and a reference rule.
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                dict(series=[(X, np.sin(X))]),
                "aa3d76f0bf20ffc534cc9923dc6a7628eac8d2bf9987e6b6525ce532ad1d5159",
            ),
            (
                dict(
                    series=[(X, np.sin(X))],
                    title='a<b & "c"',
                    x_label='a<b & "c"',
                    y_label='a<b & "c"',
                ),
                "f68c5aaf8ca21ac79c994c12d30a22ed0ace019fd051357fb81eb31c197e0c22",
            ),
            (
                dict(
                    series=[(X, np.sin(X)), (X, np.cos(X)), (X * 0.5 + 1.0, np.sin(2 * X))],
                    markers=True,
                    hline=0.5,
                ),
                "8d69fba768a3fe75ce21758846aeef8c68fa62bbb137feb471c75673d7634733",
            ),
        ],
        ids=["bare", "escaped", "two-grids"],
    )
    def test_pinned_bytes(self, kwargs, digest):
        svg = render_line_chart(**kwargs)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


class TestBulkFormatting:
    """``_fmt_all`` and ``_to_pixels`` must reproduce the per-point rule."""

    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 2.999, 100.004, 0.0, 7.9951, 12.0],  # round to x.00
            [1.1, 2.5, 0.104, 9.8999, 6.3, 700.2],  # round to x.x0
            [-0.0, -0.001, -0.004999, -0.00499, 0.001],  # round to -0.00
            [0.005, 0.015, 0.125, 1.005, 2.675, -2.675, 0.375],  # .005 ties
            [1000.0, 1234.565, 99999.995, 1e6, -1000.004, 736.0],  # >= 1000
        ],
    )
    def test_fmt_all_matches_fmt(self, values):
        assert _fmt_all(np.array(values)) == [_fmt(v) for v in values]

    def test_fmt_all_matches_fmt_random(self):
        rng = np.random.default_rng(20231107)
        values = np.concatenate(
            [
                rng.uniform(-50.0, 800.0, 40_000),
                np.round(rng.uniform(-1500.0, 1500.0, 40_000), 3),  # many ties
                rng.normal(0.0, 0.01, 20_000),  # many -0.00 and 0.00
            ]
        )
        assert _fmt_all(values) == [_fmt(v) for v in values.tolist()]

    def test_fmt_all_empty(self):
        assert _fmt_all(np.array([])) == []

    def test_x_pixels_bit_equal_to_scalar_formula(self):
        grid = 400.0 + np.arange(801) * 0.5  # the instrument grid
        assert grid.size == 801
        lo, hi, w = 400.0, 800.0, 672.0
        scalar = np.array([64 + (v - lo) / (hi - lo) * w for v in grid.tolist()])
        assert _to_pixels(grid, lo, hi, 64.0, w).tobytes() == scalar.tobytes()

    def test_flipped_y_pixels_bit_equal_to_scalar_formula(self):
        y = np.random.default_rng(3).uniform(-0.2, 1.3, 801)
        (lo, hi), h = _autorange(y), 384.0
        scalar = np.array([40 + (hi - v) / (hi - lo) * h for v in y.tolist()])
        assert _to_pixels(y, hi, lo, 40.0, h).tobytes() == scalar.tobytes()
        assert _to_pixels(float(y[5]), hi, lo, 40.0, h) == scalar[5]

    def test_points_match_scalar_rule_per_series(self):
        # Two series share one x array, a third has its own.
        y1, y2, y3 = np.sin(X), np.cos(X), np.sin(2 * X)
        x3 = X * 0.5 + 1.0
        svg = render_line_chart(
            [(X, y1), (X, y2), (x3, y3)], x_range=(-1.0, 11.0), markers=True
        )
        y_lo, y_hi = _autorange(np.concatenate([y1, y2, y3]))
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = [el.get("points") for el in root.iter(f"{ns}polyline")]
        circles = [(el.get("cx"), el.get("cy")) for el in root.iter(f"{ns}circle")]
        expected_pairs = []
        for (xa, ya), got in zip([(X, y1), (X, y2), (x3, y3)], polylines):
            pairs = [
                (
                    _fmt(64 + (px + 1.0) / 12.0 * 672.0),
                    _fmt(40 + (y_hi - py) / (y_hi - y_lo) * 384.0),
                )
                for px, py in zip(xa.tolist(), ya.tolist())
            ]
            assert got == " ".join(f"{a},{b}" for a, b in pairs)
            expected_pairs.extend(pairs)
        assert circles == expected_pairs
