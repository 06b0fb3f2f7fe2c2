"""Standalone SVG line charts, written by hand.

The figures this package emits are simple line charts, so the renderer is
a small deterministic string builder rather than a plotting dependency.
Contract relied on by callers and tests: every data series becomes exactly
one ``<polyline>`` element; axes, ticks, and reference rules are drawn
with ``<line>``. Output is well-formed XML with inline styles only and no
external references, so the file renders anywhere as-is.

Every coordinate is written as ``f"{v:.2f}"`` with trailing zeros and then
a trailing point stripped (``_fmt``). Pixel coordinates are computed per
series as numpy arrays, with the same float operations in the same order
as for one value, and formatted in one pass per series. The output bytes
depend only on the inputs; ``tests/test_golden.py`` pins them for the
seed-7 figures.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

_WIDTH = 760.0
_HEIGHT = 480.0
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 56.0

_N_TICKS = 5

# Series color ramp endpoints, first series blue through last series red.
_RAMP_BLUE = (23, 74, 170)
_RAMP_RED = (188, 36, 42)

_BG = "#ffffff"
_FG = "#1a1a1a"
_AXIS = "#444444"
_RULE = "#888888"


def _escape(text: str) -> str:
    """XML text escaping, the same bytes as ``xml.sax.saxutils.escape``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _series_color(i: int, n: int) -> str:
    t = 0.0 if n <= 1 else i / (n - 1)
    rgb = tuple(
        round(a + t * (b - a)) for a, b in zip(_RAMP_BLUE, _RAMP_RED)
    )
    return "#%02x%02x%02x" % rgb


def _fmt(v: float) -> str:
    """Compact coordinate formatting; keeps the SVG small and stable."""
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _fmt_all(values: np.ndarray) -> list[str]:
    """``_fmt`` of every value of a 1-D array, formatted in one pass."""
    text = ("%.2f " * values.size) % tuple(values.tolist())
    # Each value has exactly two decimals and ends at a space: strip its last
    # zero ("1.50" -> "1.5", "1.00" -> "1.0"), then a lone ".0" ("1.0" -> "1").
    return text.replace("0 ", " ").replace(".0 ", " ").split()


def _to_pixels(v, lo: float, hi: float, start: float, span: float):
    """Map ``v`` (a float or an array) from ``[lo, hi]`` onto ``start + [0, span]``.

    Elementwise the same float operations in the same order for arrays and
    for scalars, so an array maps bit-equal to its values one at a time.
    ``lo > hi`` flips the axis, as the y axis needs.
    """
    return start + (v - lo) / (hi - lo) * span


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _autorange(values: np.ndarray) -> tuple[float, float]:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.05
    else:
        pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_line_chart(
    series: Iterable[tuple[Sequence[float], Sequence[float]]],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_range: Optional[tuple[float, float]] = None,
    hline: Optional[float] = None,
    markers: bool = False,
) -> str:
    """Render ``(x, y)`` series to an SVG document string.

    ``x_range`` fixes the x axis; otherwise it is autoscaled over all
    series with a little padding. The y axis is always autoscaled over all
    series and ``hline``, which draws a dashed horizontal reference rule at
    that y value. ``markers`` adds a circle at every data point of every
    series.
    """
    data: list[tuple[np.ndarray, np.ndarray]] = []
    for x, y in series:
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size or xa.size == 0:
            raise ValueError("each series needs matching non-empty 1-D x and y")
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
            raise ValueError("series values must be finite")
        data.append((xa, ya))
    if not data:
        raise ValueError("chart needs at least one series")

    if x_range is None:
        x_range = _autorange(np.concatenate([x for x, _ in data]))
    y_all = [y for _, y in data]
    if hline is not None:
        y_all.append(np.asarray([hline], dtype=float))
    y_lo, y_hi = _autorange(np.concatenate(y_all))
    x_lo, x_hi = map(float, x_range)
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValueError("axis ranges must have positive extent")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    x_axis = (x_lo, x_hi, _MARGIN_LEFT, plot_w)
    y_axis = (y_hi, y_lo, _MARGIN_TOP, plot_h)
    x_axis_y = _MARGIN_TOP + plot_h
    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    out.append(
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'fill="{_BG}"/>'
    )
    if title:
        out.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="{_FG}">'
            f"{_escape(title)}</text>"
        )

    out.append(
        f'<clipPath id="plot-area"><rect x="{_fmt(_MARGIN_LEFT)}" '
        f'y="{_fmt(_MARGIN_TOP)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}"/></clipPath>'
    )

    # Axes.
    out.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(_MARGIN_TOP)}" '
        f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(x_axis_y)}" '
        f'stroke="{_AXIS}" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(x_axis_y)}" '
        f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(x_axis_y)}" '
        f'stroke="{_AXIS}" stroke-width="1"/>'
    )

    # Ticks and labels.
    x_ticks = np.linspace(x_lo, x_hi, _N_TICKS)
    for v, px in zip(x_ticks.tolist(), _to_pixels(x_ticks, *x_axis).tolist()):
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(x_axis_y + 5)}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(x_axis_y + 20)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11" '
            f'fill="{_FG}">{_escape(_tick_label(v))}</text>'
        )
    y_ticks = np.linspace(y_lo, y_hi, _N_TICKS)
    for v, py in zip(y_ticks.tolist(), _to_pixels(y_ticks, *y_axis).tolist()):
        out.append(
            f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(py)}" '
            f'stroke="{_AXIS}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 9)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{_FG}">{_escape(_tick_label(v))}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" '
            f'y="{_fmt(_HEIGHT - 14)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="{_FG}">'
            f"{_escape(x_label)}</text>"
        )
    if y_label:
        cx, cy = 18.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="{_FG}" '
            f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">'
            f"{_escape(y_label)}</text>"
        )

    # Reference rule, drawn under the data.
    if hline is not None:
        py = _to_pixels(float(hline), *y_axis)
        out.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(py)}" '
            f'stroke="{_RULE}" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    out.append('<g clip-path="url(#plot-area)">')
    n = len(data)
    shared_x = xs = None
    for i, (xa, ya) in enumerate(data):
        color = _series_color(i, n)
        # Spectra charts pass one grid for every series: format it once.
        if shared_x is None or not np.array_equal(xa, shared_x):
            shared_x, xs = xa, _fmt_all(_to_pixels(xa, *x_axis))
        ys = _fmt_all(_to_pixels(ya, *y_axis))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(map(",".join, zip(xs, ys)))}"/>'
        )
        if markers:
            out.extend(
                f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>'
                for px, py in zip(xs, ys)
            )
    out.append("</g>")
    out.append("</svg>")
    out.append("")  # ends the document with a newline without copying it
    return "\n".join(out)
