"""Standalone SVG line charts, written by hand.

The figures this package emits are simple line charts, so the renderer is
a small deterministic string builder rather than a plotting dependency.
Every data series becomes exactly one ``<polyline>``; axes, ticks and the
reference rule are ``<line>`` elements. Output is well-formed XML with
inline styles only and no external references.

One writer, ``_tag``, writes every element, and every number in it goes
through ``_fmt``: ``f"{v:.2f}"`` with trailing zeros and then a trailing
point stripped. Polyline coordinates are computed per series as numpy
arrays, with the same float operations in the same order as for one value,
and formatted in one pass (``_fmt_all``). The output bytes depend only on
the inputs; ``tests/test_golden.py`` pins them for the seed-7 figures.
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


def _tag(name: str, content: Optional[str] = None, **attrs) -> str:
    """One SVG element, wrapping ``content`` or, without it, self-closing.

    A number attribute is written by ``_fmt``, a string as given; ``_`` in an
    attribute name is written as ``-``.
    """
    head = name + "".join(
        f' {k.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"'
        for k, v in attrs.items()
    )
    return f"<{head}/>" if content is None else f"<{head}>{content}</{name}>"


def _line(x1, y1, x2, y2, stroke: str = _AXIS, **attrs) -> str:
    return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=1, **attrs)


def _text(text: str, x, y, size, anchor: str = "middle", **attrs) -> str:
    style = dict(text_anchor=anchor, font_family="sans-serif", font_size=size, fill=_FG)
    return _tag("text", _escape(text), x=x, y=y, **style, **attrs)


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
    x_axis_end = _MARGIN_LEFT + plot_w
    out = [_tag("rect", x=0, y=0, width=_WIDTH, height=_HEIGHT, fill=_BG)]
    if title:
        out.append(_text(title, _WIDTH / 2, 24, 15))
    area = _tag("rect", x=_MARGIN_LEFT, y=_MARGIN_TOP, width=plot_w, height=plot_h)
    out.append(_tag("clipPath", area, id="plot-area"))

    # Axes.
    out.append(_line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, x_axis_y))
    out.append(_line(_MARGIN_LEFT, x_axis_y, x_axis_end, x_axis_y))

    # Ticks and labels.
    x_ticks = np.linspace(x_lo, x_hi, _N_TICKS)
    for v, px in zip(x_ticks.tolist(), _to_pixels(x_ticks, *x_axis).tolist()):
        out.append(_line(px, x_axis_y, px, x_axis_y + 5))
        out.append(_text(_tick_label(v), px, x_axis_y + 20, 11))
    y_ticks = np.linspace(y_lo, y_hi, _N_TICKS)
    for v, py in zip(y_ticks.tolist(), _to_pixels(y_ticks, *y_axis).tolist()):
        out.append(_line(_MARGIN_LEFT - 5, py, _MARGIN_LEFT, py))
        out.append(_text(_tick_label(v), _MARGIN_LEFT - 9, py + 4, 11, "end"))
    if x_label:
        out.append(_text(x_label, _MARGIN_LEFT + plot_w / 2, _HEIGHT - 14, 13))
    if y_label:
        cx, cy = 18.0, _MARGIN_TOP + plot_h / 2
        rotate = f"rotate(-90 {_fmt(cx)} {_fmt(cy)})"
        out.append(_text(y_label, cx, cy, 13, transform=rotate))

    # Reference rule, drawn under the data.
    if hline is not None:
        py = _to_pixels(float(hline), *y_axis)
        out.append(_line(_MARGIN_LEFT, py, x_axis_end, py, _RULE, stroke_dasharray="6 4"))

    plotted = []
    shared_x = xs = None
    for i, (xa, ya) in enumerate(data):
        color = _series_color(i, len(data))
        # Spectra charts pass one grid for every series: format it once.
        if shared_x is None or not np.array_equal(xa, shared_x):
            shared_x, xs = xa, _fmt_all(_to_pixels(xa, *x_axis))
        ys = _fmt_all(_to_pixels(ya, *y_axis))
        points = " ".join(map(",".join, zip(xs, ys)))
        style = dict(fill="none", stroke=color, stroke_width=1.5)
        plotted.append(_tag("polyline", **style, points=points))
        if markers:
            plotted.extend(
                _tag("circle", cx=px, cy=py, r=2.5, fill=color) for px, py in zip(xs, ys)
            )
    out.append(_tag("g", "\n".join(["", *plotted, ""]), clip_path="url(#plot-area)"))
    view = " ".join(map(_fmt, (0, 0, _WIDTH, _HEIGHT)))
    svg = dict(xmlns="http://www.w3.org/2000/svg", width=_WIDTH, height=_HEIGHT, viewBox=view)
    return _tag("svg", "\n".join(["", *out, ""]), **svg) + "\n"
