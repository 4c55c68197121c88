"""Hand-assembled SVG time-series charts.

Charts must be byte-reproducible, so everything is plain string assembly
with fixed-precision coordinates: no plotting library that stamps ids,
versions, or timestamps into the output. Three styles cover the report
bundle:

* dual_axis: first series drawn upward, second downward mirrored across zero.
* stacked: series stacked as areas, with the cumulative top drawn as a line.
* lines: one polyline per series; undefined values break the line, infinite
  values mark the top edge.

The source values are embedded verbatim in a <metadata> element so the
rendered document carries its own data table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

STYLES = ("dual_axis", "stacked", "lines")

PALETTE = (
    "#4269d0",
    "#efb118",
    "#ff725c",
    "#6cc5b0",
    "#3ca951",
    "#ff8ab7",
    "#a463f2",
    "#97bbf5",
    "#9c6b4e",
    "#9498a0",
)

_W, _H = 960, 420
_ML, _MR, _MT, _MB = 70, 190, 52, 40
_PW = _W - _ML - _MR
_PH = _H - _MT - _MB


@dataclass(frozen=True)
class ChartSeries:
    name: str
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class ChartSpec:
    title: str
    x_labels: tuple[str, ...]
    series: tuple[ChartSeries, ...]
    y_label: str = ""


def escape(text: str) -> str:
    """Escape &, < and > for XML text, as xml.sax.saxutils.escape does.

    That module is not imported: it pulls in urllib.request and with it ssl,
    socket, http.client and email on every import of the package.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ceil(v: float) -> float:
    """Smallest 1/2/2.5/5 x 10^k value at or above v."""
    if v <= 0:
        return 1.0
    exp = math.floor(math.log10(v))
    base = 10.0 ** exp
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if v <= m * base:
            return m * base
    return 10.0 * base


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(round(v, 6))


def _finite(value: float | None) -> bool:
    return value is not None and math.isfinite(value)


def _data_table(spec: ChartSpec) -> str:
    def encode(v: float | None):
        if v is None:
            return None
        if math.isinf(v):
            return "inf"
        return v

    payload = {
        "title": spec.title,
        "x": list(spec.x_labels),
        "series": {s.name: [encode(v) for v in s.values] for s in spec.series},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Svg:
    def __init__(self):
        self.parts: list[str] = []

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def line(self, x1, y1, x2, y2, stroke, width="1", dash=None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def text(self, x, y, content, size=12, anchor="start", fill="#333", rotate=None) -> None:
        transform = ""
        if rotate is not None:
            transform = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"'
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}"{transform}>{escape(content)}</text>'
        )

    def path(self, d: str, fill="none", stroke="none", width="1.5", opacity=None) -> None:
        o = f' fill-opacity="{opacity}"' if opacity is not None else ""
        self.add(f'<path d="{d}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"{o}/>')

    def circle(self, cx, cy, r, fill) -> None:
        self.add(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" fill="{fill}"/>')


def _x_positions(n: int) -> list[float]:
    if n <= 1:
        return [_ML + _PW / 2.0]
    step = _PW / (n - 1)
    return [_ML + i * step for i in range(n)]


def _frame(svg: _Svg, spec: ChartSpec, xs: list[float]) -> None:
    svg.text(_ML, 24, spec.title, size=15, fill="#111")
    if spec.y_label:
        svg.text(16, _MT + _PH / 2.0, spec.y_label, size=12, anchor="middle", rotate=-90)
    step = max(1, len(spec.x_labels) // 12)
    for i in range(0, len(spec.x_labels), step):
        svg.text(xs[i], _H - _MB + 16, spec.x_labels[i], size=10, anchor="middle", fill="#555")


def _legend(svg: _Svg, names: list[str], colors: list[str]) -> None:
    x = _W - _MR + 14
    for i, (name, color) in enumerate(zip(names, colors)):
        y = _MT + 8 + i * 18
        svg.add(f'<rect x="{x}" y="{y - 9}" width="10" height="10" fill="{color}"/>')
        svg.text(x + 16, y, name, size=11, fill="#333")


def _y_axis(svg: _Svg, y_of, lo: float, hi: float, divisions: int = 4) -> None:
    for i in range(divisions + 1):
        v = lo + (hi - lo) * i / divisions
        y = y_of(v)
        svg.line(_ML, y, _ML + _PW, y, "#e0e0e0" if v != 0 else "#999")
        svg.text(_ML - 8, y + 4, _tick_label(v), size=10, anchor="end", fill="#555")


def _poly(xs: list[float], ys: list[float]) -> str:
    return "M" + "L".join(f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys))


def _render_dual_axis(svg: _Svg, spec: ChartSpec, xs: list[float]) -> None:
    up = spec.series[0]
    down = spec.series[1] if len(spec.series) > 1 else ChartSeries("", (0.0,) * len(xs))
    top = _nice_ceil(max((v for v in up.values if _finite(v)), default=0.0))
    bottom = _nice_ceil(max((v for v in down.values if _finite(v)), default=0.0))

    def y_of(v: float) -> float:
        return _MT + (top - v) / (top + bottom) * _PH

    _y_axis(svg, y_of, -bottom, top)
    zero = y_of(0.0)
    for series, color, sign in ((up, PALETTE[0], 1.0), (down, PALETTE[2], -1.0)):
        vals = [sign * (v if _finite(v) else 0.0) for v in series.values]
        ys = [y_of(v) for v in vals]
        area = _poly(xs, ys) + f"L{_fmt(xs[-1])} {_fmt(zero)}L{_fmt(xs[0])} {_fmt(zero)}Z"
        svg.path(area, fill=color, opacity="0.25")
        svg.path(_poly(xs, ys), stroke=color)
    _legend(svg, [up.name, down.name], [PALETTE[0], PALETTE[2]])


def _render_stacked(svg: _Svg, spec: ChartSpec, xs: list[float]) -> None:
    n = len(xs)
    cumulative = [0.0] * n
    tops: list[list[float]] = []
    for series in spec.series:
        cumulative = [
            c + (v if _finite(v) else 0.0) for c, v in zip(cumulative, series.values)
        ]
        tops.append(list(cumulative))
    peak = _nice_ceil(max(cumulative, default=0.0))

    def y_of(v: float) -> float:
        return _MT + (peak - v) / peak * _PH

    _y_axis(svg, y_of, 0.0, peak)
    zero = y_of(0.0)
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(spec.series))]
    for i in range(len(spec.series) - 1, -1, -1):
        below = tops[i - 1] if i > 0 else [0.0] * n
        upper = [y_of(v) for v in tops[i]]
        lower = [y_of(v) for v in below]
        d = (
            _poly(xs, upper)
            + "L"
            + "L".join(f"{_fmt(x)} {_fmt(y)}" for x, y in zip(reversed(xs), reversed(lower)))
            + "Z"
        )
        svg.path(d, fill=colors[i], opacity="0.8")
    svg.path(_poly(xs, [y_of(v) for v in cumulative]), stroke="#222", width="1.2")
    svg.line(_ML, zero, _ML + _PW, zero, "#999")
    _legend(svg, [s.name for s in spec.series], colors)


def _render_lines(svg: _Svg, spec: ChartSpec, xs: list[float]) -> None:
    finite_max = max(
        (v for s in spec.series for v in s.values if _finite(v)), default=0.0
    )
    peak = _nice_ceil(finite_max)

    def y_of(v: float) -> float:
        return _MT + (peak - v) / peak * _PH

    _y_axis(svg, y_of, 0.0, peak)
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(spec.series))]
    for series, color in zip(spec.series, colors):
        segment_x: list[float] = []
        segment_y: list[float] = []
        for x, v in zip(xs, series.values):
            if _finite(v):
                segment_x.append(x)
                segment_y.append(y_of(v))
                continue
            if len(segment_x) > 1:
                svg.path(_poly(segment_x, segment_y), stroke=color)
            elif len(segment_x) == 1:
                svg.circle(segment_x[0], segment_y[0], 2.5, color)
            segment_x, segment_y = [], []
            if v is not None and math.isinf(v):
                # off-scale marker at the top edge
                svg.circle(x, _MT + 4, 3, color)
        if len(segment_x) > 1:
            svg.path(_poly(segment_x, segment_y), stroke=color)
        elif len(segment_x) == 1:
            svg.circle(segment_x[0], segment_y[0], 2.5, color)
    _legend(svg, [s.name for s in spec.series], colors)


def render_timeseries_chart(spec: ChartSpec, style: str) -> str:
    """Render one chart to a standalone SVG document string."""
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}, got {style!r}")
    if not spec.series:
        raise ValueError("chart needs at least one series")
    n = len(spec.x_labels)
    for series in spec.series:
        if len(series.values) != n:
            raise ValueError(
                f"series {series.name!r} has {len(series.values)} values, expected {n}"
            )
    if n == 0:
        raise ValueError("chart needs at least one x position")

    svg = _Svg()
    svg.add(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    svg.add(f'<metadata id="chart-data">{escape(_data_table(spec))}</metadata>')
    svg.add(f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>')
    svg.add('<g font-family="Helvetica, Arial, sans-serif">')

    xs = _x_positions(n)
    _frame(svg, spec, xs)
    if style == "dual_axis":
        _render_dual_axis(svg, spec, xs)
    elif style == "stacked":
        _render_stacked(svg, spec, xs)
    else:
        _render_lines(svg, spec, xs)

    svg.add("</g>")
    svg.add("</svg>")
    return "\n".join(svg.parts) + "\n"
