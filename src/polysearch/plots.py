"""Self-contained SVG charts for sweep summaries.

No plotting dependency: the two chart kinds used here (trend lines with
confidence bands, grouped bars) are a few dozen SVG elements each, and
emitting them directly keeps the output a single portable file.
"""

from __future__ import annotations

import math
from dataclasses import replace
from html import escape
from typing import Sequence

from .errors import EmptyInput, PolySearchError
from .harness import SummaryRow

PALETTE = {
    "sfc": "#1f77b4",
    "sfc_g": "#9467bd",
    "rs": "#2ca02c",
    "crs": "#d62728",
    "baseline": "#7f7f7f",
}
DASHES = {"static": "", "random": "6 3", "walk": "2 3"}

WIDTH, HEIGHT = 780, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 180, 44, 52
X_LABEL, Y_LABEL = "team size", "mean steps to capture"
#: Largest axis value a chart shows; adding a tick step still moves a float this large.
MAX_AXIS = 1e12
#: Smallest positive axis span a chart shows; _ticks rounds ticks to 10 decimals.
MIN_SPAN = 1e-9
#: Characters XML 1.0 forbids, mapped to U+FFFD; surrogates stay, since write_text refuses them.
_NOT_XML = dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")


def _text(s: str) -> str:
    return escape(s, quote=False).translate(_NOT_XML)


def _usable(rows: Sequence[SummaryRow]) -> list[SummaryRow]:
    """Feasible rows with captures and a mean; a NaN ci95 (one captured trial) reads as 0.0."""
    out = [r for r in rows if r.feasible and r.captures > 0 and not math.isnan(r.mean_steps)]
    if not out:
        raise EmptyInput("no plottable rows (all infeasible or capture-free)")
    return [replace(r, ci95=0.0) if math.isnan(r.ci95) else r for r in out]


def _nice_step(span: float, bins: int) -> float:
    raw = span / max(bins, 1)
    mag = 10 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, bins: int = 5) -> list[float]:
    """Nice ticks inside [lo, hi]; when fewer than three land there, the bins double, twice at most."""
    if hi <= lo:
        hi = lo + 1.0
    for bins in (bins, 2 * bins, 4 * bins):
        step = _nice_step(hi - lo, bins)
        tol = step * 1e-9  # float slack; a tick outside [lo, hi] would leave the frame
        ticks = []
        t = math.floor(lo / step) * step
        while t <= hi + tol:
            if t >= lo - tol:
                ticks.append(round(t, 10))
            t += step
        if len(ticks) >= 3:
            break
    return ticks


def _fmt_tick(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:g}"


class _Frame:
    """Maps data coordinates onto the plot rectangle: x from `x_lo` to `x_hi`, y from
    0 to 1.05 times the highest mean + ci95 of `rows`, with `y_ticks` along it."""

    def __init__(self, rows: Sequence[SummaryRow], x_lo: float, x_hi: float):
        y_hi = max(r.mean_steps + r.ci95 for r in rows) * 1.05
        if not all(abs(v) <= MAX_AXIS for v in (x_lo, x_hi, y_hi)):
            raise PolySearchError(f"team sizes or mean steps pass {MAX_AXIS:g}, too large to chart")
        if 0 < x_hi - x_lo < MIN_SPAN or 0 < y_hi < MIN_SPAN:
            raise PolySearchError(f"team sizes or mean steps span less than {MIN_SPAN:g}, too small to chart")
        self.x_lo, self.x_hi = x_lo, x_hi if x_hi > x_lo else x_lo + 1.0  # one value spans a unit, as in _ticks
        self.y_hi, self.y_ticks = y_hi if y_hi > 0 else 1.0, _ticks(0.0, y_hi)
        self.left, self.right = MARGIN_L, WIDTH - MARGIN_R
        self.top, self.bottom = MARGIN_T, HEIGHT - MARGIN_B

    def x(self, v: float) -> float:
        f = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return round(self.left + f * (self.right - self.left), 2)

    def y(self, v: float) -> float:
        return round(self.bottom - v / self.y_hi * (self.bottom - self.top), 2)


def _svg(
    title: str, frame: _Frame, x_label: str, x_ticks: Sequence[float],
    body: list[str], keys: Sequence[tuple[str, str]],
) -> str:
    """A whole chart: the header and title, the axes, the chart's own `body`,
    a legend line per (strategy, intruder) in `keys`, and the closing tag."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{_text(title)}</text>'
        )
    for t in frame.y_ticks:
        y = frame.y(t)
        parts.append(
            f'<line x1="{frame.left}" y1="{y}" x2="{frame.right}" y2="{y}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{frame.left - 8}" y="{y + 4}" text-anchor="end">{_fmt_tick(t)}</text>'
        )
    for t in x_ticks:
        x = frame.x(t)
        parts.append(
            f'<line x1="{x}" y1="{frame.bottom}" x2="{x}" y2="{frame.bottom + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x}" y="{frame.bottom + 18}" text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    parts.append(
        f'<line x1="{frame.left}" y1="{frame.bottom}" x2="{frame.right}" y2="{frame.bottom}" stroke="#333"/>'
    )
    parts.append(
        f'<line x1="{frame.left}" y1="{frame.top}" x2="{frame.left}" y2="{frame.bottom}" stroke="#333"/>'
    )
    parts.append(
        f'<text x="{(frame.left + frame.right) / 2}" y="{HEIGHT - 14}" text-anchor="middle">{_text(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(frame.top + frame.bottom) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(frame.top + frame.bottom) / 2})">{_text(Y_LABEL)}</text>'
    )
    parts += body
    x0 = WIDTH - MARGIN_R + 16
    for i, (strategy, intruder) in enumerate(keys):
        y = MARGIN_T + 10 + 18 * i
        color = PALETTE.get(strategy, "#333")
        dash = DASHES.get(intruder, "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{x0}" y1="{y}" x2="{x0 + 26}" y2="{y}" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        parts.append(f'<text x="{x0 + 32}" y="{y + 4}">{_text(f"{strategy} / {intruder}")}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def line_plot(rows: Sequence[SummaryRow], title: str = "") -> str:
    """Mean steps against team size, one line per strategy and intruder.

    The shaded band around each line is the 95 percent confidence interval
    of the mean over captured trials.
    """
    usable = _usable(rows)
    series: dict[tuple[str, str], list[SummaryRow]] = {}
    for row in usable:
        series.setdefault((row.strategy, row.intruder), []).append(row)
    for pts in series.values():
        pts.sort(key=lambda r: r.k)

    xs = [r.k for r in usable]
    frame = _Frame(usable, min(xs), max(xs))
    parts = []
    for key, pts in series.items():
        color = PALETTE.get(key[0], "#333")
        band = [(frame.x(r.k), frame.y(r.mean_steps + r.ci95)) for r in pts]
        band += [(frame.x(r.k), frame.y(max(r.mean_steps - r.ci95, 0.0))) for r in reversed(pts)]
        band_path = " ".join(f"{x},{y}" for x, y in band)
        parts.append(
            f'<polygon class="band" points="{band_path}" fill="{color}" fill-opacity="0.15" stroke="none"/>'
        )
        line_path = " ".join(f"{frame.x(r.k)},{frame.y(r.mean_steps)}" for r in pts)
        dash = DASHES.get(key[1], "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline class="line" points="{line_path}" fill="none" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        for r in pts:
            parts.append(
                f'<circle cx="{frame.x(r.k)}" cy="{frame.y(r.mean_steps)}" r="2.5" fill="{color}"/>'
            )
    return _svg(title, frame, X_LABEL, _ticks(min(xs), max(xs)), parts, list(series))


def bar_chart(rows: Sequence[SummaryRow], title: str = "") -> str:
    """Grouped bars of mean steps, with confidence whiskers.

    Categories are instances, team sizes, or both, depending on which of
    the two actually varies across the rows.
    """
    usable = _usable(rows)
    instances = {r.instance for r in usable}
    ks = {r.k for r in usable}
    if len(instances) > 1 and len(ks) > 1:
        label = lambda r: f"{r.instance} k={r.k}"
    elif len(ks) > 1:
        label = lambda r: f"k={r.k}"
    else:
        label = lambda r: r.instance
    cats = list(dict.fromkeys(map(label, usable)))
    series: dict[tuple[str, str], dict[str, SummaryRow]] = {}
    for row in usable:
        series.setdefault((row.strategy, row.intruder), {})[label(row)] = row

    frame = _Frame(usable, 0.0, float(len(cats)))
    parts = []
    slot = (frame.right - frame.left) / len(cats)
    bar_w = slot * 0.8 / max(len(series), 1)
    for ci, cat in enumerate(cats):
        cx = frame.left + slot * (ci + 0.5)
        parts.append(
            f'<text x="{round(cx, 2)}" y="{frame.bottom + 18}" text-anchor="middle">{_text(cat)}</text>'
        )
        for si, (key, by_cat) in enumerate(series.items()):
            row = by_cat.get(cat)
            if row is None:
                continue
            x = cx - slot * 0.4 + si * bar_w
            y = frame.y(row.mean_steps)
            color = PALETTE.get(key[0], "#333")
            parts.append(
                f'<rect class="bar" x="{round(x, 2)}" y="{y}" width="{round(bar_w, 2)}" '
                f'height="{round(frame.bottom - y, 2)}" fill="{color}" '
                f'fill-opacity="{1.0 if row.intruder == "static" else 0.55}"/>'
            )
            if row.ci95 > 0:
                wx = round(x + bar_w / 2, 2)
                y0 = frame.y(row.mean_steps - row.ci95)
                y1 = frame.y(row.mean_steps + row.ci95)
                parts.append(
                    f'<line x1="{wx}" y1="{y0}" x2="{wx}" y2="{y1}" stroke="#222" stroke-width="1"/>'
                )
    return _svg(title, frame, "", [], parts, list(series))
