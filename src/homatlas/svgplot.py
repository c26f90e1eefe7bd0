"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: a fixed canvas, a fixed palette, explicit tick
placement, and stable float formatting, so that identical inputs
produce byte-identical files.  A point is drawn when x and y are not
None and, on a log axis, y > 0; every other point splits its series'
polyline into segments.  The axis extents come from the drawn points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

__all__ = ["Series", "line_chart", "save_svg"]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 84, 24, 48, 56


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple
    marker: bool = False


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _segments(series, logy):
    """Per series, its runs of drawable points in chart coordinates,
    with y taken as log10 y on a log axis."""
    out = []
    for s in series:
        runs, run = [], []
        for x, y in zip(s.xs, s.ys):
            if x is None or y is None or (logy and not y > 0.0):
                if run:
                    runs.append(run)
                    run = []
            else:
                run.append((float(x), math.log10(y) if logy else float(y)))
        if run:
            runs.append(run)
        out.append(runs)
    return out


def _extent(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, n=6):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_chart(series, title="", xlabel="", ylabel="", logy=False) -> str:
    """Render series as an SVG document string."""
    runs = _segments(series, logy)
    pts = [p for s_runs in runs for run in s_runs for p in run]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    x_lo, x_hi = _extent([p[0] for p in pts])
    y_lo, y_hi = _extent([p[1] for p in pts])
    px_w = _W - _ML - _MR
    px_h = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * px_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">'
        f"{escape(title, quote=False)}</text>",
    ]
    axis = (
        f'<path d="M {_fmt(_ML)} {_fmt(_MT)} L {_fmt(_ML)} '
        f'{_fmt(_H - _MB)} L {_fmt(_W - _MR)} {_fmt(_H - _MB)}" '
        f'stroke="black" fill="none" stroke-width="1"/>'
    )
    out.append(axis)
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_H - _MB)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(_H - _MB + 5)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_H - _MB + 20}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        label = f"1e{_fmt(ty)}" if logy else _fmt(ty)
        out.append(
            f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_ML)}" y2="{_fmt(py)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">'
        f"{escape(xlabel, quote=False)}</text>"
    )
    out.append(
        f'<text x="20" y="{_H // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_H // 2})">'
        f"{escape(ylabel, quote=False)}</text>"
    )
    for idx, (s, s_runs) in enumerate(zip(series, runs)):
        color = _PALETTE[idx % len(_PALETTE)]
        segments = [[(sx(x), sy(y)) for x, y in run] for run in s_runs]
        for seg in segments:
            if len(seg) > 1:
                attr = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in seg)
                out.append(
                    f'<polyline points="{attr}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        for seg in segments:
            # isolated points would otherwise vanish, so they always
            # get a marker
            if s.marker or len(seg) == 1:
                for px, py in seg:
                    out.append(
                        f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                        f'r="3" fill="{color}"/>'
                    )
        ly = _MT + 16 * idx
        out.append(
            f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 106}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 100}" y="{ly + 4}" '
            f'font-family="sans-serif" font-size="11">'
            f"{escape(s.label, quote=False)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_svg(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
