"""Minimal self-contained SVG charts: bars, lines, grouped bars, heatmap.

CSV files are the contract; these renderings are a convenience and carry no
dependency on a plotting runtime. All output is deterministic.
"""
import math
import sys

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 60
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd")
_HUGE = 2.0 ** 1020  # a range within +-_HUGE keeps its width and padding finite
_TINY = 5e-324  # the least positive float


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]


def _axes(parts: list, x_label: str, y_label: str) -> None:
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{(x0 + x1) / 2}" y="{_H - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{x_label}</text>')
    parts.append(f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {(y0 + y1) / 2})">{y_label}</text>')


def _unit_map(lo: float, hi: float, pad: float = 0.0):
    """v -> (v - lo') / (hi' - lo') on [lo', hi'], the range lo <= hi widened
    at both ends by pad times its width, for any finite lo and hi. A range
    of width 0 maps v - lo'. Past 2^1020, where the width could overflow,
    the map works on quarters: v / 4 on the range's quarter."""
    s = 1.0 if max(abs(lo), abs(hi)) < _HUGE else 0.25
    lo, hi = lo * s, hi * s
    margin = pad * (hi - lo)
    lo, hi = lo - margin, hi + margin
    span = hi - lo or 1.0
    return lambda v: (v * s - lo) / span


def _yticks(parts: list, lo: float, hi: float, to_py) -> None:
    """Ticks at the multiples of one step (1 or 2 x 10^k, a quarter to a
    twentieth of the span) in [lo, hi], for any finite lo <= hi: a step that
    underflows is the least power of ten, a span past the float range is
    taken on quarters, and a tick that a step cannot advance is the last."""
    # a single value spans 1, or 2^-40 of itself past 2^40, where 1 is lost
    span = hi - lo or max(1.0, abs(lo) * 2.0 ** -40)
    quarter = span / 4.0 if span < math.inf else hi / 4.0 - lo / 4.0
    step = 10.0 ** max(math.floor(math.log10(max(quarter, _TINY))), -323)
    if span / step > 8:
        step *= 2
    tick = math.ceil(lo / step) * step
    end = min(hi + 1e-12 * span, sys.float_info.max)
    while tick <= end:
        y = to_py(tick)
        parts.append(f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{tick:g}</text>')
        if tick + step == tick:
            break
        tick += step


def _scale(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    unit = _unit_map(lo, hi, 0.05)

    def to_py(v):
        return (_H - _MB) - unit(v) * (_H - _MB - _MT)

    return to_py


def bar_chart(labels, values, title: str, y_label: str) -> str:
    finite = [v for v in values if math.isfinite(v)]
    lo = min(0.0, min(finite, default=0.0))
    hi = max(finite, default=1.0)
    to_py = _scale(lo, hi)
    parts = _header(title)
    _axes(parts, "", y_label)
    _yticks(parts, lo, hi, to_py)
    n = len(labels)
    slot = (_W - _ML - _MR) / max(n, 1)
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _ML + i * slot + 0.15 * slot
        color = _PALETTE[i % len(_PALETTE)]
        if math.isfinite(value):
            y = to_py(value)
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(0.7 * slot)}" '
                         f'height="{_fmt((_H - _MB) - y)}" fill="{color}"/>')
        else:
            parts.append(f'<text x="{_fmt(x + 0.35 * slot)}" y="{_MT + 20}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="11" fill="{color}">unstable</text>')
        parts.append(f'<text x="{_fmt(x + 0.35 * slot)}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(x_values, series, title: str, x_label: str, y_label: str) -> str:
    """series: list of (label, y_values)."""
    ys = [y for _, yy in series for y in yy if math.isfinite(y)]
    to_py = _scale(min(ys, default=0.0), max(ys, default=1.0))
    xs_lo, xs_hi = min(x_values), max(x_values)
    unit = _unit_map(xs_lo, xs_hi)

    def to_px(v):
        return _ML + unit(v) * (_W - _ML - _MR)

    parts = _header(title)
    _axes(parts, x_label, y_label)
    _yticks(parts, min(ys, default=0.0), max(ys, default=1.0), to_py)
    for i, (label, yy) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{_fmt(to_px(x))},{_fmt(to_py(y))}"
                          for x, y in zip(x_values, yy) if math.isfinite(y))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     'stroke-width="2"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 125}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 120}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    for x in (xs_lo, xs_hi):
        parts.append(f'<text x="{_fmt(to_px(x))}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{x:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grouped_bar_chart(group_labels, series, title: str, y_label: str) -> str:
    """series: list of (label, values), one value per group."""
    vals = [v for _, vv in series for v in vv if math.isfinite(v)]
    lo = min(0.0, min(vals, default=0.0))
    hi = max(vals, default=1.0)
    to_py = _scale(lo, hi)
    parts = _header(title)
    _axes(parts, "", y_label)
    _yticks(parts, lo, hi, to_py)
    n_groups = len(group_labels)
    slot = (_W - _ML - _MR) / max(n_groups, 1)
    width = 0.8 * slot / max(len(series), 1)
    for s, (label, vv) in enumerate(series):
        color = _PALETTE[s % len(_PALETTE)]
        for g, value in enumerate(vv):
            if not math.isfinite(value):
                continue
            x = _ML + g * slot + 0.1 * slot + s * width
            y = to_py(value)
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" '
                         f'height="{_fmt((_H - _MB) - y)}" fill="{color}"/>')
        ly = _MT + 16 + 16 * s
        parts.append(f'<rect x="{_W - _MR - 150}" y="{ly - 10}" width="12" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 133}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    for g, label in enumerate(group_labels):
        parts.append(f'<text x="{_fmt(_ML + (g + 0.5) * slot)}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap(row_values, col_values, matrix, title: str, x_label: str, y_label: str) -> str:
    """Filled-cell rendering of a matrix (rows bottom-to-top)."""
    flat = [v for row in matrix for v in row if math.isfinite(v)]
    lo, hi = min(flat, default=0.0), max(flat, default=1.0)
    unit = _unit_map(lo, hi)
    n_rows, n_cols = len(row_values), len(col_values)
    cw = (_W - _ML - _MR) / n_cols
    ch = (_H - _MT - _MB) / n_rows
    parts = _header(title)
    _axes(parts, x_label, y_label)
    for i in range(n_rows):
        for j in range(n_cols):
            v = matrix[i][j]
            t = 0.0 if not math.isfinite(v) else unit(v)
            r = int(255 * t)
            b = int(255 * (1.0 - t))
            g = int(64 + 128 * (1.0 - abs(2 * t - 1)))
            x = _ML + j * cw
            y = (_H - _MB) - (i + 1) * ch
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw + 0.5)}" '
                         f'height="{_fmt(ch + 0.5)}" fill="rgb({r},{g},{b})"/>')
    parts.append(f'<text x="{_ML}" y="{_H - _MB + 16}" font-family="sans-serif" '
                 f'font-size="10">{col_values[0]:g}</text>')
    parts.append(f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{col_values[-1]:g}</text>')
    parts.append(f'<text x="{_ML - 6}" y="{_H - _MB}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{row_values[0]:g}</text>')
    parts.append(f'<text x="{_ML - 6}" y="{_MT + 10}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{row_values[-1]:g}</text>')
    parts.append(f'<text x="{_W - _MR - 120}" y="{_MT + 16}" font-family="sans-serif" '
                 f'font-size="10">low {lo:.4g} / high {hi:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
