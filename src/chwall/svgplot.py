"""Tiny dependency-free SVG emitter for run diagnostics.

Polyline plots (optionally with a log-scaled y axis) and log-log scatter
plots with a fitted line.  Purposely minimal: enough for energy histories,
decay curves and the exponent-probe scatter, nothing more.
"""

import math

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _transform(vals, log):
    out = []
    for v in vals:
        if log:
            out.append(math.log10(v) if v > 0 else float("nan"))
        else:
            out.append(float(v))
    return out


def _finite(xs, ys):
    return [(x, y) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)]


def _axis_ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlog, ylog):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
        ]
        self.xlabel, self.ylabel = xlabel, ylabel
        self.xlog, self.ylog = xlog, ylog
        self.bounds = None

    def set_bounds(self, xs, ys):
        pts = _finite(xs, ys)
        if not pts:
            pts = [(0.0, 0.0), (1.0, 1.0)]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        if self.bounds:
            oxlo, oxhi, oylo, oyhi = self.bounds
            xlo, xhi = min(xlo, oxlo), max(xhi, oxhi)
            ylo, yhi = min(ylo, oylo), max(yhi, oyhi)
        if xhi == xlo:
            xhi = xlo + 1.0
        if yhi == ylo:
            yhi = ylo + max(abs(ylo) * 1e-3, 1e-12)
        self.bounds = (xlo, xhi, ylo, yhi)

    def _to_px(self, x, y):
        xlo, xhi, ylo, yhi = self.bounds
        px = _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)
        py = _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)
        return px, py

    def axes(self):
        xlo, xhi, ylo, yhi = self.bounds
        self.parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>'
        )
        for t in _axis_ticks(xlo, xhi):
            px, _ = self._to_px(t, ylo)
            label = f"1e{t:.0f}" if self.xlog else f"{t:g}"
            self.parts.append(
                f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                f'y2="{_H - _MB + 5}" stroke="#444"/>'
                f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )
        for t in _axis_ticks(ylo, yhi):
            _, py = self._to_px(xlo, t)
            label = f"1e{t:.0f}" if self.ylog else f"{t:g}"
            self.parts.append(
                f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" '
                f'stroke="#444"/>'
                f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )
        self.parts.append(
            f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{self.xlabel}</text>'
            f'<text x="16" y="{_H / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {_H / 2})">{self.ylabel}</text>'
        )

    def polyline(self, xs, ys, color, label=None, idx=0):
        pts = _finite(xs, ys)
        if len(pts) >= 2:
            coords = " ".join(
                f"{px:.2f},{py:.2f}" for px, py in (self._to_px(x, y) for x, y in pts)
            )
            self.parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        if label:
            y0 = _MT + 16 + 16 * idx
            self.parts.append(
                f'<line x1="{_W - _MR - 120}" y1="{y0 - 4}" x2="{_W - _MR - 95}" '
                f'y2="{y0 - 4}" stroke="{color}" stroke-width="2"/>'
                f'<text x="{_W - _MR - 90}" y="{y0}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )

    def dots(self, xs, ys, color):
        for x, y in _finite(xs, ys):
            px, py = self._to_px(x, y)
            self.parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>'
            )

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts))


def line_plot(path, xs, series, title="", xlabel="", ylabel="", ylog=False):
    """series: mapping label -> y values (shared x)."""
    cv = _Canvas(title, xlabel, ylabel, False, ylog)
    txs = _transform(xs, False)
    tseries = {k: _transform(v, ylog) for k, v in series.items()}
    for ys in tseries.values():
        cv.set_bounds(txs, ys)
    cv.axes()
    for i, (label, ys) in enumerate(tseries.items()):
        cv.polyline(txs, ys, _COLORS[i % len(_COLORS)], label=label, idx=i)
    cv.save(path)


def scatter_plot(path, xs, ys, fit, title="", xlabel="", ylabel=""):
    """Log-log scatter with the fitted line fit = (slope, intercept) in
    log10 coordinates."""
    cv = _Canvas(title, xlabel, ylabel, True, True)
    txs = _transform(xs, True)
    tys = _transform(ys, True)
    cv.set_bounds(txs, tys)
    cv.axes()
    cv.dots(txs, tys, _COLORS[0])
    slope, intercept = fit
    pts = [p for p in txs if math.isfinite(p)]
    if pts:
        x0, x1 = min(pts), max(pts)
        cv.polyline([x0, x1],
                    [intercept + slope * x0, intercept + slope * x1],
                    _COLORS[1], label=f"slope {slope:.3f}", idx=0)
    cv.save(path)
