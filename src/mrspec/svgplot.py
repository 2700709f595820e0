"""Minimal self-contained SVG emission for line, band and panel-grid plots.

Hand-rolled so that outputs are byte-deterministic; CSV remains the source
of truth, the SVG is a courtesy rendering."""

import numpy as np

__all__ = ["line_plot", "band_plot", "panel_grid"]

_WIDTH, _HEIGHT = 640, 420  # a line or band plot
_PANEL_WIDTH, _PANEL_HEIGHT = 260, 200  # one panel of a grid

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _fmt(v):
    return "%.3f" % v


def _text(x, y, size, body, attrs):
    """A <text> element at the coordinate strings x, y; ``attrs`` follow the font size."""
    return '<text x="%s" y="%s" font-size="%d" %s>%s</text>' % (x, y, size, attrs, body)


class _Frame:
    def __init__(self, x, ys, width, height, pad=45.0):
        ys = [np.asarray(y, float) for y in ys]
        finite = np.concatenate([y[np.isfinite(y)] for y in ys] + [np.zeros(0)])
        self.x0, self.x1 = float(np.min(x)), float(np.max(x))
        if len(finite):
            self.y0, self.y1 = float(np.min(finite)), float(np.max(finite))
        else:
            self.y0, self.y1 = 0.0, 1.0
        if self.y1 - self.y0 < 1e-12:
            self.y0 -= 0.5
            self.y1 += 0.5
        if self.x1 - self.x0 < 1e-12:
            self.x1 = self.x0 + 1.0
        self.w, self.h, self.pad = width, height, pad

    def px(self, x):
        return self.pad + (x - self.x0) / (self.x1 - self.x0) * (self.w - 2 * self.pad)

    def py(self, y):
        return self.h - self.pad - (y - self.y0) / (self.y1 - self.y0) * (self.h - 2 * self.pad)

    def points(self, x, y):
        """The "x,y" pairs of an SVG points list, three decimals each, with
        ``px`` and ``py`` mapped over the float arrays and one format for all."""
        xy = np.column_stack([self.px(x), self.py(y)])
        return " ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist())

    def polyline(self, x, y, color, width=1.2):
        y = np.asarray(y, float)
        keep = np.isfinite(y)
        pts = self.points(np.asarray(x, float)[keep], y[keep])
        return '<polyline fill="none" stroke="%s" stroke-width="%.1f" points="%s"/>' % (
            color, width, pts)

    def polygon(self, x, lo, hi, color, opacity=0.25):
        x = np.asarray(x, float)
        pts = self.points(np.concatenate([x, x[::-1]]),
                          np.concatenate([np.asarray(lo, float), np.asarray(hi, float)[::-1]]))
        return '<polygon fill="%s" fill-opacity="%.2f" stroke="none" points="%s"/>' % (
            color, opacity, pts)

    def axes(self, title="", xlabel="", ylabel=""):
        parts = [
            '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="#333"/>'
            % (_fmt(self.pad), _fmt(self.pad), _fmt(self.w - 2 * self.pad), _fmt(self.h - 2 * self.pad))
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            parts.append(_text(_fmt(self.px(xv)), _fmt(self.h - self.pad + 14), 10,
                               "%.4g" % xv, 'text-anchor="middle"'))
            parts.append(_text(_fmt(self.pad - 4), _fmt(self.py(yv) + 3), 10,
                               "%.4g" % yv, 'text-anchor="end"'))
        if title:
            parts.append(_text(_fmt(self.w / 2), "16", 12, title, 'text-anchor="middle"'))
        if xlabel:
            parts.append(_text(_fmt(self.w / 2), _fmt(self.h - 6), 11, xlabel,
                               'text-anchor="middle"'))
        if ylabel:
            parts.append(_text("14", _fmt(self.h / 2), 11, ylabel,
                               'text-anchor="middle" transform="rotate(-90 14 %s)"'
                               % _fmt(self.h / 2)))
        return parts


def _document(width, height, body):
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def line_plot(path, x, curves, labels=None, vline=None, title="", ylabel=""):
    """Write a multi-curve line plot against omega; ``vline`` draws a dashed
    vertical marker."""
    x = np.asarray(x, float)
    curves = [np.asarray(c, float) for c in curves]
    frame = _Frame(x, curves, _WIDTH, _HEIGHT)
    body = frame.axes(title, "omega", ylabel)
    if vline is not None:
        body.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#d62728" '
            'stroke-dasharray="5,4"/>'
            % (_fmt(frame.px(vline)), _fmt(frame.pad), _fmt(frame.px(vline)), _fmt(_HEIGHT - frame.pad))
        )
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(frame.polyline(x, curve, color))
        if labels:
            body.append(_text(_fmt(_WIDTH - frame.pad + 4), _fmt(frame.pad + 12 * (i + 1)), 10,
                              labels[i], 'fill="%s"' % color))
    _write(path, _document(_WIDTH, _HEIGHT, body))


def band_plot(path, x, mean, bands, title="", ylabel=""):
    """Write a mean curve against omega with shaded central bands ({level: (lo, hi)})."""
    x = np.asarray(x, float)
    frame = _Frame(x, [mean] + [b[i] for b in bands.values() for i in (0, 1)], _WIDTH, _HEIGHT)
    body = frame.axes(title, "omega", ylabel)
    for level in sorted(bands, reverse=True):
        lo, hi = bands[level]
        body.append(frame.polygon(x, lo, hi, "#1f77b4", opacity=0.18 + 0.12 * level))
    body.append(frame.polyline(x, mean, "#1f77b4", width=1.6))
    _write(path, _document(_WIDTH, _HEIGHT, body))


def panel_grid(path, panels, ncols, title=""):
    """Write a grid of small line-plot panels.

    ``panels`` is a list of (panel_title, x, curves) triples laid out
    row-major with ``ncols`` columns."""
    nrows = (len(panels) + ncols - 1) // ncols
    width = ncols * _PANEL_WIDTH
    height = nrows * _PANEL_HEIGHT + (24 if title else 0)
    body = []
    if title:
        body.append(_text(_fmt(width / 2), "16", 13, title, 'text-anchor="middle"'))
    y_off = 24 if title else 0
    for idx, (ptitle, x, curves) in enumerate(panels):
        row, col = divmod(idx, ncols)
        frame = _Frame(np.asarray(x, float), [np.asarray(c, float) for c in curves],
                       _PANEL_WIDTH, _PANEL_HEIGHT, pad=32.0)
        inner = frame.axes(ptitle)
        for i, curve in enumerate(curves):
            inner.append(frame.polyline(x, curve, _PALETTE[i % len(_PALETTE)], width=1.0))
        body.append(
            '<g transform="translate(%s %s)">\n%s\n</g>'
            % (_fmt(col * _PANEL_WIDTH), _fmt(row * _PANEL_HEIGHT + y_off), "\n".join(inner))
        )
    _write(path, _document(width, height, body))


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
