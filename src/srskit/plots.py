"""Minimal SVG writers for experiment reports.

Output is plain hand-assembled SVG with fixed formatting so repeated
runs produce byte-identical files.  Config echoes go into an XML
comment right after the opening tag, since SVG has no '#' comments.
"""

from __future__ import annotations

import re

import numpy as np

from .analysis import ExperimentReport, per_cluster_means, per_x_summary
from .io import write_lines

WIDTH = 640
HEIGHT = 420
MARGIN_L = 64
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 48

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# characters XML 1.0 forbids anywhere in a document
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# html.escape's table without its import, which loads html.entities (0.4 MB)
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _text(x, y, text, size, attrs="", tail="") -> str:
    """A ``<text>`` at (x, y), ``attrs`` before its font and ``tail`` after."""
    return (f'<text x="{x}" y="{y}" {attrs}font-family="sans-serif" '
            f'font-size="{size}"{tail}>{str(text).translate(_ESCAPES)}</text>')


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def _ticks(lo: float, hi: float, count: int = 5):
    return np.linspace(lo, hi, count).tolist()


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str, comment=None):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        ]
        if comment:
            # characters XML forbids are spelled out (as \x01); '--' may
            # not occur in an XML comment, and one pass leaves some of a
            # longer run of dashes, so repeat until none is left
            safe = _XML_FORBIDDEN.sub(lambda m: ascii(m[0])[1:-1], str(comment))
            while "--" in safe:
                safe = safe.replace("--", "- -")
            self.parts.append(f"<!-- {safe} -->")
        mid = 'text-anchor="middle" '
        self.parts += [
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            _text(WIDTH // 2, 24, title, 15, mid),
            _text(WIDTH // 2, HEIGHT - 10, xlabel, 12, mid),
            _text(16, HEIGHT // 2, ylabel, 12, mid,
                  f' transform="rotate(-90 16 {HEIGHT // 2})"'),
        ]
        self.x0, self.x1 = MARGIN_L, WIDTH - MARGIN_R
        self.y0, self.y1 = HEIGHT - MARGIN_B, MARGIN_T

    def scale(self, xlo, xhi, ylo, yhi):
        self.xlo, self.xhi = float(xlo), float(xhi)
        self.ylo, self.yhi = float(ylo), float(yhi)
        if self.xhi <= self.xlo:
            self.xhi = self.xlo + 1.0
        if self.yhi <= self.ylo:
            self.yhi = self.ylo + 1.0

    def px(self, x: float) -> float:
        t = (x - self.xlo) / (self.xhi - self.xlo)
        return self.x0 + t * (self.x1 - self.x0)

    def py(self, y: float) -> float:
        t = (y - self.ylo) / (self.yhi - self.ylo)
        return self.y0 + t * (self.y1 - self.y0)

    def axes(self, x_ticks, y_ticks, x_labels=None):
        x0, y0, p = self.x0, self.y0, self.parts
        p += [_line(x0, y0, self.x1, y0), _line(x0, y0, x0, self.y1)]
        labels = x_labels or [_axis_label(v) for v in x_ticks]
        for v, lab in zip(x_ticks, labels):
            x = _fmt(self.px(v))
            p += [_line(x, y0, x, y0 + 4),
                  _text(x, y0 + 18, lab, 11, 'text-anchor="middle" ')]
        for v in y_ticks:
            y = _fmt(self.py(v))
            p += [_line(x0 - 4, y, x0, y),
                  _text(x0 - 8, y, _axis_label(v), 11,
                        'text-anchor="end" dominant-baseline="middle" ')]

    def legend(self, labels):
        for i, label in enumerate(labels):
            color = PALETTE[i % len(PALETTE)]
            y = MARGIN_T + 14 * i
            self.parts.append(
                f'<rect x="{self.x1 - 130}" y="{y}" width="10" height="10" '
                f'fill="{color}"/>'
            )
            self.parts.append(_text(self.x1 - 115, y + 9, label, 11))

    def finish(self, path):
        self.parts.append("</svg>")
        write_lines(path, self.parts)


def _axis_label(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.3g}"


def line_plot_svg(series, path, title="", xlabel="", ylabel="", comment=None):
    """Write one polyline per (label, xs, ys) triple."""
    canvas = _Canvas(title, xlabel, ylabel, comment)
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    canvas.scale(min(all_x), max(all_x), 0.0, max(all_y) * 1.05)
    canvas.axes(_ticks(canvas.xlo, canvas.xhi), _ticks(canvas.ylo, canvas.yhi))
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{_fmt(canvas.px(x))},{_fmt(canvas.py(y))}" for x, y in zip(xs, ys)
        )
        canvas.parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
    canvas.legend([label for label, _, _ in series])
    canvas.finish(path)


def bar_plot_svg(group_labels, series, path, title="", xlabel="", ylabel="",
                 comment=None):
    """Grouped bars: one bar per (method, group) pair.

    series is a list of (label, values) with one value per group.
    """
    canvas = _Canvas(title, xlabel, ylabel, comment)
    n_groups = len(group_labels)
    top = max(max(vals) for _, vals in series)
    canvas.scale(0.0, float(n_groups), 0.0, top * 1.05)
    centers = [i + 0.5 for i in range(n_groups)]
    canvas.axes(
        centers,
        _ticks(canvas.ylo, canvas.yhi),
        x_labels=[str(g) for g in group_labels],
    )
    n_series = len(series)
    slot = 0.8 / n_series
    for i, (label, vals) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        for g, v in enumerate(vals):
            left = canvas.px(g + 0.1 + i * slot)
            right = canvas.px(g + 0.1 + (i + 1) * slot)
            y = canvas.py(float(v))
            canvas.parts.append(
                f'<rect x="{_fmt(left)}" y="{_fmt(y)}" '
                f'width="{_fmt(right - left)}" '
                f'height="{_fmt(canvas.y0 - y)}" fill="{color}"/>'
            )
    canvas.legend([label for label, _ in series])
    canvas.finish(path)


def _methods(report: ExperimentReport) -> list:
    """The report's methods in order of first appearance."""
    return list(dict.fromkeys(row[1] for row in report.rows))


def rank_curve_svg(report: ExperimentReport, path, comment=None):
    """Median rank versus sketch size, one line per method."""
    series = []
    for method in _methods(report):
        summary = per_x_summary(report, method)
        xs = sorted(summary)
        series.append((method, xs, [summary[x][0] for x in xs]))
    line_plot_svg(
        series,
        path,
        title="sketch rank vs size",
        xlabel="columns sampled",
        ylabel="numerical rank (median)",
        comment=comment,
    )


def coverage_svg(report: ExperimentReport, n_clusters: int, path, comment=None):
    """Mean per-cluster sample count, grouped bars per method."""
    series = [
        (m, list(per_cluster_means(report, m, n_clusters)))
        for m in _methods(report)
    ]
    bar_plot_svg(
        list(range(n_clusters)),
        series,
        path,
        title="samples per cluster",
        xlabel="cluster",
        ylabel="mean count",
        comment=comment,
    )
