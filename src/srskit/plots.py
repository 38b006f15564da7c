"""Minimal SVG writers for experiment reports.

Output is plain hand-assembled SVG with fixed formatting so repeated
runs produce byte-identical files.  Config echoes go into an XML
comment right after the opening tag, since SVG has no '#' comments.
"""

from __future__ import annotations

import numpy as np

from .analysis import ExperimentReport, per_cluster_means, per_x_summary

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


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, count)
    return [float(v) for v in raw]


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str, comment=None):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        ]
        if comment:
            # '--' may not occur in an XML comment; one pass leaves some
            # of a longer run of dashes, so repeat until none is left
            safe = str(comment)
            while "--" in safe:
                safe = safe.replace("--", "- -")
            self.parts.append(f"<!-- {safe} -->")
        self.parts.append(
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
        )
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT // 2})">{_escape(ylabel)}</text>'
        )
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
        p = self.parts
        p.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x1}" '
            f'y2="{self.y0}" stroke="black"/>'
        )
        p.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x0}" '
            f'y2="{self.y1}" stroke="black"/>'
        )
        labels = x_labels or [_axis_label(v) for v in x_ticks]
        for v, lab in zip(x_ticks, labels):
            x = _fmt(self.px(v))
            p.append(
                f'<line x1="{x}" y1="{self.y0}" x2="{x}" '
                f'y2="{self.y0 + 4}" stroke="black"/>'
            )
            p.append(
                f'<text x="{x}" y="{self.y0 + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_escape(lab)}</text>'
            )
        for v in y_ticks:
            y = _fmt(self.py(v))
            p.append(
                f'<line x1="{self.x0 - 4}" y1="{y}" x2="{self.x0}" '
                f'y2="{y}" stroke="black"/>'
            )
            p.append(
                f'<text x="{self.x0 - 8}" y="{y}" text-anchor="end" '
                f'dominant-baseline="middle" font-family="sans-serif" '
                f'font-size="11">{_axis_label(v)}</text>'
            )

    def legend(self, labels):
        for i, label in enumerate(labels):
            color = PALETTE[i % len(PALETTE)]
            y = MARGIN_T + 14 * i
            self.parts.append(
                f'<rect x="{self.x1 - 130}" y="{y}" width="10" height="10" '
                f'fill="{color}"/>'
            )
            self.parts.append(
                f'<text x="{self.x1 - 115}" y="{y + 9}" '
                f'font-family="sans-serif" font-size="11">'
                f"{_escape(label)}</text>"
            )

    def finish(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(self.parts) + "\n")


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


def rank_curve_svg(report: ExperimentReport, path, comment=None):
    """Median rank versus sketch size, one line per method."""
    methods = []
    for row in report.rows:
        if row[1] not in methods:
            methods.append(row[1])
    series = []
    for method in methods:
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
    methods = []
    for row in report.rows:
        if row[1] not in methods:
            methods.append(row[1])
    series = [
        (m, list(per_cluster_means(report, m, n_clusters))) for m in methods
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
