"""CSV file formats.

Matrix CSV: no header, one row per ambient dimension, comma-separated
decimal fields, LF line endings.  Floats are written with ``repr`` so a
load/save round trip is bit-exact.  Labels and indices files hold one
integer per line.  Lines starting with ``#`` are comments and skipped
by every loader.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, ShapeError
from .matrix import ClusterLabels, SketchResult, as_matrix


def _write_lines(path, lines, comment: str | None):
    with open(path, "w", newline="\n") as fh:
        if comment:
            for part in comment.splitlines():
                fh.write(f"# {part}\n")
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _data_lines(path):
    """Yield (1-based line number, stripped text) skipping comments/blanks."""
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.rstrip("\n").rstrip("\r")
            if not text.strip() or text.lstrip().startswith("#"):
                continue
            yield lineno, text


def save_csv(D: np.ndarray, path, comment: str | None = None) -> None:
    """Write a matrix in the no-header CSV format."""
    D = as_matrix(D)
    lines = (",".join(map(repr, row)) for row in D.tolist())
    _write_lines(path, lines, comment)


def load_csv(path) -> np.ndarray:
    """Read a matrix CSV; raises ParseError/ShapeError on bad content."""
    numbered = list(_data_lines(path))
    if not numbered:
        raise ParseError(1, "empty matrix file")
    try:
        D = np.loadtxt(
            [text for _, text in numbered],
            delimiter=",",
            comments=None,
            dtype=np.float64,
            ndmin=2,
        )
    except ValueError:
        # a ragged row or a field loadtxt cannot read: the line loop names
        # the line, and also takes the fields only float() accepts (``1_0``)
        return _parse_rows(numbered)
    bad = np.flatnonzero(~np.isfinite(D).all(axis=1))
    if bad.size:
        raise ParseError(numbered[bad[0]][0], "non-finite value")
    return D


def _parse_rows(numbered) -> np.ndarray:
    """Parse (line number, text) rows field by field with ``float``."""
    rows = []
    width = None
    for lineno, text in numbered:
        fields = text.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ShapeError(
                f"line {lineno}: expected {width} fields, got {len(fields)}"
            )
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if not all(np.isfinite(row)):
            raise ParseError(lineno, "non-finite value")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def save_labels(labels: ClusterLabels, path, comment: str | None = None) -> None:
    _write_lines(path, (str(int(v)) for v in labels.values), comment)


def load_labels(path, n_clusters: int | None = None) -> ClusterLabels:
    """Read a labels CSV (one zero-based cluster id per line).

    When ``n_clusters`` is given, any id outside 0..n_clusters-1 is a
    ParseError; otherwise the cluster count is inferred as max id + 1.
    """
    values = []
    for lineno, text in _data_lines(path):
        try:
            v = int(text.strip())
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if v < 0:
            raise ParseError(lineno, f"negative cluster id {v}")
        if n_clusters is not None and v >= n_clusters:
            raise ParseError(
                lineno, f"cluster id {v} out of range 0..{n_clusters - 1}"
            )
        values.append(v)
    if not values:
        raise ParseError(1, "empty labels file")
    s = n_clusters if n_clusters is not None else max(values) + 1
    return ClusterLabels(np.array(values, dtype=np.int64), s)


def save_indices(result: SketchResult, path, comment: str | None = None) -> None:
    """Write sampled column indices, one per line, in selection order."""
    _write_lines(path, (str(int(i)) for i in result.indices), comment)


def load_indices(path) -> np.ndarray:
    indices = []
    for lineno, text in _data_lines(path):
        try:
            v = int(text.strip())
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if v < 0:
            raise ParseError(lineno, f"negative column index {v}")
        indices.append(v)
    if not indices:
        raise ParseError(1, "empty indices file")
    return np.array(indices, dtype=np.int64)
