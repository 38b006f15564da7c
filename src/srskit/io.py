"""CSV file formats.

Matrix CSV: no header, one row per ambient dimension, comma-separated
decimal fields, LF line endings.  Floats are written with ``repr`` so a
load/save round trip is bit-exact.  Labels and indices files hold one
integer per line.  Lines starting with ``#`` are comments and skipped
by every loader.

Files are UTF-8 text; a line that is not is a ParseError naming it.
Reading and writing stream line by line: beyond the matrix itself, a
load or save holds one line or row of text at a time.  Every text
output, report CSVs included, goes through ``write_lines``: the
comment echo as '#' lines, then the lines, to a path or an open stream.
"""

from __future__ import annotations

import itertools
from contextlib import closing

import numpy as np

from .errors import ParseError, ShapeError
from .matrix import ClusterLabels, SketchResult, as_matrix


def comment_block(comment: str | None) -> str:
    """``comment`` as '#' lines, one per line of it ('' for none)."""
    if not comment:
        return ""
    return "".join(f"# {part}\n" for part in comment.splitlines())


def write_lines(out, lines, comment: str | None = None) -> None:
    """Write ``comment`` as '#' lines, then each of ``lines`` ending in LF.

    ``out`` is a path, opened as UTF-8 with LF newlines, or an open text
    stream, which is left open.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_lines(fh, lines, comment)
        return
    out.write(comment_block(comment))
    for line in lines:
        out.write(line)
        out.write("\n")


def numbered_lines(path):
    """Yield (1-based line number, line) of a UTF-8 text file.

    Newlines are universal, as with ``open``.  Raises ParseError at the
    first line that is not UTF-8.
    """
    # undecodable bytes come through as lone surrogates, caught per line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(lineno, "not UTF-8 text") from None
            yield lineno, raw


def _is_data(line: str) -> bool:
    """Whether a line holds data: it is neither blank nor a '#' comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _data_lines(path):
    """Yield (1-based line number, stripped text) skipping comments/blanks."""
    for lineno, raw in numbered_lines(path):
        text = raw.rstrip("\n").rstrip("\r")
        if _is_data(text):
            yield lineno, text


def save_csv(D: np.ndarray, path, comment: str | None = None) -> None:
    """Write a matrix in the no-header CSV format."""
    D = as_matrix(D)
    lines = (",".join(map(repr, row.tolist())) for row in D)
    write_lines(path, lines, comment)


def load_csv(path) -> np.ndarray:
    """Read a matrix CSV; raises ParseError/ShapeError on bad content."""
    linenos = []

    def texts(numbered):
        for lineno, text in numbered:
            linenos.append(lineno)
            yield text

    with closing(_data_lines(path)) as numbered:
        first = next(numbered, None)
        if first is None:
            # loadtxt only warns on an empty input
            raise ParseError(1, "empty matrix file")
        try:
            D = np.loadtxt(
                texts(itertools.chain([first], numbered)),
                delimiter=",",
                comments=None,
                dtype=np.float64,
                ndmin=2,
            )
        except ValueError:
            # a ragged row or a field loadtxt cannot read: the line loop,
            # on a second read, names the line, and also takes the fields
            # only float() accepts (``1_0``)
            with closing(_data_lines(path)) as again:
                return _parse_rows(again)
    bad = np.flatnonzero(~np.isfinite(D).all(axis=1))
    if bad.size:
        raise ParseError(linenos[bad[0]], "non-finite value")
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
    write_lines(path, (str(int(v)) for v in labels.values), comment)


def load_labels(path, n_clusters: int | None = None) -> ClusterLabels:
    """Read a labels CSV (one zero-based cluster id per line).

    When ``n_clusters`` is given, any id outside 0..n_clusters-1 is a
    ParseError; otherwise the cluster count is inferred as max id + 1.
    """
    if n_clusters is not None and n_clusters < 1:
        raise ShapeError("n_clusters must be >= 1")
    values = _load_ints(path, "labels", "cluster id", n_clusters)
    s = n_clusters if n_clusters is not None else int(values.max()) + 1
    return ClusterLabels(values, s)


def save_indices(result: SketchResult, path, comment: str | None = None) -> None:
    """Write sampled column indices, one per line, in selection order."""
    write_lines(path, (str(int(i)) for i in result.indices), comment)


def load_indices(path) -> np.ndarray:
    return _load_ints(path, "indices", "column index")


def _load_ints(path, kind: str, noun: str, limit: int | None = None) -> np.ndarray:
    """One non-negative integer per data line, each below ``limit`` if given
    and below 2**63 in any case.

    ``kind`` names the file and ``noun`` a value in the ParseErrors.  The
    lines after the leading comments go through one ``np.loadtxt``, which
    reads a strict subset of what ``int()`` reads.  A file it cannot read
    (a later comment, say), or with a value out of range, is read again by
    the line loop, which raises at the first bad line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            first = next(filter(_is_data, fh), None)
            if first is not None:
                values = np.loadtxt(itertools.chain([first], fh), dtype=np.int64,
                                    comments=None, ndmin=2)
                ok = values >= 0
                if limit is not None:
                    ok &= values < limit
                if values.shape[1] == 1 and ok.all():
                    return values.ravel()
    except ValueError:  # UnicodeDecodeError too
        pass
    values = []
    with closing(_data_lines(path)) as numbered:
        for lineno, text in numbered:
            try:
                v = int(text.strip())
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            if v < 0:
                raise ParseError(lineno, f"negative {noun} {v}")
            if limit is not None and v >= limit:
                raise ParseError(lineno, f"{noun} {v} out of range 0..{limit - 1}")
            if v >= 1 << 63:
                raise ParseError(lineno, f"{noun} {v} does not fit 64 bits")
            values.append(v)
    if not values:
        raise ParseError(1, f"empty {kind} file")
    return np.array(values, dtype=np.int64)
