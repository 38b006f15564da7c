"""CSV file formats.

Matrix CSV: no header, one row per ambient dimension, comma-separated
decimal fields, LF line endings.  Floats are written with ``repr`` so a
load/save round trip is bit-exact.  Labels and indices files hold one
integer per line.  Lines starting with ``#`` are comments and skipped
by every loader.

Files are UTF-8 text; a line that is not is a ParseError naming it.
Reading and writing stream line by line.  A large matrix file is parsed,
and a large matrix formatted, in spans across forked children (see
``_parallel``), with the array and the bytes of one span; a bad line
falls back to a line loop that names it.  Every text output, report
CSVs and SVG plots included, goes through ``write_lines``: the comment
echo as '#' lines, then the lines, to a path or an open stream.
"""

from __future__ import annotations

import io as _stdio
import itertools
import os
import struct
from contextlib import closing
from functools import partial

import numpy as np

from . import _parallel
from .errors import ParseError, ShapeError
from .matrix import ClusterLabels, SketchResult, as_matrix


def write_lines(out, lines, comment: str | None = None) -> None:
    """Write ``comment`` as '#' lines, then each of ``lines`` ending in LF.

    ``out`` is a path, opened as UTF-8 with LF newlines, or an open text
    stream, which is left open.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_lines(fh, lines, comment)
        return
    if comment:
        out.writelines(f"# {part}\n" for part in comment.splitlines())
    for line in lines:
        out.write(line)
        out.write("\n")


class _SpanFile(_stdio.FileIO):
    """Bytes [start, stop) of a file, read as if they were all of it."""

    def __init__(self, path, start: int, stop: int):
        super().__init__(path)
        self.seek(start)
        self._left = stop - start

    def readinto(self, buffer):
        n = super().readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n


def numbered_lines(path, span=None):
    """Yield (1-based line number, line) of a UTF-8 text file, or of the
    lines in bytes [a, b) of it for ``span=(a, b)``, numbered from the
    line at a.

    Newlines are universal, as with ``open``.  Raises ParseError at the
    first line that is not UTF-8.
    """
    binary = _stdio.FileIO(path) if span is None else _SpanFile(path, *span)
    # undecodable bytes come through as lone surrogates, caught per line
    with _stdio.TextIOWrapper(_stdio.BufferedReader(binary), encoding="utf-8",
                              errors="surrogateescape") as fh:
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


def _data_lines(path, span=None):
    """Yield (1-based line number, stripped text) skipping comments/blanks."""
    for lineno, raw in numbered_lines(path, span):
        text = raw.rstrip("\n").rstrip("\r")
        if _is_data(text):
            yield lineno, text


def save_csv(D: np.ndarray, path, comment: str | None = None) -> None:
    """Write a matrix in the no-header CSV format.

    A large matrix is formatted in row spans of 2 rows and about
    ``_SPAN_VALUES`` values or more (``_parallel.split``), the first here
    and each other in a forked child; the bytes are the serial ones.
    """
    D = as_matrix(D)
    k = _parallel.split(min(len(D) // 2, D.size // _SPAN_VALUES))
    edges = [len(D) * i // k for i in range(k + 1)]
    spans = list(zip(edges[1:-1], edges[2:]))
    with _parallel.Forks(spans, partial(_send_lines, D)) as kids:
        parts = itertools.zip_longest(zip(edges, edges[1:]), [None, *kids.pipes])
        lines = (line for (a, b), pipe in parts for line in _csv_lines(D[a:b], pipe))
        write_lines(path, lines, comment)
        kids.reaped()  # each child has sent its lines or failed


def _csv_lines(D, pipe=None):
    """Yield the CSV line of each row of ``D``, its LF left out: the line a
    child sends down ``pipe`` (``_send_lines``), read one at a time, or,
    from the first row it did not send whole on, the line formatted here."""
    for row in D:
        line = b"" if pipe is None else pipe.readline()
        if line.endswith(b"\n"):
            yield line[:-1].decode("ascii")
        else:
            yield ",".join(map(repr, row.tolist()))


def _send_lines(D, out, span) -> None:
    """In a forked child: send the CSV lines of the rows [a, b) = ``span``
    of ``D`` to ``out``, each ending in LF, once all are formatted, so the
    formatting never waits for the parent to read."""
    lines = [line + "\n" for line in _csv_lines(D[span[0] : span[1]])]
    out.writelines(line.encode("ascii") for line in lines)


def load_csv(path) -> np.ndarray:
    """Read a matrix CSV; raises ParseError/ShapeError on bad content.

    The file is parsed by ``np.loadtxt`` in line spans (``_line_spans``),
    the first here and each other in a forked child (``_load_spans``); a
    small file is one span.  The array is the one-span parse's, bit for
    bit: a split that fails is parsed again as one span, and bad content
    falls back to the line loop (``_parse_rows``), which names the line.
    """
    edges = _line_spans(path)
    D = _load_spans(path, edges)
    if D is None and len(edges) > 2:
        D = _load_spans(path, [0, edges[-1]])
    if D is None:
        # a bad line, or a field only float() reads (``1_0``)
        with closing(_data_lines(path)) as numbered:
            return _parse_rows(numbered)
    return D


# The least bytes in a span when load_csv parses a matrix file in line
# spans: a file is cut into at most one span per _SPAN_BYTES, so it is
# split from 2 x _SPAN_BYTES on.  Measured with two spans only, on 2 CPUs
# (1 BLAS thread, alternating pairs of serial and split loads of 100-row
# files): spans of 0.1-0.15 MB lost, as a fork, the child's start and its
# exit cost about 3 ms; spans of 0.25-0.5 MB won 7 to 54 of 60 pairs,
# varying from run to run; from 0.55 MB they won most runs by 48 to 58 of
# 60, at 0.7 to 0.9 of the serial time, and 5.5 MB spans at 0.6 to 0.75.
_SPAN_BYTES = 1 << 19


# The least values in a span when save_csv formats a matrix in row spans.
# Measured on 2 CPUs (1 BLAS thread, two spans against one, alternating):
# matrices of 10,000 values or fewer lost 13 of 15 pairs or more; 15,000
# to 25,000 won 8 of 15 to 20 of 20; from 32,800 on the split won 12 of 15
# to 20 of 20, at 0.55 to 0.86 of the serial time.
_SPAN_VALUES = 1 << 14


def _line_spans(path) -> list:
    """Offsets 0 = e0 < e1 < ... < ek, the file's size, of k spans of whole
    lines, one per worker and at most one per ``_SPAN_BYTES``, each but
    the first starting at the first line start from i/k of the file on;
    [0, size] when the file is to be parsed in one piece (see
    ``_parallel.split``)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        k = _parallel.split(size // _SPAN_BYTES)
        edges = [0]
        for i in range(1, k):
            # a line start is 0 or just after a LF, alone or in a CRLF
            fh.seek(max(edges[-1], size * i // k - 1))
            for part in iter(lambda: fh.readline(1 << 16), b""):
                if part.endswith(b"\n"):
                    break
            if fh.tell() == size:
                break
            edges.append(fh.tell())
    return edges + [size]


def _load_spans(path, edges: list) -> np.ndarray | None:
    """The rows of each line span [a, b) of ``edges`` in order: the first
    parsed here, each other in a forked child that sends its shape, then
    its rows, down a pipe (``_send_rows``), read straight into the result.
    Beyond the result, each process holds at most the rows of its own
    span.  None, once every child is reaped, on any irregularity: a bad
    line, a span with no data, widths that differ, a non-finite value (the
    result's one check, ``as_matrix``), or a failed fork, pipe or child."""
    spans = list(zip(edges[1:-1], edges[2:]))
    try:
        with _parallel.Forks(spans, partial(_send_rows, path)) as kids:
            if len(kids.pipes) < len(spans):
                return None
            first = _span_rows(path, (0, edges[1]))
            if not spans:
                return as_matrix(first)
            shapes = [first.shape]
            for pipe in kids.pipes:
                head = pipe.read(16)
                if len(head) < 16:
                    return None
                shapes.append(struct.unpack("qq", head))
            if len({cols for _, cols in shapes}) > 1:
                return None
            D = np.empty((sum(rows for rows, _ in shapes), shapes[0][1]))
            at = len(first)
            D[:at] = first
            del first
            for pipe, (rows, _) in zip(kids.pipes, shapes[1:]):
                view = memoryview(D[at : at + rows]).cast("B")
                if pipe.readinto(view) < len(view):
                    return None
                at += rows
            return as_matrix(D) if kids.reaped() else None
    except (ParseError, ShapeError, ValueError, OSError):
        return None


def _send_rows(path, out, span) -> None:
    """In a forked child: send the shape, then the rows, of a line span to
    ``out``."""
    D = _span_rows(path, span)
    out.write(struct.pack("qq", *D.shape))
    out.write(memoryview(D).cast("B"))


def _span_rows(path, span) -> np.ndarray:
    """The rows of a line span, parsed by one ``np.loadtxt``; ShapeError
    when it has no data line."""
    with closing(_data_lines(path, span)) as numbered:
        first = next(numbered, None)
        if first is None:  # loadtxt only warns on an empty input
            raise ShapeError("no data line")
        texts = (text for _, text in itertools.chain([first], numbered))
        return np.loadtxt(texts, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


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
    if not rows:
        raise ParseError(1, "empty matrix file")
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
