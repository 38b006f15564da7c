"""CSV file formats.

Matrix CSV: no header, one row per ambient dimension, comma-separated
decimal fields, LF line endings.  Floats are written with ``repr`` so a
load/save round trip is bit-exact.  Labels and indices files hold one
integer per line.  Lines starting with ``#`` are comments and skipped
by every loader.

Files are UTF-8 text; a line that is not is a ParseError naming it.
Reading and writing stream line by line: beyond the matrix itself, a
load or save holds one line or row of text at a time in each process.
A large matrix file is parsed in contiguous line spans, one per worker
(``samplers._workers``): the first by the calling process, each other
by a child made with ``os.fork`` that sends its rows down a pipe into
the result; the array is the serial parse's, bit for bit, and any
irregularity falls back to the serial parse, which names the line.
Every text output, report CSVs included, goes through ``write_lines``:
the comment echo as '#' lines, then the lines, to a path or an open
stream.
"""

from __future__ import annotations

import io as _stdio
import itertools
import os
import signal
import struct
from contextlib import closing, suppress

import numpy as np

from . import samplers
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
    """Write a matrix in the no-header CSV format."""
    D = as_matrix(D)
    lines = (",".join(map(repr, row.tolist())) for row in D)
    write_lines(path, lines, comment)


def load_csv(path) -> np.ndarray:
    """Read a matrix CSV; raises ParseError/ShapeError on bad content.

    A large file is parsed in line spans, one per worker (``_line_spans``),
    the first here and each other in a forked child (``_load_spans``): the
    array is the serial parse's, bit for bit, and any irregularity falls
    back to the serial parse, which names the line.
    """
    edges = _line_spans(path)
    D = None if edges is None else _load_spans(path, edges)
    return _load_serial(path) if D is None else D


def _loadtxt(numbered, linenos: list):
    """``np.loadtxt`` over the texts of (line number, text) rows, appending
    each line number to ``linenos``; None when there are none."""
    first = next(numbered, None)
    if first is None:
        # loadtxt only warns on an empty input
        return None

    def texts():
        for lineno, text in itertools.chain([first], numbered):
            linenos.append(lineno)
            yield text

    return np.loadtxt(texts(), delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _load_serial(path) -> np.ndarray:
    linenos = []
    with closing(_data_lines(path)) as numbered:
        try:
            D = _loadtxt(numbered, linenos)
        except ValueError:
            # a ragged row or a field loadtxt cannot read: the line loop,
            # on a second read, names the line, and also takes the fields
            # only float() accepts (``1_0``)
            with closing(_data_lines(path)) as again:
                return _parse_rows(again)
    if D is None:
        raise ParseError(1, "empty matrix file")
    bad = np.flatnonzero(~np.isfinite(D).all(axis=1))
    if bad.size:
        raise ParseError(linenos[bad[0]], "non-finite value")
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


def _threads() -> int:
    """The threads this process runs as the OS counts them, native ones
    (a BLAS pool, say) included; 0 where the OS does not tell."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _line_spans(path) -> list | None:
    """Offsets 0 = e0 < e1 < ... < ek, the file's size, of k >= 2 spans of
    whole lines, one per worker (``samplers._workers``) and at most one
    per ``_SPAN_BYTES``, each but the first starting at the first line
    start from i/k of the file on; None when the file is to be parsed in
    one piece.

    A file is split only when ``os.fork`` exists and this process runs one
    thread, as the OS counts them, and one BLAS thread: a child forked
    from a process with other threads can deadlock on a lock one of them
    held.
    """
    k = samplers._workers()
    if k < 2 or not hasattr(os, "fork") or _threads() != 1 or samplers._blas_threads() > 1:
        return None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        k = min(k, size // _SPAN_BYTES)
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
    return edges + [size] if len(edges) > 1 else None


def _load_spans(path, edges: list) -> np.ndarray | None:
    """The rows of each line span [a, b) of ``edges`` in order: the first
    parsed here, each other in a forked child that sends its shape, then
    its rows, down a pipe, read straight into the result.  Beyond the
    result, each process holds at most the rows of its own span.  None,
    once every child is reaped, on any irregularity: a bad line, a span
    with no data, widths that differ, a non-finite value, or a failed
    fork, pipe or child."""
    pipes, pids = [], []
    try:
        for span in zip(edges[1:-1], edges[2:]):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _span_child(w, path, span)
                pids.append(pid)
            finally:
                os.close(w)
        first = _span_rows(path, (0, edges[1]))
        shapes = [first.shape]
        for pipe in pipes:
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
        for pipe, (rows, _) in zip(pipes, shapes[1:]):
            view = memoryview(D[at : at + rows]).cast("B")
            if pipe.readinto(view) < len(view):
                return None
            at += rows
        while pids:
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                return None
        return D
    except (ParseError, ValueError, OSError):
        return None
    finally:
        # children are left only when this process raised, a child failed
        # or the spans disagree; one may be gone already if SIGCHLD is
        # ignored
        for pid in pids:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _span_child(fd: int, path, span) -> None:
    """In a forked child: write the shape, then the rows, of a line span
    to the pipe ``fd``, and exit 0; exit 1 on any failure.  Never returns,
    so the child runs none of its caller's code, flushes no inherited
    buffer and runs no exit handler."""
    status = 1
    try:
        D = _span_rows(path, span)
        with open(fd, "wb") as out:
            out.write(struct.pack("qq", *D.shape))
            out.write(memoryview(D).cast("B"))
        status = 0
    finally:
        os._exit(status)


def _span_rows(path, span) -> np.ndarray:
    """The rows of a line span, parsed as the serial path parses them;
    ValueError when it has no data line or a value that is not finite."""
    with closing(_data_lines(path, span)) as numbered:
        D = _loadtxt(numbered, [])
    if D is None or not np.isfinite(D).all():
        raise ValueError("no data, or a non-finite value")
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
