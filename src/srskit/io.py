"""CSV file formats.

Matrix CSV: no header, one row per ambient dimension, comma-separated
decimal fields, LF line endings.  Floats are written with ``repr`` so a
load/save round trip is bit-exact.  Labels and indices files hold one
integer per line.  Lines starting with ``#`` are comments and skipped
by every loader.

Files are UTF-8 text; a line that is not is a ParseError naming it.
Reading and writing stream line by line.  A large matrix file is parsed
in line spans, and a large matrix formatted in row spans, one per worker
(``samplers._workers``): the first by the calling process, each other
by a forked child (``_Forks``) that sends its rows, or its lines, down a
pipe.  The array and the bytes are the serial ones.  Beyond the matrix,
a child holds its own span's rows or text, and the calling process one
line or row of text at a time.
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
from contextlib import AbstractContextManager, closing, suppress
from functools import partial

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
    """Write a matrix in the no-header CSV format.

    A large matrix is formatted in row spans (``_split``) of 2 rows and
    about ``_SPAN_VALUES`` values or more, the first here and each other
    in a forked child (``_csv_lines``); the bytes are the serial ones.
    """
    D = as_matrix(D)
    k = _split(min(len(D) // 2, D.size // _SPAN_VALUES))
    edges = [len(D) * i // k for i in range(k + 1)]
    with _Forks(list(zip(edges[1:-1], edges[2:])), partial(_send_lines, D)) as kids:
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


# The least values in a span when save_csv formats a matrix in row spans.
# Measured on 2 CPUs (1 BLAS thread, two spans against one, alternating):
# matrices of 10,000 values or fewer lost 13 of 15 pairs or more; 15,000
# to 25,000 won 8 of 15 to 20 of 20; from 32,800 on the split won 12 of 15
# to 20 of 20, at 0.55 to 0.86 of the serial time.
_SPAN_VALUES = 1 << 14


def _threads() -> int:
    """The threads this process runs as the OS counts them, native ones
    (a BLAS pool, say) included; 0 where the OS does not tell."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _split(parts: int) -> int:
    """The spans to load or save in: ``parts`` or the workers
    (``samplers._workers``), the fewer, if the process may fork, else 1.
    It may when ``os.fork`` exists, OpenBLAS runs one thread and, with the
    ``samplers._map_spans`` pool ended, the OS counts one thread: a child
    forked from a threaded process can deadlock on a lock another held."""
    k = min(samplers._workers(), parts)
    if k < 2 or not hasattr(os, "fork") or samplers._blas_threads() > 1:
        return 1
    samplers._end_pool()
    return k if _threads() == 1 else 1


def _line_spans(path) -> list | None:
    """Offsets 0 = e0 < e1 < ... < ek, the file's size, of k >= 2 spans of
    whole lines, one per worker (``samplers._workers``) and at most one
    per ``_SPAN_BYTES``, each but the first starting at the first line
    start from i/k of the file on; None when the file is to be parsed in
    one piece (see ``_split``)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        k = _split(size // _SPAN_BYTES)
        if k < 2:
            return None
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
    its rows, down a pipe (``_send_rows``), read straight into the result.
    Beyond the result, each process holds at most the rows of its own
    span.  None, once every child is reaped, on any irregularity: a bad
    line, a span with no data, widths that differ, a non-finite value, or
    a failed fork, pipe or child."""
    spans = list(zip(edges[1:-1], edges[2:]))
    try:
        with _Forks(spans, partial(_send_rows, path)) as kids:
            if len(kids.pipes) < len(spans):
                return None
            first = _span_rows(path, (0, edges[1]))
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
            return D if kids.reaped() else None
    except (ParseError, ValueError, OSError):
        return None


class _Forks(AbstractContextManager):
    """A child forked per span runs ``child(out, span)``, ``out`` writing
    to a pipe of its own, and leaves through ``os._exit``, 0 once ``child``
    returns, so it runs none of its caller's code and flushes no inherited
    buffer.  ``pipes`` holds the read ends in span order, fewer if a pipe
    or fork fails.  Leaving the ``with`` block kills and reaps every child
    not yet reaped and closes the pipes."""

    def __init__(self, spans, child):
        self.pipes, self.pids = [], []
        for span in spans:
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                status = 1
                try:
                    # left open on a failure until the exit, so a parent
                    # that sees the pipe end reaps the exit status
                    out = open(fds[1], "wb")
                    child(out, span)
                    out.close()
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds[1])
            self.pids.append(pid)
            self.pipes.append(open(fds[0], "rb"))

    def reaped(self) -> bool:
        """Wait for every child, each done sending; whether all exited 0."""
        ok = True
        while self.pids:
            ok &= os.waitpid(self.pids[0], 0)[1] == 0
            del self.pids[0]
        return ok

    def __exit__(self, *exc):
        # children are left only when this process raised or a load gave
        # up; one may be gone already if SIGCHLD is ignored
        for pid in self.pids:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in self.pipes:
            pipe.close()


def _send_rows(path, out, span) -> None:
    """In a forked child: send the shape, then the rows, of a line span to
    ``out``."""
    D = _span_rows(path, span)
    out.write(struct.pack("qq", *D.shape))
    out.write(memoryview(D).cast("B"))


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
