import contextlib
import os
import subprocess
import sys
import threading
import time
import types
from io import BytesIO, StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srskit import _parallel, io
from srskit import (
    ClusterLabels,
    ParseError,
    ShapeError,
    SketchResult,
    load_csv,
    load_indices,
    load_labels,
    save_csv,
    save_indices,
    save_labels,
)


def test_matrix_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    D = rng.standard_normal((3, 2)) * np.pi
    path = tmp_path / "m.csv"
    save_csv(D, path)
    back = load_csv(path)
    assert back.shape == D.shape
    assert (back == D).all()


def test_matrix_file_format(tmp_path):
    path = tmp_path / "m.csv"
    save_csv(np.array([[1.5, 2.0], [0.25, -3.0]]), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "1.5,2.0"
    assert lines[1] == "0.25,-3.0"


def test_comment_lines_written_and_skipped(tmp_path):
    path = tmp_path / "m.csv"
    save_csv(np.eye(2), path, comment="run config here")
    text = path.read_text()
    assert text.startswith("# run config here\n")
    assert (load_csv(path) == np.eye(2)).all()


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# head\n1.0,2.0\n\n3.0\n")
    with pytest.raises(ShapeError, match="^line 4: "):
        load_csv(path)


def test_unparseable_field_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,zap\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 2


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,nan\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 1
    path.write_text("# head\n\n1.0,2.0\n# mid\n\n3.0,-inf\n4.0,nan\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 6


def test_fields_only_float_accepts(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1_0,2.5\n-1,\u0663\n")
    assert load_csv(path).tolist() == [[10.0, 2.5], [-1.0, 3.0]]


def test_all_comment_file_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# only\n\n  # comments\n")
    with pytest.raises(ParseError):
        load_csv(path)


@st.composite
def decorated_csv(draw):
    """A finite matrix and its repr CSV text, with comment lines, blank
    lines, CRLF endings and leading spaces mixed in."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    D = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    noise = st.sampled_from(["", "# c", "  # c,1.0", "   ", "\t"])
    parts = []
    for row in D.tolist():
        parts += draw(st.lists(noise, max_size=2))
        indent = " " * draw(st.integers(0, 2))
        parts.append(indent + ",".join(map(repr, row)))
    parts += draw(st.lists(noise, max_size=2))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(parts), max_size=len(parts)))
    return D, "".join(p + e for p, e in zip(parts, endings))


@settings(deadline=None)
@given(decorated_csv())
def test_load_csv_matches_line_loop(tmp_path_factory, case):
    D, text = case
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes(text.encode())
    got = load_csv(path)
    oracle = io._parse_rows(io._data_lines(path))
    assert got.shape == oracle.shape == D.shape
    assert got.tobytes() == oracle.tobytes() == D.tobytes()


def test_labels_round_trip(tmp_path):
    labels = ClusterLabels(np.array([0, 2, 1, 2]), 3)
    path = tmp_path / "l.csv"
    save_labels(labels, path)
    back = load_labels(path)
    assert (back.values == labels.values).all()
    assert back.n_clusters == 3


def test_labels_out_of_range(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0\n1\n3\n")
    with pytest.raises(ParseError) as info:
        load_labels(path, n_clusters=3)
    assert info.value.line == 3
    path.write_text("0\n-1\n")
    with pytest.raises(ParseError):
        load_labels(path)


def test_indices_round_trip(tmp_path):
    result = SketchResult(np.array([4, 0, 2]), np.eye(5)[:, [4, 0, 2]], "ris")
    path = tmp_path / "i.csv"
    save_indices(result, path, comment="cfg")
    idx = load_indices(path)
    assert list(idx) == [4, 0, 2]


def test_indices_reject_non_integer(tmp_path):
    path = tmp_path / "i.csv"
    path.write_text("1\n2.5\n")
    with pytest.raises(ParseError):
        load_indices(path)


def test_undecodable_line_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    for loader, first in ((load_csv, b"1.0,2.0\n"), (load_labels, b"0\n"),
                          (load_indices, b"3\n")):
        path.write_bytes(b"# caf\xc3\xa9 ok\n" + first + b"1.0,\xff\n")
        with pytest.raises(ParseError, match="^line 3: ") as info:
            loader(path)
        assert info.value.line == 3
    # a comment line is text too
    path.write_bytes(b"1.0,2.0\n# \xff\n3.0,4.0\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 2


def test_undecodable_line_after_a_bad_field(tmp_path):
    # the error named is the first in file order, whichever kind it is
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0,2.0\n1.0,zap\n\xff\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 2
    path.write_bytes(b"1_0,2.0\n1.0\xff,2.0\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 2


def test_utf8_text_with_any_newline(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes("# écho — 中\r\n1.5,2.0\r0.25,-3.0\n".encode())
    assert load_csv(path).tolist() == [[1.5, 2.0], [0.25, -3.0]]
    save_csv(np.eye(1), path, comment="é")
    assert path.read_bytes() == "# é\n1.0\n".encode()


def test_save_csv_memory_is_one_row(tmp_path, traced_peak):
    # formatting the whole matrix at once held every float as a Python
    # object and every line as a str: 63 MiB here
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    path = tmp_path / "m.csv"
    _, peak = traced_peak(save_csv, D, path)
    assert peak < 4 << 20
    assert (np.loadtxt(path, delimiter=",") == D).all()


def test_load_csv_memory_is_the_result(tmp_path, traced_peak):
    # keeping every data line as a str held 3.6 times the result
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    path = tmp_path / "m.csv"
    save_csv(D, path, comment="cfg")
    back, peak = traced_peak(load_csv, path)
    assert back.tobytes() == D.tobytes()
    assert peak < 1.5 * D.nbytes + (2 << 20)


@pytest.mark.parametrize("loader", [load_labels, load_indices])
def test_integer_beyond_64_bits_is_parse_error(tmp_path, loader):
    path = tmp_path / "ints.csv"
    path.write_text(f"# echo\n1\n{2**63}\n0\n")
    with pytest.raises(ParseError) as info:
        loader(path)
    assert info.value.line == 3
    path.write_text(f"1\n{2**63 - 1}\n")
    assert load_indices(path).tolist() == [1, 2**63 - 1]


def line_loop_ints(path, limit=None):
    """The integers of a labels or indices file, one int() per data line,
    or the ParseError's (line, message)."""
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            v = int(text)
        except ValueError as exc:
            return lineno, str(exc)
        if v < 0 or (limit is not None and v >= limit) or v >= 2**63:
            return lineno, None
        values.append(v)
    return values


# tokens loadtxt reads as int() does, and tokens only int() (or neither) reads
@pytest.mark.parametrize("token", [
    " 7 ", "+3", "-0", "007", "1.0", "1e3", "0x10", "1_0", "٣", str(2**63),
    "-4", "12", "3 4", "5 # note",
])
@pytest.mark.parametrize("limit", [None, 13])
def test_ints_read_as_int_does(tmp_path, token, limit):
    path = tmp_path / "ints.csv"
    for lines in ([token], ["2", token, "0"], ["# c", "2", "", token],
                  ["2", "# c", token], [" ", "\t# c", token, "7"]):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = line_loop_ints(path, limit)
        try:
            got = io._load_ints(path, "labels", "cluster id", limit)
        except ParseError as exc:
            assert isinstance(want, tuple), (lines, exc)
            line, message = want
            assert exc.line == line
            assert message is None or str(exc) == f"line {line}: {message}"
            continue
        assert got.dtype == np.int64
        assert got.tolist() == want, lines


@pytest.mark.parametrize("n_clusters", [0, -1])
def test_load_labels_needs_a_cluster_before_reading(tmp_path, n_clusters):
    # the file does not exist: the count is checked before it is opened
    with pytest.raises(ShapeError, match=r"^n_clusters must be >= 1$"):
        load_labels(tmp_path / "missing.csv", n_clusters=n_clusters)


# ---------------------------------------------------------------------------
# load_csv's and save_csv's splits: spans parsed or formatted in forked
# children


@contextlib.contextmanager
def forced_split(workers):
    """Make load_csv split a file of any size into ``workers`` spans, and
    save_csv a matrix of any size into up to ``workers`` spans of 2 rows or
    more; yields a record of the forks they make (``forks``) and of whether
    each load split into two spans or more gave the array (``splits``,
    False where it fell back).
    An earlier ``_parallel.map_spans`` split leaves no thread running; a
    process running native threads (a BLAS pool, say) would not fork, so
    there the test is skipped."""
    threads = _parallel.threads

    def settled(wait=5.0):
        # a thread just joined may stay in the OS's count for a moment
        deadline = time.monotonic() + wait
        while (n := threads()) > threading.active_count() and time.monotonic() < deadline:
            time.sleep(0.001)
        return n

    if settled(0.1) > threading.active_count():
        pytest.skip("the process runs native threads (set OPENBLAS_NUM_THREADS=1)")
    run = types.SimpleNamespace(forks=[], splits=[])
    fork, load_spans = os.fork, io._load_spans

    def counted():
        run.forks.append(1)
        return fork()

    def recorded(path, edges):
        D = load_spans(path, edges)
        if len(edges) > 2:
            run.splits.append(D is not None)
        return D

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_SPAN_BYTES", 1)
        mp.setattr(io, "_SPAN_VALUES", 1)
        mp.setattr(_parallel, "threads", settled)
        mp.setattr(_parallel, "workers", lambda: workers)
        mp.setattr(_parallel, "blas_threads", lambda: 1)
        mp.setattr(os, "fork", counted)
        mp.setattr(io, "_load_spans", recorded)
        yield run


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def load_or_error(path):
    """load_csv's array, or its error as (type, message, line)."""
    try:
        return load_csv(path)
    except (ParseError, ShapeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("workers", [2, 3])
@settings(deadline=None, max_examples=60)
@given(case=decorated_csv())
def test_split_load_matches_line_loop(tmp_path_factory, workers, case):
    D, text = case
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes(text.encode())
    oracle = io._parse_rows(io._data_lines(path))
    with forced_split(workers) as run:
        edges = io._line_spans(path)
        got = load_csv(path)
    # one child per span after the first
    assert len(run.forks) == (len(edges) - 2 if edges else 0)
    assert got.shape == oracle.shape == D.shape
    assert got.tobytes() == oracle.tobytes() == D.tobytes()
    assert no_child_left()


def test_split_load_runs_on_any_newline(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes("# é\r\n1.5,2.0\r0.25,-3.0\n\n4.0,5.0\r\n# c\n6.0,7.0\n".encode())
    with forced_split(3) as run:
        got = load_csv(path)
    assert len(run.forks) == 2 and run.splits == [True]
    assert got.tobytes() == io._load_spans(path, [0, path.stat().st_size]).tobytes()
    assert got.tolist() == [[1.5, 2.0], [0.25, -3.0], [4.0, 5.0], [6.0, 7.0]]


@pytest.mark.parametrize("bad", [b"1.0", b"1.0,zap", b"1.0,\xff", b"nan,1.0"],
                         ids=["ragged", "bad-field", "not-utf8", "nan"])
@pytest.mark.parametrize("where", [1, 6], ids=["parent-span", "child-span"])
def test_split_load_errors_name_the_serial_line(tmp_path, bad, where):
    lines = [b"# echo"] + [b"%d.5,2.0" % i for i in range(6)]
    lines.insert(where + 1, bad)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    want = load_or_error(path)
    assert isinstance(want, tuple) and want[2] in (None, where + 2)
    with forced_split(2) as run:
        edges = io._line_spans(path)
        got = load_or_error(path)
    assert len(run.forks) == 1 and run.splits == [False]
    # the bad line lies in the span named
    bad_at = path.read_bytes().index(bad + b"\n")
    assert (bad_at < edges[1]) == (where == 1)
    assert got == want
    assert no_child_left()


def test_split_load_falls_back_when_a_child_fails(tmp_path, monkeypatch):
    D = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "m.csv"
    save_csv(D, path)
    parent, span_rows, waitpid, statuses = os.getpid(), io._span_rows, os.waitpid, []

    def raising(path, span):
        if os.getpid() != parent:
            raise RuntimeError("the child's parse failed")
        return span_rows(path, span)

    def recorded(pid, options):
        got = waitpid(pid, options)
        statuses.append(got[1])
        return got

    monkeypatch.setattr(io, "_span_rows", raising)
    monkeypatch.setattr(os, "waitpid", recorded)
    with forced_split(2) as run:
        got = load_csv(path)
    assert len(run.forks) == 1 and run.splits == [False]
    # the child left through os._exit(1) in its finally, not by raising
    assert [os.waitstatus_to_exitcode(s) for s in statuses] == [1]
    assert got.tobytes() == D.tobytes()
    assert no_child_left()


def test_a_failed_split_goes_straight_to_the_line_loop(tmp_path, monkeypatch):
    # it was parsed again as one span first: a bad file was parsed three times
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.5,2.0\n3.5,4.0\n5.5,6.0\n1.0,zap\n")
    spans, load_spans = [], io._load_spans
    monkeypatch.setattr(io, "_load_spans",
                        lambda path, edges: spans.append(edges) or load_spans(path, edges))
    with forced_split(2) as run, pytest.raises(ParseError, match="^line 4: "):
        load_csv(path)
    assert run.splits == [False] and len(spans) == 1
    assert no_child_left()


@pytest.mark.parametrize("head, tail", [
    # widths of their own; one field would broadcast over a row
    ("1.5,2.0\n", "1234567\n"),
    ("1.5,2.0\n3.5,4.0\n5.5,6.0\n", "1.0,2.0,3.0\n4.0,5.0,6.0\n"),
    # no data line
    ("1.5,2.0\n3.5,4.0\n5.5,6.0\n", "# one\n\n# two\n   \n# thre\n"),
], ids=["one-field", "wider", "comments-only"])
def test_split_load_falls_back_on_spans_that_disagree(tmp_path, head, tail):
    path = tmp_path / "m.csv"
    path.write_text(head + tail)
    want = load_or_error(path)
    with forced_split(2) as run:
        edges = io._line_spans(path)
        got = load_or_error(path)
    assert len(run.forks) == 1 and run.splits == [False]
    # the child's span is the tail, as long as the head
    assert edges == [0, len(head), len(head + tail)]
    if isinstance(want, tuple):
        assert want[0] is ShapeError
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()
    assert no_child_left()


def test_split_load_kills_its_children_when_interrupted(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    save_csv(np.arange(12.0).reshape(6, 2), path)
    parent, span_rows = os.getpid(), io._span_rows

    def interrupted(path, span):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return span_rows(path, span)

    monkeypatch.setattr(io, "_span_rows", interrupted)
    started = time.monotonic()
    with forced_split(2) as run, pytest.raises(KeyboardInterrupt):
        load_csv(path)
    assert len(run.forks) == 1
    assert time.monotonic() - started < 30
    assert no_child_left()


def test_split_load_needs_a_process_with_one_thread(tmp_path):
    D = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "m.csv"
    save_csv(D, path)
    with forced_split(2) as run:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "blas_threads", lambda: 2)
            got = load_csv(path)
        # a native thread, one Python does not know of
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "threads", lambda: 2)
            assert load_csv(path).tobytes() == got.tobytes()
    assert run.forks == [] and run.splits == []


def test_split_load_cuts_spans_of_span_bytes_or_more(tmp_path):
    D = np.arange(80.0).reshape(40, 2)
    path = tmp_path / "m.csv"
    save_csv(D, path)
    size = path.stat().st_size
    with forced_split(8) as run, pytest.MonkeyPatch.context() as mp:
        # at most one span per _SPAN_BYTES, however many workers
        for span_bytes, spans in [(size // 3, 3), (size // 2, 2), (size // 2 + 1, 1)]:
            mp.setattr(io, "_SPAN_BYTES", span_bytes)
            edges = io._line_spans(path)
            assert len(edges) - 1 == spans
            assert load_csv(path).tobytes() == D.tobytes()
    assert len(run.forks) == 3 and run.splits == [True, True]
    assert no_child_left()


def test_split_load_memory_is_the_result(tmp_path, traced_peak):
    # the bound of test_load_csv_memory_is_the_result, with the split forced
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    path = tmp_path / "m.csv"
    save_csv(D, path, comment="cfg")
    with forced_split(2) as run:
        back, peak = traced_peak(load_csv, path)
    assert len(run.forks) == 1 and run.splits == [True]
    assert back.tobytes() == D.tobytes()
    assert peak < 1.5 * D.nbytes + (2 << 20)


def serial_csv(D, comment=None):
    """save_csv's text formatted in one piece, through write_lines."""
    out = StringIO()
    io.write_lines(out, (",".join(map(repr, row)) for row in D.tolist()), comment)
    return out.getvalue()


def save_text(D, to_path, tmp_path, comment=None):
    """save_csv's text, written to a path or to an open text stream."""
    if not to_path:
        out = StringIO()
        save_csv(D, out, comment)
        return out.getvalue()
    path = tmp_path / "m.csv"
    save_csv(D, path, comment)
    return path.read_bytes().decode()


edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e16, -1e16, 1e-5, 0.1]),
)


@pytest.mark.parametrize("workers", [2, 3])
@settings(deadline=None, max_examples=40)
@given(D=st.integers(1, 8).flatmap(lambda rows: arrays(
    np.float64, (rows, 3), elements=edge_floats)), to_path=st.booleans())
@example(D=np.array([[-0.0, 5e-324, 1e16]]), to_path=True)
@example(D=np.array([[1e-5], [-2.5e-320]]), to_path=False)
@example(D=np.arange(12.0).reshape(6, 2) * 1e16, to_path=True)
def test_split_save_matches_write_lines(tmp_path_factory, workers, D, to_path):
    tmp_path = tmp_path_factory.mktemp("csv")
    with forced_split(workers) as run:
        got = save_text(D, to_path, tmp_path, comment="echo\nsecond")
    # one child per span after the first, and spans of 2 rows or more, so
    # with k > rows / 2 fewer spans, and with 1 or 3 rows none
    assert len(run.forks) == max(0, min(workers, len(D) // 2) - 1)
    assert got == serial_csv(D, "echo\nsecond")
    assert no_child_left()


def exit_codes(monkeypatch):
    """The exit codes of the children os.waitpid reaps, in order."""
    waitpid, codes = os.waitpid, []

    def recorded(pid, options):
        got = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(got[1]))
        return got

    monkeypatch.setattr(os, "waitpid", recorded)
    return codes


def test_split_save_formats_a_failed_childs_span(tmp_path, monkeypatch):
    D = np.random.default_rng(0).standard_normal((9, 4))
    parent, csv_lines = os.getpid(), io._csv_lines

    def raising(D, pipe=None):
        if os.getpid() != parent:
            raise RuntimeError("the child's formatting failed")
        return csv_lines(D, pipe)

    monkeypatch.setattr(io, "_csv_lines", raising)
    codes = exit_codes(monkeypatch)
    with forced_split(3) as run:
        got = save_text(D, True, tmp_path)
    assert len(run.forks) == 2
    # each child left through os._exit(1) in its finally, having sent nothing
    assert codes == [1, 1]
    assert got == serial_csv(D)
    assert no_child_left()


@pytest.mark.parametrize("cut", [0, 5, 1, 2, 3, -1],
                         ids=["nothing", "mid-line", "one-line", "one-line-and-a-byte",
                              "all", "all-but-the-last-lf"])
def test_split_save_completes_a_short_stream(tmp_path, monkeypatch, cut):
    D = np.random.default_rng(1).standard_normal((6, 5))
    send_lines = io._send_lines

    def short(D, out, span):
        whole = BytesIO()
        send_lines(D, whole, span)
        text = whole.getvalue()
        # 1 to 3: through the LF of that line, the next byte, all lines
        ends = [i + 1 for i, c in enumerate(text) if c == ord("\n")]
        out.write(text[:{1: ends[0], 2: ends[0] + 1, 3: len(text)}.get(cut, cut)])

    monkeypatch.setattr(io, "_send_lines", short)
    codes = exit_codes(monkeypatch)
    with forced_split(2) as run:
        got = save_text(D, False, tmp_path)
    # the child exited 0: the lines it sent whole are all that is used
    assert len(run.forks) == 1 and codes == [0]
    assert got == serial_csv(D)
    assert no_child_left()


def test_split_save_kills_its_children_when_interrupted(tmp_path, monkeypatch):
    parent, csv_lines = os.getpid(), io._csv_lines

    def interrupted(D, pipe=None):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return csv_lines(D, pipe)

    monkeypatch.setattr(io, "_csv_lines", interrupted)
    started = time.monotonic()
    with forced_split(2) as run, pytest.raises(KeyboardInterrupt):
        save_csv(np.arange(12.0).reshape(6, 2), tmp_path / "m.csv")
    assert len(run.forks) == 1
    assert time.monotonic() - started < 30
    assert no_child_left()


def test_split_save_needs_a_process_with_one_thread(tmp_path):
    D = np.arange(12.0).reshape(6, 2)
    with forced_split(2) as run:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "blas_threads", lambda: 2)
            assert save_text(D, True, tmp_path) == serial_csv(D)
        # a native thread, one Python does not know of
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "threads", lambda: 2)
            assert save_text(D, True, tmp_path) == serial_csv(D)
    assert run.forks == []


def test_split_save_memory_is_one_row(tmp_path, traced_peak):
    # the bound of test_save_csv_memory_is_one_row, with the split forced
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    path = tmp_path / "m.csv"
    with forced_split(2) as run:
        _, peak = traced_peak(save_csv, D, path)
    assert len(run.forks) == 1
    assert peak < 4 << 20
    assert (np.loadtxt(path, delimiter=",") == D).all()


def test_split_after_a_split_selection_pass(tmp_path):
    # a split selection pass joins its threads before it returns, so a
    # load or save right after it can fork
    D = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "m.csv"
    save_csv(D, path)
    X = np.zeros((8, 80_000))
    with forced_split(2) as run:
        for call in (lambda: load_csv(path).tobytes() == D.tobytes(),
                     lambda: save_text(D, False, tmp_path) == serial_csv(D)):
            forks = len(run.forks)
            assert len(_parallel.map_spans(lambda a, b: (a, b), X, 1000)) == 2
            assert threading.active_count() == 1
            assert call()
            assert len(run.forks) == forks + 1
            assert threading.active_count() == 1
    assert run.splits == [True]
    assert no_child_left()


def test_split_reads_the_thread_count_again_while_python_runs_one_thread(tmp_path):
    # the OS may count a thread for a moment after it is joined: a load in
    # a process where Python knows of no other thread reads the count again
    # until it reads 1, and loads in one piece if it never does
    D = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "m.csv"
    save_csv(D, path)
    X = np.zeros((8, 80_000))
    with forced_split(2) as run, pytest.MonkeyPatch.context() as mp:
        settled, reads = _parallel.threads, []

        def lagging():
            reads.append(1)
            return 2 if len(reads) <= 2 else settled()

        mp.setattr(_parallel, "threads", lagging)
        mp.setattr(_parallel, "SETTLE_S", 1.0)  # room for a slow host's sleeps
        assert len(_parallel.map_spans(lambda a, b: (a, b), X, 1000)) == 2
        assert load_csv(path).tobytes() == D.tobytes()
        assert len(reads) == 3
        assert run.forks == [1] and run.splits == [True]
        reads.clear()
        mp.setattr(_parallel, "threads", lambda: reads.append(1) or 2)
        mp.setattr(_parallel, "SETTLE_S", 0.05)
        assert load_csv(path).tobytes() == D.tobytes()
        assert len(reads) > 1 and run.forks == [1]
    assert no_child_left()


def test_a_failed_fork_falls_back(tmp_path):
    D = np.random.default_rng(2).standard_normal((6, 3))
    path = tmp_path / "m.csv"
    save_csv(D, path)
    with forced_split(3) as run, pytest.MonkeyPatch.context() as mp:
        counted = os.fork

        def second_fails():
            if run.forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return counted()

        mp.setattr(os, "fork", second_fails)
        # the load parses in one piece; the save formats the span it could
        # not fork for
        assert load_csv(path).tobytes() == D.tobytes()
        assert run.forks == [1] and run.splits == [False]
        run.forks.clear()
        assert save_text(D, False, tmp_path) == serial_csv(D)
        assert run.forks == [1]
    assert no_child_left()


def test_a_failed_child_is_reaped_not_killed(tmp_path, monkeypatch):
    # the child keeps its pipe open until it exits, so the parent, seeing
    # the pipe end, gets its exit status, however slow the exit
    D = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "m.csv"
    save_csv(D, path)
    parent, span_rows, exit_ = os.getpid(), io._span_rows, os._exit

    def raising(path, span):
        if os.getpid() != parent:
            raise RuntimeError("the child's parse failed")
        return span_rows(path, span)

    def slow_exit(status):
        time.sleep(0.2)
        exit_(status)

    monkeypatch.setattr(io, "_span_rows", raising)
    monkeypatch.setattr(os, "_exit", slow_exit)
    codes = exit_codes(monkeypatch)
    with forced_split(2) as run:
        assert load_csv(path).tobytes() == D.tobytes()
    assert run.splits == [False] and codes == [1]
    assert no_child_left()


def test_a_split_save_reaps_its_children(tmp_path, monkeypatch):
    # each child sends its lines and then exits slowly: the save waits for
    # every exit status, 0, instead of killing the children on leaving
    D = np.arange(12.0).reshape(6, 2)
    exit_ = os._exit

    def slow_exit(status):
        time.sleep(0.2)
        exit_(status)

    monkeypatch.setattr(os, "_exit", slow_exit)
    codes = exit_codes(monkeypatch)
    with forced_split(3) as run:
        assert save_text(D, True, tmp_path) == serial_csv(D)
    assert len(run.forks) == 2 and codes == [0, 0]
    assert no_child_left()


def test_a_python_thread_keeps_the_process_from_forking(tmp_path):
    # with a thread of its own running, the process may not fork: the
    # count of OS threads is read once, with no wait for it to settle
    D = np.arange(12.0).reshape(6, 2)
    X = np.zeros((8, 80_000))
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(30,))
    with forced_split(2) as run, pytest.MonkeyPatch.context() as mp:
        assert len(_parallel.map_spans(lambda a, b: (a, b), X, 1000)) == 2
        threads, reads = _parallel.threads, []
        mp.setattr(_parallel, "threads", lambda: reads.append(1) or threads())
        other.start()
        try:
            assert save_text(D, False, tmp_path) == serial_csv(D)
            assert reads == [1]
        finally:
            done.set()
            other.join(30)
    assert not other.is_alive() and run.forks == []


SAVE_SCRIPT = """
import os, sys
import numpy as np
from srskit import _parallel, io
io._SPAN_VALUES = 1
_parallel.workers = lambda: 2
_parallel.blas_threads = lambda: 1
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
# block-buffered, even under PYTHONUNBUFFERED
sys.stdout = open(sys.stdout.fileno(), "w", closefd=False)
sys.stdout.write("unflushed text\\n")
io.save_csv(np.arange(12.0).reshape(6, 2), sys.argv[1])
print("marker", len(forks))
"""


def test_split_save_children_leave_stdout_alone(tmp_path):
    # a child that flushed the stdout buffer it inherited would print the
    # parent's unflushed text a second time
    src = os.path.dirname(os.path.dirname(os.path.abspath(io.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "m.csv"
    run = subprocess.run([sys.executable, "-c", SAVE_SCRIPT, str(out)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    if run.stdout == "unflushed text\nmarker 0\n" and _parallel.threads() == 0:
        pytest.skip("the OS does not count threads, so save_csv does not fork")
    assert run.stdout == "unflushed text\nmarker 1\n"
    assert out.read_text() == serial_csv(np.arange(12.0).reshape(6, 2))
