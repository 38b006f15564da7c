import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srskit import io
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


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_save_csv_memory_is_one_row(tmp_path):
    # formatting the whole matrix at once held every float as a Python
    # object and every line as a str: 63 MiB here
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    path = tmp_path / "m.csv"
    _, peak = traced_peak(save_csv, D, path)
    assert peak < 4 << 20
    assert (np.loadtxt(path, delimiter=",") == D).all()


def test_load_csv_memory_is_the_result(tmp_path):
    # keeping every data line as a str held 3.6 times the result
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    path = tmp_path / "m.csv"
    save_csv(D, path, comment="cfg")
    back, peak = traced_peak(load_csv, path)
    assert back.tobytes() == D.tobytes()
    assert peak < 1.5 * D.nbytes + (2 << 20)
