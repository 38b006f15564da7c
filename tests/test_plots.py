from xml.etree import ElementTree

from srskit import ExperimentReport
from srskit.plots import bar_plot_svg, coverage_svg, line_plot_svg, rank_curve_svg


def rank_report():
    rows = []
    for t in range(3):
        for n, v in ((10, 5.0 + t), (20, 8.0), (40, 10.0)):
            rows.append((t, "srs", n, None, v))
            rows.append((t, "ris", n, None, v - 2.0))
    return ExperimentReport(tuple(rows))


def cov_report():
    rows = []
    for cl in range(4):
        rows.append((0, "srs", 30, cl, 7.0 + cl))
        rows.append((0, "ris", 30, cl, 2.0 * cl))
    return ExperimentReport(tuple(rows))


def test_line_plot_svg_structure(tmp_path):
    path = tmp_path / "l.svg"
    line_plot_svg([("a", [1, 2, 3], [1.0, 4.0, 2.0])], path, title="t",
                  xlabel="x", ylabel="y", comment="cfg")
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "<!-- cfg -->" in text
    assert text.count("<polyline") == 1


def test_comment_double_dash_escaped(tmp_path):
    path = tmp_path / "c.svg"
    line_plot_svg([("a", [0, 1], [0.0, 1.0])], path, comment="x --flag y")
    text = path.read_text()
    assert "--flag" not in text
    assert "- -flag" in text


def test_rank_curve_svg(tmp_path):
    path = tmp_path / "r.svg"
    rank_curve_svg(rank_report(), path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "srs" in text and "ris" in text


def test_coverage_svg(tmp_path):
    path = tmp_path / "cov.svg"
    coverage_svg(cov_report(), 4, path)
    text = path.read_text()
    # 8 bars plus background and legend swatches
    assert text.count("<rect") >= 9


def test_bar_plot_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [("m", [1.0, 2.0, 3.0])]
    bar_plot_svg([0, 1, 2], series, a, comment="same")
    bar_plot_svg([0, 1, 2], series, b, comment="same")
    assert a.read_bytes() == b.read_bytes()


def test_comment_dash_runs_stay_well_formed(tmp_path):
    path = tmp_path / "c.svg"
    for comment in ("srskit exp --out ---.csv", "x ----- y", "ends in -",
                    "a --\nb -"):
        line_plot_svg([("a", [0, 1], [0.0, 1.0])], path, comment=comment)
        ElementTree.parse(path)
        body = path.read_text().split("<!--", 1)[1].split("-->", 1)[0]
        assert "--" not in body
