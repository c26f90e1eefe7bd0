"""Tests for the hand-rolled SVG charts: structure, gaps, log scaling,
text escaping."""

from homatlas.svgplot import Series, line_chart, save_svg


def test_basic_chart_structure():
    text = line_chart(
        [Series("residual", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])],
        title="demo",
        xlabel="k",
        ylabel="r",
    )
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert "demo" in text
    assert "residual" in text


def test_text_escapes_markup_but_not_quotes():
    raw = """a&b <c> "d" 'e'"""
    want = """a&amp;b &lt;c&gt; "d" 'e'"""
    text = line_chart(
        [Series(raw, [0.0, 1.0], [0.0, 1.0])],
        title=raw,
        xlabel=raw,
        ylabel=raw,
    )
    assert text.count(f">{want}</text>") == 4
    assert raw not in text


def test_marker_series_gets_circles():
    text = line_chart(
        [Series("pts", [0.0, 1.0], [1.0, 2.0], marker=True)]
    )
    assert text.count("<circle") >= 2


def test_none_gap_splits_polyline():
    text = line_chart(
        [Series("gap", [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, None, 4.0])]
    )
    # two segments: one 2-point polyline and one isolated marker point
    assert text.count("<polyline") == 1
    assert text.count("<circle") >= 1


def test_logy_drops_nonpositive():
    text = line_chart(
        [Series("s", [0.0, 1.0, 2.0], [1e-3, 0.0, 1e-5])],
        logy=True,
    )
    # the zero sample cannot be drawn on a log axis
    assert "<polyline" not in text
    assert text.count("<circle") == 2


def test_empty_chart_still_valid():
    text = line_chart([])
    assert text.startswith("<svg")
    assert "</svg>" in text


def test_save_svg_uses_lf(tmp_path):
    path = tmp_path / "chart.svg"
    save_svg(str(path), line_chart([Series("a", [0.0, 1.0], [0.0, 1.0])]))
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.startswith(b"<svg")
