"""Tests for the hand-rolled SVG charts: structure, gaps, log scaling,
text escaping, and pinned bytes."""

import hashlib

import pytest

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


# SHA-256 of line_chart's output for charts that exercise each drawing
# rule; the log-axis y values are exact powers of ten so that log10 is
# exact on every platform
_PINNED = [
    (
        [Series("gap", [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, None, 4.0, None])],
        {},
        "69e5b6a2f22d822afec2724956315b7c3778f345af6702ce5bd7f314c3d3280f",
    ),
    (
        [
            Series("a", [0.5, 1.5, 2.5], [3.0, -1.0, 2.0], marker=True),
            Series("b", [None, 1.0, 2.0], [1.0, 0.25, 0.75]),
        ],
        {"title": "t", "xlabel": "x", "ylabel": "y"},
        "d4b449cde34b265d3e037e0e2a5f6b0f437673ac210ac200492660dc3c3414de",
    ),
    (
        [
            Series(
                "s",
                [0.0, 1.0, 2.0, 3.0, 4.0],
                [1e-3, 0.0, 1e-5, -1.0, 100.0],
                marker=True,
            )
        ],
        {"logy": True},
        "33eae465797c99f5c967a5d88619b6e95173685ac2994a46cc9735012e64830d",
    ),
    (
        [],
        {},
        "6ac632e578938dd1e11daacc0b50e83b7e08b94af30928bb9376324befe46580",
    ),
    (
        [Series("a<b>&c", [0.0, 1.0], [0.0, 1.0])],
        {"title": "x & y < z", "xlabel": "<k>", "ylabel": "\"q\" & 'r'"},
        "36e7e9c19e80ef037c29b61d6e2fd1b9af38b73ab50db6535c1173e2f3eab2dd",
    ),
]


@pytest.mark.parametrize(
    "series,kwargs,digest", _PINNED,
    ids=["gap-and-isolated", "markers", "logy", "empty", "escaping"],
)
def test_chart_bytes_are_pinned(series, kwargs, digest):
    text = line_chart(series, **kwargs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
