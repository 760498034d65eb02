"""ASCII and PGM heatmap rendering."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epsnode import render

RAMP = " .:-=+*#%@"


def ascii_by_cell(values, title=""):
    """The per-cell form ``render.ascii_heatmap`` replaced, kept as its oracle."""
    norm, lo, hi = render._scaled(values)
    lines = [title] if title else []
    for j in range(values.shape[0] - 1, -1, -1):
        chars = []
        for i in range(values.shape[1]):
            v = norm[j, i]
            chars.append("?" if not math.isfinite(v) else RAMP[min(int(v * len(RAMP)), len(RAMP) - 1)])
        lines.append("".join(chars))
    lines.append(f"scale: ' '={lo:.6g} .. '@'={hi:.6g}")
    return "\n".join(lines) + "\n"


def pgm_by_cell(values):
    """The per-row form ``render.pgm`` replaced, kept as its oracle."""
    norm, lo, hi = render._scaled(values)
    ny, nx = values.shape
    lines = ["P2", f"# scale {lo!r} {hi!r}", f"{nx} {ny}", "255"]
    for j in range(ny - 1, -1, -1):
        lines.append(" ".join(str(int(min(max(v * 255.0, 0), 255)) if math.isfinite(v) else 0)
                              for v in norm[j]))
    return "\n".join(lines) + "\n"


@st.composite
def maps(draw):
    """(ny, nx) maps holding a finite value c: mixed maps, constant maps
    (every cell c or missing) and single-finite-cell maps, where a missing
    cell is NaN or ±inf."""
    c = draw(st.floats(-1e6, 1e6))
    missing = st.sampled_from([math.nan, math.inf, -math.inf])
    cells = draw(st.sampled_from([st.one_of(st.floats(-1e6, 1e6), missing),
                                  st.one_of(st.just(c), missing), missing]))
    values = draw(arrays(np.float64, (draw(st.integers(1, 6)), draw(st.integers(1, 6))), elements=cells))
    values.flat[draw(st.integers(0, values.size - 1))] = c
    return values


@given(maps(), st.sampled_from(["", "demo"]))
@settings(max_examples=200, deadline=None)
def test_renders_equal_the_per_cell_forms(values, title):
    assert render.ascii_heatmap(values, title) == ascii_by_cell(values, title)
    assert render.pgm(values) == pgm_by_cell(values)


class TestAscii:
    def test_ramp_endpoints_and_orientation(self):
        values = np.array([[0.0, 1.0], [2.0, 3.0]])
        art = render.ascii_heatmap(values)
        rows = art.splitlines()
        # row j=1 is rendered on top (y grows upward)
        assert rows[0] == "#@" or rows[0][1] == "@"
        assert rows[1][0] == " "
        assert rows[-1].startswith("scale: ")
        assert "0" in rows[-1] and "3" in rows[-1]

    def test_title_line(self):
        art = render.ascii_heatmap(np.array([[0.0, 1.0], [2.0, 3.0]]), title="demo")
        assert art.splitlines()[0] == "demo"

    def test_nan_renders_question_mark(self):
        values = np.array([[0.0, np.nan], [1.0, 2.0]])
        rows = render.ascii_heatmap(values).splitlines()
        assert rows[1][1] == "?"

    def test_constant_map_renders_uniformly(self):
        rows = render.ascii_heatmap(np.full((2, 3), 5.0)).splitlines()
        assert rows[0] == rows[1] == "   "

    def test_all_nan_errors(self):
        with pytest.raises(ValueError):
            render.ascii_heatmap(np.full((2, 2), np.nan))


class TestPgm:
    def test_header_and_pixels(self, tmp_path):
        values = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "map.pgm"
        render.write_pgm(values, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "P2"
        assert lines[1].startswith("#")
        assert lines[2] == "2 2"
        assert lines[3] == "255"
        # top row is j=1: values 2, 4 -> 127, 255
        assert lines[4].split() == ["127", "255"]
        assert lines[5].split() == ["0", "63"]

    def test_nan_pixels_are_black(self, tmp_path):
        values = np.array([[np.nan, 1.0], [0.5, 0.0]])
        path = tmp_path / "map.pgm"
        render.write_pgm(values, path)
        bottom = path.read_text(encoding="utf-8").splitlines()[-1]
        assert bottom.split()[0] == "0"
