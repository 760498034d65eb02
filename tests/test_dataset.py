"""Grid map, measurement containers, persistence, and splitting."""
from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import msets_equal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epsnode import dataset as ds
from epsnode.dataset import (
    AnchorReading,
    DatasetFormatError,
    GridMap,
    Measurement,
    MeasurementSet,
)

CIR = ds.CIR_LENGTH
# any finite float, with the edges of the format drawn often: signed zero,
# subnormals and the largest magnitudes
FINITE = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def cell_index(grid: GridMap, p: tuple[float, float]) -> tuple[int, int]:
    """Map a point to its (i, j) cell; points on an upper boundary clamp
    to the last cell."""
    xmin, ymin, xmax, ymax = grid.extent
    x, y = p
    if not (xmin <= x <= xmax and ymin <= y <= ymax):
        raise ValueError(f"point {p} outside grid extent {grid.extent}")
    i = min(int(math.floor((x - xmin) / grid.cell_size)), grid.nx - 1)
    j = min(int(math.floor((y - ymin) / grid.cell_size)), grid.ny - 1)
    return i, j


def reading(anchor_id, range_m=3.0):
    return AnchorReading(anchor_id, range_m, np.zeros(CIR))


def measurement(cell, pass_id=0, n_anchors=4):
    return Measurement(cell, pass_id, tuple(reading(a) for a in range(n_anchors)))


@st.composite
def measurement_sets(draw):
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    grid = GridMap((draw(FINITE), draw(FINITE)), nx, ny, draw(st.floats(1e-300, 1e300)))
    ids = sorted(draw(st.sets(st.integers(0, 50), min_size=1, max_size=4)))
    measurements = [
        Measurement(
            (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))),
            draw(st.integers(0, 10**6)),
            tuple(AnchorReading(a, draw(FINITE), draw(arrays(np.float64, CIR, elements=FINITE)))
                  for a in ids),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return MeasurementSet(draw(st.text(max_size=8)), grid, measurements, draw(st.integers(0, 2**63)))


def small_set(n_per_cell=3, nx=2, ny=2):
    grid = GridMap(origin=(0.0, 0.0), nx=nx, ny=ny, cell_size=0.5)
    measurements = [
        measurement((i, j))
        for j in range(ny)
        for i in range(nx)
        for _ in range(n_per_cell)
    ]
    return MeasurementSet("nominal", grid, measurements, seed=1)


class TestGridMap:
    def test_extent_and_centers(self):
        grid = GridMap(origin=(1.0, 1.25), nx=8, ny=5, cell_size=0.5)
        assert grid.extent == (1.0, 1.25, 5.0, 3.75)
        assert grid.cell_center(0, 0) == (1.25, 1.5)
        assert grid.cell_center(7, 4) == (4.75, 3.5)
        assert len(list(grid.cells())) == 40

    def test_invariants(self):
        with pytest.raises(ValueError):
            GridMap(origin=(0.0, 0.0), nx=1, ny=2, cell_size=0.5)
        with pytest.raises(ValueError):
            GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.0)

    def test_cell_index_floor(self):
        grid = GridMap(origin=(0.0, 0.0), nx=4, ny=4, cell_size=0.5)
        assert cell_index(grid, (0.26, 0.01)) == (0, 0)
        assert cell_index(grid, (0.75, 1.25)) == (1, 2)

    def test_cell_index_boundary_clamp(self):
        grid = GridMap(origin=(0.0, 0.0), nx=4, ny=4, cell_size=0.5)
        assert cell_index(grid, (2.0, 1.0)) == (3, 2)


class TestContainers:
    def test_cir_length_enforced(self):
        with pytest.raises(ValueError):
            AnchorReading(0, 1.0, np.zeros(CIR - 1))

    def test_cir_finite_enforced(self):
        bad = np.zeros(CIR)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            AnchorReading(0, 1.0, bad)

    def test_readings_ordered_by_anchor(self):
        with pytest.raises(ValueError):
            Measurement((0, 0), 0, (reading(1), reading(0)))

    def test_cell_must_lie_in_grid(self):
        grid = GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.5)
        with pytest.raises(ValueError):
            MeasurementSet("nominal", grid, [measurement((5, 0))], seed=0)

    def test_nonempty(self):
        grid = GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.5)
        with pytest.raises(ValueError):
            MeasurementSet("nominal", grid, [], seed=0)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        mset = small_set()
        path = tmp_path / "data.jsonl"
        ds.save(mset, path)
        assert msets_equal(ds.load(path), mset)

    @given(measurement_sets())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, mset):
        first = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        ds.save(mset, first)
        loaded = ds.load(first)
        second = first.with_name("again.jsonl")
        ds.save(loaded, second)
        assert second.read_bytes() == first.read_bytes()

        def bits(s, field):  # float bit patterns, so -0.0 and 0.0 differ
            return np.array([[getattr(r, field) for r in m.per_anchor]
                             for m in s.measurements]).view(np.uint64)

        assert np.array_equal(bits(loaded, "range_m"), bits(mset, "range_m"))
        assert np.array_equal(bits(loaded, "cir"), bits(mset, "cir"))
        assert [m.cell for m in loaded.measurements] == [m.cell for m in mset.measurements]
        assert [m.pass_id for m in loaded.measurements] == [m.pass_id for m in mset.measurements]

    def test_truncated_file_errors(self, tmp_path):
        mset = small_set()
        path = tmp_path / "data.jsonl"
        ds.save(mset, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: int(len(text) * 0.7)], encoding="utf-8")
        with pytest.raises(DatasetFormatError):
            ds.load(path)

    def test_wrong_cir_length_errors(self, tmp_path):
        mset = small_set(n_per_cell=1)
        path = tmp_path / "data.jsonl"
        ds.save(mset, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("0.0, 0.0]", "0.0]", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=f"line 2: .*CIR must have {CIR} samples"):
            ds.load(path)

    def test_format_error_carries_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        ds.save(small_set(n_per_cell=1), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="3"):
            ds.load(path)


class TestSplit:
    def test_per_cell_counts(self):
        mset = small_set(n_per_cell=10)
        train, val = ds.split(mset, 0.2, seed=0)
        per_cell = {}
        for m in val.measurements:
            per_cell[m.cell] = per_cell.get(m.cell, 0) + 1
        assert all(v == 2 for v in per_cell.values())
        assert len(per_cell) == 4

    def test_partition(self):
        mset = small_set(n_per_cell=5)
        train, val = ds.split(mset, 0.4, seed=3)
        assert len(train.measurements) + len(val.measurements) == len(mset.measurements)
        train_ids = {id(m) for m in train.measurements}
        assert all(id(m) not in train_ids for m in val.measurements)

    def test_determinism(self):
        mset = small_set(n_per_cell=7)
        a = ds.split(mset, 0.3, seed=11)
        b = ds.split(mset, 0.3, seed=11)
        assert msets_equal(a[0], b[0]) and msets_equal(a[1], b[1])

    def test_rejects_tiny_cells(self):
        mset = small_set(n_per_cell=1)
        with pytest.raises(ValueError):
            ds.split(mset, 0.2, seed=0)

    def test_rejects_fraction_that_takes_a_whole_cell(self):
        # ceil(0.6 * 2) takes both samples of cell (0, 0); the other cells
        # keep 4 of their 10
        grid = GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.5)
        measurements = [measurement((0, 0)) for _ in range(2)] + [
            measurement(cell) for cell in ((1, 0), (0, 1), (1, 1)) for _ in range(10)
        ]
        mset = MeasurementSet("nominal", grid, measurements, seed=1)
        with pytest.raises(ValueError, match=r"cell \(0, 0\).*takes all 2 of its samples"):
            ds.split(mset, 0.6, seed=0)

    def test_ceil_rounding(self):
        mset = small_set(n_per_cell=3)
        _, val = ds.split(mset, 0.5, seed=0)
        per_cell = {}
        for m in val.measurements:
            per_cell[m.cell] = per_cell.get(m.cell, 0) + 1
        assert all(v == 2 for v in per_cell.values())  # ceil(0.5 * 3)
