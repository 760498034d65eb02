"""Grid map, measurement containers, persistence, and splitting."""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import msets_equal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epsnode import dataset as ds
from epsnode import simulator as sim
from epsnode.dataset import (
    AnchorReading,
    GridMap,
    InputFileError,
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

    @pytest.mark.parametrize("origin, cell_size, named", [
        ((math.nan, 1.25), 0.5, "origin must be finite, got (nan, 1.25)"),
        ((1.0, -math.inf), 0.5, "origin must be finite, got (1.0, -inf)"),
        ((1.0, 1.25), math.nan, "cell_size must be finite and positive, got nan"),
        ((1.0, 1.25), math.inf, "cell_size must be finite and positive, got inf"),
        ((1.0, 1.25), -0.5, "cell_size must be finite and positive, got -0.5"),
    ])
    def test_rejects_geometry_not_finite(self, origin, cell_size, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            GridMap(origin, 2, 2, cell_size)
        with pytest.raises(ValueError, match=re.escape(named)):
            GridMap.from_spec(f"{origin[0]},{origin[1]},2,2,{cell_size}")

    @pytest.mark.parametrize("nx, ny", [(2, 2**64 + 1), (2**31, 2**31)])
    def test_rejects_more_cells_than_one_array_holds(self, nx, ny):
        # a map of one float per cell must fit one numpy array, whose
        # size numpy bounds by its index type
        named = f"grid {nx}x{ny} has more cells than one numpy array of floats holds"
        with pytest.raises(ValueError, match=re.escape(named)):
            GridMap((0.0, 0.0), nx, ny)
        with pytest.raises(ValueError, match=re.escape(named)):
            GridMap.from_spec(f"0.0,0.0,{nx},{ny},0.5")
        largest = GridMap((0.0, 0.0), 2, np.iinfo(np.intp).max // 16)
        assert largest.n_cells * 8 <= np.iinfo(np.intp).max

    @given(FINITE, FINITE, st.integers(2, 10**6), st.integers(2, 10**6), st.floats(5e-324, 1e308))
    @settings(max_examples=60, deadline=None)
    def test_text_form_round_trips(self, ox, oy, nx, ny, cell_size):
        grid = GridMap((ox, oy), nx, ny, cell_size)
        assert GridMap.from_spec(grid.spec) == grid

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

    def test_records_carry_no_instance_dict(self):
        # a run builds thousands of readings; slots keep each one small
        m = measurement((0, 0))
        assert not hasattr(m, "__dict__")
        assert not hasattr(m.per_anchor[0], "__dict__")

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

    def test_anchor_ids_in_reading_order(self):
        grid = GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.5)
        readings = (reading(3), reading(7), reading(10))
        mset = MeasurementSet("nominal", grid, [Measurement((i, 0), 0, readings) for i in (0, 1)],
                              seed=0)
        assert mset.anchor_ids == [3, 7, 10]


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
        with pytest.raises(InputFileError):
            ds.load(path)

    def test_wrong_cir_length_errors(self, tmp_path):
        mset = small_set(n_per_cell=1)
        path = tmp_path / "data.jsonl"
        ds.save(mset, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("0.0, 0.0]", "0.0]", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFileError, match=f"line 2: .*CIR must have {CIR} samples"):
            ds.load(path)

    def test_header_grid_not_finite_errors(self, tmp_path):
        path = tmp_path / "data.jsonl"
        ds.save(small_set(n_per_cell=1), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"cell_size": 0.5', '"cell_size": NaN', 1), encoding="utf-8")
        with pytest.raises(InputFileError, match=r"data\.jsonl: line 1: invalid header: "
                           "cell_size must be finite and positive, got nan"):
            ds.load(path)

    def test_format_error_carries_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        ds.save(small_set(n_per_cell=1), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFileError, match=r"data\.jsonl: line 3: invalid record: not valid JSON"):
            ds.load(path)

    @pytest.mark.parametrize("at, what", [(0, "header"), (1, "record"), (5, "record")],
                             ids=["before-header", "before-first-record", "at-end"])
    def test_blank_line_is_a_located_error(self, tmp_path, at, what):
        # save writes no blank line, so load reads none: line 1 is the header
        # and every later line one record
        path = tmp_path / "data.jsonl"
        ds.save(small_set(n_per_cell=1), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(at, b"\n")
        path.write_bytes(b"".join(lines))
        located = rf"data\.jsonl: line {at + 1}: invalid {what}: not valid JSON"
        with pytest.raises(InputFileError, match=located):
            ds.load(path)



@contextmanager
def usable_cores(n):
    """Run as if this process may use ``n`` cores (1: the one-process path)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        yield


@contextmanager
def counting_forks():
    """The list of this process's ``os.fork`` calls made inside the block."""
    forks, fork = [], os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_children_only(function, action):
    """``function``, but ``action()`` in place of it in any forked child."""
    parent = os.getpid()
    return lambda *args: function(*args) if os.getpid() == parent else action()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def nominal_5x10():
    """The protocol's nominal set: 5 passes x 10 samples on the standard grid."""
    return sim.generate_dataset(sim.scenario("nominal"), sim.default_grid(), 5, 10, seed=42)


@pytest.fixture(scope="module")
def part_lines(tmp_path_factory):
    """The lines of a saved set large enough for two parts; each record's
    pass id is its index, and its CIRs are short to write."""
    records = [measurement((i % 2, i // 2 % 2), pass_id=i) for i in range(2 * ds.PART_RECORDS + 51)]
    path = tmp_path_factory.mktemp("parts") / "data.jsonl"
    with usable_cores(1):
        ds.save(MeasurementSet("nominal", small_set().grid, records, seed=1), path)
    return path.read_bytes().splitlines(keepends=True)


class TestCores:
    """A large set is written and read on every usable core, with the bytes,
    the set and the errors of one process."""

    def test_nominal_5x10_writes_the_same_bytes(self, tmp_path, nominal_5x10):
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        with usable_cores(1), counting_forks() as forks:
            ds.save(nominal_5x10, one)
            serial = ds.load(one)
        assert forks == []
        with usable_cores(2), counting_forks() as forks:
            ds.save(nominal_5x10, two)
            parallel = ds.load(two)
        assert len(forks) == 2  # one child each for save and load
        assert two.read_bytes() == one.read_bytes()
        assert msets_equal(parallel, serial) and msets_equal(parallel, nominal_5x10)
        assert_no_child_left()

    @given(measurement_sets(), st.integers(2, 4), st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_above_the_part_size_is_bit_exact(self, tmp_path_factory, base, cores,
                                                         extra):
        # parts of 10 records keep the files small. The load estimates its
        # record count from the first record's length, and a record of
        # another draw may be up to 5.2 times as long (26 bytes a sample,
        # not 5), so 25 parts' records make every core's part.
        records = [Measurement(m.cell, k, m.per_anchor)
                   for k, m in zip(range(250 + extra), itertools.cycle(base.measurements))]
        mset = MeasurementSet(base.scenario_name, base.grid, records, base.seed)
        path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        with pytest.MonkeyPatch.context() as mp, usable_cores(cores), counting_forks() as forks:
            mp.setattr(ds, "PART_RECORDS", 10)
            ds.save(mset, path)
            loaded = ds.load(path)
        assert len(forks) == 2 * (cores - 1)
        written = path.read_bytes()
        with usable_cores(1):
            ds.save(mset, path)
        assert path.read_bytes() == written

        def bits(s, field):  # float bit patterns, so -0.0 and 0.0 differ
            return np.array([[getattr(r, field) for r in m.per_anchor]
                             for m in s.measurements]).view(np.uint64)

        assert np.array_equal(bits(loaded, "range_m"), bits(mset, "range_m"))
        assert np.array_equal(bits(loaded, "cir"), bits(mset, "cir"))
        assert [(m.cell, m.pass_id) for m in loaded.measurements] == [(m.cell, m.pass_id) for m in records]
        assert (loaded.scenario_name, loaded.grid, loaded.seed) == (mset.scenario_name, mset.grid, mset.seed)

    @pytest.mark.parametrize("bad, blank", [
        ({-1: ("pass", "7")}, False),
        ({-1: ("pass", "7")}, True),   # the first blank line is reported, as any bad line
        ({-5: ("anchors", [])}, False),  # the anchor ids differ from the first record's
        ({-3: ("cell", [0, 9])}, False),
        ({-2: ("anchors", "x"), -40: ("cell", [1.9, 0])}, False),  # the earlier one is reported
        ({150: ("anchors", []), -2: ("pass", "7")}, False),  # the first part's, by its id check
        ({-4: ("anchors", [{"id": 0, "range": 10**400, "cir": [0.0] * CIR}])}, False),
    ], ids=["last-line", "after-blank-lines", "anchor-ids", "cell-outside", "two-in-last-part",
            "one-in-each-part", "range-too-large"])
    def test_bad_record_in_a_later_part_reads_as_on_one_core(self, tmp_path, part_lines, bad, blank):
        lines = list(part_lines)
        for index, (key, value) in bad.items():
            lines[index] = (json.dumps(json.loads(lines[index]) | {key: value}) + "\n").encode()
        first = min(index % len(lines) for index in bad) + 1  # the line reported
        if blank:
            lines[300:300] = [b"\n", b"  \n"]
            first = 301
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(lines))
        with usable_cores(1), pytest.raises(InputFileError) as serial:
            ds.load(path)
        with usable_cores(2), counting_forks() as forks, pytest.raises(InputFileError) as parallel:
            ds.load(path)
        assert len(forks) == 1
        assert str(parallel.value) == str(serial.value)
        assert str(serial.value).startswith(f"{path}: line {first}: ")
        assert_no_child_left()

    @pytest.mark.parametrize("fail, named", [
        (lambda: 1 / 0, "failed: ZeroDivisionError"),
        (kill_self, f"was killed by signal {signal.SIGKILL}"),
    ], ids=["raises", "killed"])
    def test_child_that_fails_is_an_error_in_the_parent(self, tmp_path, monkeypatch, part_lines,
                                                          fail, named):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(part_lines))
        with usable_cores(2):
            mset = ds.load(path)
            monkeypatch.setattr(ds, "_write_columns", in_children_only(ds._write_columns, fail))
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(path))}: worker process .* {named}"):
                ds.load(path)
            assert_no_child_left()
            monkeypatch.setattr(ds, "_record_line", in_children_only(ds._record_line, fail))
            with pytest.raises(RuntimeError, match=f"worker process .* {named}"):
                ds.save(mset, tmp_path / "again.jsonl")
        assert_no_child_left()

    def test_interrupted_parent_reaps_its_children(self, tmp_path, monkeypatch, part_lines):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(part_lines))

        def interrupt(*args):
            raise KeyboardInterrupt

        parent = os.getpid()
        read_records = ds._read_records
        monkeypatch.setattr(ds, "_read_records", lambda *args: (
            interrupt() if os.getpid() == parent else read_records(*args)))
        with usable_cores(2), counting_forks() as forks, pytest.raises(KeyboardInterrupt):
            ds.load(path)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_host_without_fork_or_affinity_reads_in_one_process(self, tmp_path, monkeypatch,
                                                                part_lines, missing):
        path, again = tmp_path / "data.jsonl", tmp_path / "again.jsonl"
        path.write_bytes(b"".join(part_lines))
        monkeypatch.delattr(os, missing)
        ds.save(ds.load(path), again)
        assert again.read_bytes() == path.read_bytes()

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
