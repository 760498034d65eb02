"""Fingerprint measurement sets: grid-map arithmetic, JSONL persistence, splitting,
and the one error rule that every reader of an input file follows.

File format (JSON Lines, each line ended by "\\n"):
    line 1: {"scenario": str, "grid": {"origin": [x, y], "nx": int, "ny": int,
             "cell_size": m}, "seed": int}
    line 2+: {"cell": [i, j], "pass": int,
              "anchors": [{"id": int, "range": m, "cir": [152 floats]}, ...]}

Floats are serialized as shortest round-trip decimals, so save/load is
bit-exact. Reading takes each value at its JSON type: an int above holds no
1.5, "3" or true, and a number no string, boolean or integer too large for a
float. A bad line raises ``<path>: line N: invalid header|record: <reason>``,
the form that ``reading`` gives every reader's located error.

Large sets are written and read on every usable core: the records split into
one contiguous part per core, of at least PART_RECORDS each, and forked
children format or parse every part but the first while this process does the
first. One per-record function formats, and one part reader parses, on both
paths, so the file's bytes, the loaded set and every located error are those
of a single process.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

CIR_LENGTH = 152
# the most bytes one numpy array may take: a larger size fails with numpy's
# "Maximum allowed dimension exceeded" or "array is too big", naming no input
MAX_ARRAY_BYTES = np.iinfo(np.intp).max


class InputFileError(ValueError):
    """An input file is missing, unreadable or malformed; the message names
    the file, and the line where the format has lines."""


@contextmanager
def reading(path: str | Path, what: str):
    """Re-raise any error met while reading ``path`` as an InputFileError
    ``<path>: invalid <what>: <reason>``. An InputFileError raised inside is
    already located and passes unchanged, so a reader can locate a part of
    its file by nesting ``reading(f"{path}: line {n}", "record")``."""
    try:
        yield
    except InputFileError:
        raise
    except KeyError as exc:
        raise InputFileError(f"{path}: invalid {what}: missing key {exc}") from exc
    except OSError as exc:  # its str() repeats the path
        raise InputFileError(f"{path}: invalid {what}: {exc.strerror or exc}") from exc
    except (TypeError, IndexError, ValueError, OverflowError, csv.Error) as exc:
        raise InputFileError(f"{path}: invalid {what}: {exc}") from exc


# A reader takes a JSON value at its type with these: a string, an
# integer (not 8.7, "3" or true) or a number (not true or "0.5"); any other
# value raises a TypeError naming it, which ``reading`` locates, as it does
# the OverflowError of an integer too large for a float.
def json_text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_integer(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def text_number(text: str, kind=float):
    """``kind(text)``, ``kind`` int or float, of a number written as plain ASCII: no
    underscore, surrounding space or non-ASCII digit, which int() and float() take."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"expected a plain ASCII {'integer' if kind is int else 'number'}, got {text!r}")
    return kind(text)


def _numbers(values) -> np.ndarray:
    """``values``, a sequence of JSON numbers (no string or boolean), as a float array."""
    if not set(map(type, values)) <= {float, int}:
        raise TypeError(f"expected numbers, got {next(v for v in values if type(v) not in (float, int))!r}")
    return np.asarray(values, dtype=float)


def json_numbers(value) -> np.ndarray:
    """A number, or an array of numbers nested to any depth, as a float array
    (numpy alone would read "0.5" and true as numbers)."""
    array = np.asarray(value, dtype=float)
    _numbers(np.asarray(value, dtype=object).ravel())
    return array


def json_object(value) -> dict:
    """``value``, which must be a JSON object (a file's top level, or one nested in it)."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def json_field(obj: dict, key: str, kind):
    """``kind(obj[key])``, where a wrong value raises an error naming the key."""
    value = json_object(obj)[key]
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key!r}: {exc}") from exc


def json_pair(kind):
    """A converter of a two-item array, such as a cell or an origin, by ``kind``."""
    def pair(value) -> tuple:
        a, b = value
        return kind(a), kind(b)
    return pair


def read_json_object(path: str | Path) -> dict:
    """The JSON object held in ``path``; call it inside :func:`reading`."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    return json_object(obj)


@dataclass(frozen=True)
class GridMap:
    """Regular cell grid anchored at ``origin`` (lower-left corner, meters)."""

    origin: tuple[float, float]
    nx: int
    ny: int
    cell_size: float = 0.5

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 cells")
        if self.nx * self.ny * 8 > MAX_ARRAY_BYTES:
            raise ValueError(f"grid {self.nx}x{self.ny} has more cells than one numpy array of floats holds")
        if not all(math.isfinite(v) for v in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError(f"cell_size must be finite and positive, got {self.cell_size}")

    @property
    def spec(self) -> str:
        """The text form ``ox,oy,nx,ny,cell_size`` that ``--grid`` and the
        error map's ``# grid=`` line hold."""
        return f"{self.origin[0]},{self.origin[1]},{self.nx},{self.ny},{self.cell_size}"

    @classmethod
    def from_spec(cls, spec: str) -> "GridMap":
        try:
            ox, oy, nx, ny, cell_size = spec.split(",")
            return cls((text_number(ox), text_number(oy)), text_number(nx, int),
                       text_number(ny, int), text_number(cell_size))
        except ValueError as exc:
            raise ValueError(
                f"invalid grid spec {spec!r}; expected ox,oy,nx,ny,cell_size: {exc}"
            ) from exc

    @classmethod
    def from_json(cls, obj: dict) -> "GridMap":
        """Inverse of ``dataclasses.asdict``, as the dataset header holds it."""
        return cls(json_field(obj, "origin", json_pair(json_number)), json_field(obj, "nx", json_integer),
                   json_field(obj, "ny", json_integer), json_field(obj, "cell_size", json_number))

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the covered area."""
        ox, oy = self.origin
        return (ox, oy, ox + self.nx * self.cell_size, oy + self.ny * self.cell_size)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_center(self, i, j):
        """The (x, y) center of cell (i, j); for index arrays, the arrays of centers."""
        ox, oy = self.origin
        return (ox + (i + 0.5) * self.cell_size, oy + (j + 0.5) * self.cell_size)

    def contains_cell(self, i: int, j: int) -> bool:
        return 0 <= i < self.nx and 0 <= j < self.ny

    def cells(self):
        """Iterate (i, j) row-major: j outer, i inner."""
        for j in range(self.ny):
            for i in range(self.nx):
                yield i, j


@dataclass(frozen=True, slots=True)
class AnchorReading:
    anchor_id: int
    range_m: float
    cir: np.ndarray  # shape (152,)

    def __post_init__(self):
        cir = np.asarray(self.cir, dtype=float)
        object.__setattr__(self, "cir", cir)
        if cir.shape != (CIR_LENGTH,):
            raise ValueError(f"CIR must have {CIR_LENGTH} samples, got {cir.shape}")
        if not math.isfinite(self.range_m):
            raise ValueError(f"range of anchor {self.anchor_id} is not finite: {self.range_m}")
        if not np.isfinite(cir).all():
            raise ValueError("CIR contains non-finite samples")


@dataclass(frozen=True, slots=True)
class Measurement:
    """One grid-cell sample: per-anchor estimated range plus raw CIR."""

    cell: tuple[int, int]
    pass_id: int
    per_anchor: tuple[AnchorReading, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_anchor", tuple(self.per_anchor))
        ids = [r.anchor_id for r in self.per_anchor]
        if not ids or ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("per-anchor readings must be one or more, unique and ordered by anchor_id")


@dataclass
class MeasurementSet:
    scenario_name: str
    grid: GridMap
    measurements: list[Measurement]
    seed: int

    def __post_init__(self):
        if not self.measurements:
            raise ValueError("measurement set must be nonempty")
        for m in self.measurements:
            if not self.grid.contains_cell(*m.cell):
                raise ValueError(f"measurement cell {m.cell} outside grid")

    def __len__(self) -> int:
        return len(self.measurements)

    @property
    def anchor_ids(self) -> list[int]:
        """The anchor ids of the first measurement, in order; ``load`` checks
        that every record has the same."""
        return [r.anchor_id for r in self.measurements[0].per_anchor]

    def rows_by_cell(self) -> dict[tuple[int, int], np.ndarray]:
        """Each sampled cell's rows in ``measurements``, ascending; the cells in first-seen order."""
        rows: dict[tuple[int, int], list[int]] = {}
        for k, m in enumerate(self.measurements):
            rows.setdefault(m.cell, []).append(k)
        return {cell: np.array(ks) for cell, ks in rows.items()}


PART_RECORDS = 200  # the fewest records a part takes; smaller sets stay in one process


def _part_count(n_records: int) -> int:
    """The number of parts for ``n_records`` records: one per usable core,
    each of at least PART_RECORDS, and one where this host cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_records // PART_RECORDS))


def _child(work, job, out) -> None:
    """A forked child's whole run: ``work(job, out)``, then ``os._exit``, so
    none of the parent's cleanup runs and none of its buffers is flushed
    here. The exit status says how it went: 0 done; 1 or 2 and ``out`` holds
    an InputFileError's message or any other error's."""
    status = 2
    try:
        try:
            work(job, out)
            code = 0
        except BaseException as exc:
            code, message = (1, str(exc)) if isinstance(exc, InputFileError) else (2, repr(exc))
            out.seek(0)
            out.truncate()
            out.write(message.encode())
        out.flush()
        status = code
    finally:
        os._exit(status)


@contextmanager
def _forked(name, jobs: list, work):
    """Run ``work(job, out)`` for each job in a forked child, ``out`` a
    temporary file of its own, while the caller does its own share. Yields
    one ``join()`` per job, to call in order: it waits for that child and
    returns ``out`` rewound, or raises the child's InputFileError, or a
    RuntimeError naming ``name`` when the child failed otherwise. On leaving,
    by any path, every child not joined yet is killed, and every child is
    reaped."""
    running: dict[int, object] = {}  # pid -> out, until reaped
    outs = []

    def join(pid: int):
        _, status = os.waitpid(pid, 0)
        out = running.pop(pid)
        code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        if code == 0:
            return out
        if code == 1:
            raise InputFileError(out.read().decode())
        how = f"was killed by signal {-code}" if code < 0 else f"failed: {out.read().decode()}"
        raise RuntimeError(f"{name}: worker process {pid} {how}")

    try:
        for job in jobs:
            outs.append(out := tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _child(work, job, out)
            running[pid] = out
        yield [lambda pid=pid: join(pid) for pid in list(running)]
    finally:
        if running:
            from signal import SIGKILL  # loaded only when a child is left to kill
        for pid in running:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for out in outs:
            out.close()


def _record_line(m: Measurement) -> bytes:
    """One record's line, as both paths of :func:`save` write it."""
    rec = {
        "cell": [m.cell[0], m.cell[1]],
        "pass": m.pass_id,
        "anchors": [
            {"id": r.anchor_id, "range": r.range_m, "cir": r.cir.tolist()}
            for r in m.per_anchor
        ],
    }
    return (json.dumps(rec) + "\n").encode()


def save(mset: MeasurementSet, path: str | Path) -> None:
    """Write a measurement set as JSON Lines (header + one record per line)."""
    header = {
        "scenario": mset.scenario_name,
        "grid": asdict(mset.grid),
        "seed": mset.seed,
    }
    records = mset.measurements
    n = _part_count(len(records))
    ends = [len(records) * k // n for k in range(n + 1)]
    parts = [records[a:b] for a, b in zip(ends, ends[1:])]

    def write(part, out):
        out.writelines(map(_record_line, part))

    with Path(path).open("wb") as f, _forked(path, parts[1:], write) as joins:
        f.write((json.dumps(header) + "\n").encode())
        write(parts[0], f)
        for join in joins:
            shutil.copyfileobj(join(), f)


def _json_object(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode("utf-8"))
    except json.JSONDecodeError as exc:  # its position repeats "line 1"
        raise ValueError(f"not valid JSON: {exc.msg}") from exc
    return json_object(obj)


def _header(line: bytes) -> tuple[str, GridMap, int]:
    obj = _json_object(line)
    return (json_field(obj, "scenario", json_text), GridMap.from_json(obj["grid"]),
            json_field(obj, "seed", json_integer))


def _record(line: bytes, grid: GridMap, first_ids: list[int] | None) -> Measurement:
    """Parse one record line; its anchor ids must be ``first_ids``, unless
    it is the first record (None)."""
    obj = _json_object(line)
    anchors = tuple(
        AnchorReading(json_field(a, "id", json_integer), json_field(a, "range", json_number),
                      json_field(a, "cir", _numbers))
        for a in obj["anchors"]
    )
    cell = json_field(obj, "cell", json_pair(json_integer))
    if not grid.contains_cell(*cell):
        raise ValueError(f"cell {cell} outside the {grid.nx}x{grid.ny} grid")
    ids = [r.anchor_id for r in anchors]
    if first_ids is not None and ids != first_ids:
        raise ValueError(f"anchor ids {ids} differ from the first record's {first_ids}")
    return Measurement(cell, json_field(obj, "pass", json_integer), anchors)


def _read_records(path: Path, a: int, b: int, grid: GridMap, ids: list[int]) -> list[Measurement]:
    """The records in bytes ``a:b`` of ``path``, each with anchor ids ``ids``,
    read through a handle of its own (a forked child shares its parent's
    offsets). An error names its line by the newlines before it, counted
    only then."""
    records = []
    with path.open("rb") as f:
        f.seek(a)
        while a < b and (line := f.readline()):
            try:
                records.append(_record(line, grid, ids))
            except Exception:
                f.seek(0)
                lineno = f.read(a).count(b"\n") + 1
                with reading(f"{path}: line {lineno}", "record"):  # locates the error and raises it
                    raise
            a += len(line)
    return records


def _part_bounds(f, start: int, size: int, n: int) -> list[int]:
    """The n + 1 offsets that cut bytes ``start:size`` of ``f`` into n parts
    of about equal length, each beginning at a line start."""
    bounds = [start]
    for k in range(1, n):
        f.seek(start + (size - start) * k // n - 1)
        f.readline()
        bounds.append(f.tell())
    f.seek(start)
    return bounds + [size]


def _write_columns(records: list[Measurement], out) -> None:
    """A child's parsed part: the cells and pass ids as one JSON line (which
    holds integers of any size), then the ranges and the CIR block as .npy
    arrays. Every record's anchor ids equal the first record's."""
    out.write(json.dumps([[*m.cell, m.pass_id] for m in records]).encode() + b"\n")
    for column in ([[r.range_m for r in m.per_anchor] for m in records],
                   [[r.cir for r in m.per_anchor] for m in records]):
        np.lib.format.write_array(out, np.array(column, dtype=float), allow_pickle=False)


def _read_columns(f, anchor_ids: list[int]) -> list[Measurement]:
    """Inverse of :func:`_write_columns`; each CIR is a row view of the block."""
    heads = json.loads(f.readline())
    ranges, cirs = (np.lib.format.read_array(f, allow_pickle=False) for _ in range(2))
    return [Measurement((i, j), pass_id, tuple(map(AnchorReading, anchor_ids, row, block)))
            for (i, j, pass_id), row, block in zip(heads, ranges.tolist(), cirs)]


def load(path: str | Path) -> MeasurementSet:
    """Parse a dataset file: line 1 is the header and every later line one
    record, as :func:`save` writes them. A bad line, a blank one included,
    aborts the load (no partial set is returned) with an InputFileError naming
    the file and line. Every record must lie in the header's grid and carry
    the first record's anchor ids."""
    path = Path(path)
    with reading(path, "dataset"), path.open("rb") as f:
        header, line = f.readline(), f.readline()
        if not header:
            raise ValueError("empty file: missing header")
        with reading(f"{path}: line 1", "header"):
            scenario_name, grid, seed = _header(header)
        if not line:
            raise ValueError("dataset contains no measurements")
        with reading(f"{path}: line 2", "record"):
            first = _record(line, grid, None)
        ids = [r.anchor_id for r in first.per_anchor]

        # the rest splits at line starts, its record count estimated from
        # the first record's length
        start, size = f.tell(), os.fstat(f.fileno()).st_size
        bounds = _part_bounds(f, start, size, _part_count(1 + (size - start) // len(line)))
        parts = list(zip(bounds, bounds[1:]))

        def parse(part, out):
            _write_columns(_read_records(path, *part, grid, ids), out)

        with _forked(path, parts[1:], parse) as joins:
            measurements = [first, *_read_records(path, *parts[0], grid, ids)]
            for join in joins:
                measurements += _read_columns(join(), ids)
    return MeasurementSet(scenario_name, grid, measurements, seed)


def check_val_fraction(val_fraction: float) -> None:
    if not (0.0 < val_fraction < 1.0):
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")


def split(
    mset: MeasurementSet, val_fraction: float, seed: int
) -> tuple[MeasurementSet, MeasurementSet]:
    """Stratified per-cell split: each cell contributes
    ``ceil(val_fraction * count)`` samples to validation and must keep at
    least one for training."""
    check_val_fraction(val_fraction)
    rng = np.random.default_rng(seed)
    is_val = np.zeros(len(mset), dtype=bool)
    for cell, rows in sorted(mset.rows_by_cell().items()):
        n_val = math.ceil(val_fraction * len(rows))
        if n_val >= len(rows):  # also every cell with a single sample
            raise ValueError(
                f"cell {cell}: val_fraction {val_fraction} takes all {len(rows)} "
                "of its samples, leaving none for training"
            )
        is_val[rows[rng.permutation(len(rows))[:n_val]]] = True

    return tuple(replace(mset, measurements=list(itertools.compress(mset.measurements, half)))
                 for half in (~is_val, is_val))
