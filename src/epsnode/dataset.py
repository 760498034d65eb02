"""Fingerprint measurement sets: grid-map arithmetic, JSONL persistence, splitting,
and the one error rule that every reader of an input file follows.

File format (JSON Lines):
    line 1: {"scenario": str, "grid": {"origin": [x, y], "nx": int, "ny": int,
             "cell_size": m}, "seed": int}
    line 2+: {"cell": [i, j], "pass": int,
              "anchors": [{"id": int, "range": m, "cir": [152 floats]}, ...]}

Floats are serialized as shortest round-trip decimals, so save/load is
bit-exact.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CIR_LENGTH = 152


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
    except (TypeError, IndexError, ValueError) as exc:
        raise InputFileError(f"{path}: invalid {what}: {exc}") from exc


# A reader takes a JSON value at its type with these: a string, an
# integer (not 8.7, "3" or true) or a number (not true or "0.5"); any other
# value raises a TypeError naming it, which ``reading`` locates.
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


def read_json_object(path: str | Path) -> dict:
    """The JSON object held in ``path``; call it inside :func:`reading`."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


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
            return cls((float(ox), float(oy)), int(nx), int(ny), float(cell_size))
        except ValueError as exc:
            raise ValueError(
                f"invalid grid spec {spec!r}; expected ox,oy,nx,ny,cell_size: {exc}"
            ) from exc

    @classmethod
    def from_json(cls, obj: dict) -> "GridMap":
        """Inverse of ``dataclasses.asdict``, as the dataset header holds it."""
        ox, oy = obj["origin"]
        return cls((float(ox), float(oy)), int(obj["nx"]), int(obj["ny"]), float(obj["cell_size"]))

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the covered area."""
        ox, oy = self.origin
        return (ox, oy, ox + self.nx * self.cell_size, oy + self.ny * self.cell_size)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
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
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("per-anchor readings must be unique and ordered by anchor_id")


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


def save(mset: MeasurementSet, path: str | Path) -> None:
    """Write a measurement set as JSON Lines (header + one record per line)."""
    path = Path(path)
    header = {
        "scenario": mset.scenario_name,
        "grid": asdict(mset.grid),
        "seed": mset.seed,
    }
    with path.open("w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for m in mset.measurements:
            rec = {
                "cell": [m.cell[0], m.cell[1]],
                "pass": m.pass_id,
                "anchors": [
                    {"id": r.anchor_id, "range": r.range_m, "cir": r.cir.tolist()}
                    for r in m.per_anchor
                ],
            }
            f.write(json.dumps(rec) + "\n")


def load(path: str | Path) -> MeasurementSet:
    """Parse a dataset file; any malformed or schema-violating record aborts
    the load (no partial set is returned) with an InputFileError naming the
    file and line. Every record must lie in the header's grid and carry the
    first record's anchor ids."""
    path = Path(path)
    measurements: list[Measurement] = []
    header = None
    first_ids = None
    with reading(path, "dataset"), path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            with reading(f"{path}: line {lineno}", "record" if header else "header"):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:  # its position repeats "line 1"
                    raise ValueError(f"not valid JSON: {exc.msg}") from exc
                if header is None:
                    header = (str(obj["scenario"]), GridMap.from_json(obj["grid"]), int(obj["seed"]))
                    continue
                anchors = tuple(
                    AnchorReading(int(a["id"]), float(a["range"]), a["cir"]) for a in obj["anchors"]
                )
                cell = (int(obj["cell"][0]), int(obj["cell"][1]))
                grid = header[1]
                if not grid.contains_cell(*cell):
                    raise ValueError(f"cell {cell} outside the {grid.nx}x{grid.ny} grid")
                ids = [r.anchor_id for r in anchors]
                if first_ids is None:
                    first_ids = ids
                if ids != first_ids:
                    raise ValueError(f"anchor ids {ids} differ from the first record's {first_ids}")
                measurements.append(Measurement(cell, int(obj["pass"]), anchors))
        if header is None:
            raise ValueError("empty file: missing header")
        if not measurements:
            raise ValueError("dataset contains no measurements")
    scenario_name, grid, seed = header
    return MeasurementSet(scenario_name, grid, measurements, seed)


def split(
    mset: MeasurementSet, val_fraction: float, seed: int
) -> tuple[MeasurementSet, MeasurementSet]:
    """Stratified per-cell split: each cell contributes
    ``ceil(val_fraction * count)`` samples to validation and must keep at
    least one for training."""
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val_fraction must be in (0, 1)")
    by_cell: dict[tuple[int, int], list[int]] = {}
    for idx, m in enumerate(mset.measurements):
        by_cell.setdefault(m.cell, []).append(idx)

    rng = np.random.default_rng(seed)
    val_indices: set[int] = set()
    for cell in sorted(by_cell):
        indices = by_cell[cell]
        n_val = math.ceil(val_fraction * len(indices))
        if n_val >= len(indices):  # also every cell with a single sample
            raise ValueError(
                f"cell {cell}: val_fraction {val_fraction} takes all {len(indices)} "
                "of its samples, leaving none for training"
            )
        picked = rng.permutation(len(indices))[:n_val]
        val_indices.update(indices[k] for k in picked)

    train = [m for i, m in enumerate(mset.measurements) if i not in val_indices]
    val = [m for i, m in enumerate(mset.measurements) if i in val_indices]
    train_set = MeasurementSet(mset.scenario_name, mset.grid, train, mset.seed)
    val_set = MeasurementSet(mset.scenario_name, mset.grid, val, mset.seed)
    return train_set, val_set
