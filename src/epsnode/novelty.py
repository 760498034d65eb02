"""Reconstruction-error scoring and aggregation into per-cell error maps.

The per-anchor error is the absolute difference between an anchor's range
feature and its reconstruction, in scaled feature units; the total error is
the Euclidean norm across anchors. Cell values are the mean (configurable)
over that cell's samples.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autoencoder as ae
from . import features as feat
from .dataset import GridMap, MeasurementSet, reading, text_number


def anchor_error(y_hat, y):
    """Single-anchor error |y_hat - y|, elementwise on arrays."""
    return abs(y_hat - y)


def total_error(e):
    """Euclidean norm of the per-anchor errors, taken over the last axis."""
    e = np.asarray(e, dtype=float)
    if np.any(e < 0):
        raise ValueError("per-anchor errors must be non-negative")
    return np.sqrt(np.sum(e * e, axis=-1))


@dataclass
class ErrorMap:
    """Per-cell aggregated error; cells with no samples hold NaN, count 0."""

    grid: GridMap
    values: np.ndarray  # shape (ny, nx), NaN where missing
    counts: np.ndarray  # shape (ny, nx), int

    def __post_init__(self):
        shape = (self.grid.ny, self.grid.nx)
        if self.values.shape != shape or self.counts.shape != shape:
            raise ValueError(f"map arrays must have shape {shape}")


AGGREGATORS = {
    "mean": np.mean,
    "median": np.median,
    "max": np.max,
}


def score(
    model: ae.AutoencoderModel,
    scaler: feat.Scaler,
    pipeline: feat.Pipeline,
    pca: feat.PcaModel | None,
    mset: MeasurementSet,
    aggregate: str = "mean",
) -> tuple[ErrorMap, list[ErrorMap], np.ndarray]:
    """Score every measurement: extract -> scale -> reconstruct -> errors.

    Returns the total-error map, one map per anchor (in ``mset.anchor_ids``
    order) and the (m, n_anchors) per-anchor errors, one row per measurement
    in ``mset.measurements`` order.
    """
    if aggregate not in AGGREGATORS:
        raise ValueError(f"unknown aggregate {aggregate!r}")
    agg = AGGREGATORS[aggregate]
    pipeline = feat.Pipeline(pipeline)
    n_anchors = len(mset.anchor_ids)
    expected = feat.feature_length(pipeline, n_anchors, pca)
    if model.n != expected:
        raise ValueError(
            f"model input dim {model.n} does not match {pipeline.value} "
            f"feature length {expected}"
        )

    x = feat.scale(scaler, feat.extract_matrix(mset.measurements, pipeline, pca))
    recon = ae.forward(model, x)
    errors = anchor_error(recon[:, :n_anchors], x[:, :n_anchors])
    totals = total_error(errors)

    grid = mset.grid
    values = np.full((grid.ny, grid.nx), np.nan)
    counts = np.zeros((grid.ny, grid.nx), dtype=int)
    anchor_values = np.full((n_anchors, grid.ny, grid.nx), np.nan)
    for (i, j), rows in mset.rows_by_cell().items():
        values[j, i] = agg(totals[rows])
        counts[j, i] = len(rows)
        anchor_values[:, j, i] = agg(errors[rows], axis=0)

    error_map = ErrorMap(grid=grid, values=values, counts=counts)
    anchor_maps = [ErrorMap(grid=grid, values=v, counts=counts.copy()) for v in anchor_values]
    return error_map, anchor_maps, errors


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

_COLUMNS = ["i", "j", "value", "count"]


def error_map_csv(emap: ErrorMap) -> str:
    """The CSV text of a map, one row per cell: i, j, value, count. A leading
    comment line records the grid so the map is self-describing."""
    grid = emap.grid
    # as Python numbers: csv writes a float as its repr, and numpy's is "np.float64(...)"
    values, counts = emap.values.tolist(), emap.counts.tolist()
    f = io.StringIO()
    f.write(f"# grid={grid.spec}\n")
    w = csv.writer(f)
    w.writerow(_COLUMNS)
    w.writerows([i, j, values[j][i], counts[j][i]] for i, j in grid.cells())
    return f.getvalue()


def write_error_map_csv(emap: ErrorMap, path: str | Path) -> None:
    """Write :func:`error_map_csv` to ``path``; its rows end in CRLF, as csv writes them."""
    Path(path).write_text(error_map_csv(emap), encoding="utf-8", newline="")


def read_error_map_csv(path: str | Path) -> ErrorMap:
    """Inverse of :func:`write_error_map_csv`. Every grid cell must appear
    exactly once, with a count >= 0 and the value nan when the count is 0,
    else a finite value >= 0; a missing file, or a malformed, out-of-range,
    duplicate or missing row, raises ``dataset.InputFileError`` naming the
    file and line."""
    with reading(path, "error map"), Path(path).open("r", encoding="utf-8") as f:
        with reading(f"{path}: line 1", "grid comment"):
            first = f.readline().strip()
            if not first.startswith("# grid="):
                raise ValueError(f"expected '# grid=ox,oy,nx,ny,cell_size', got {first!r}")
            grid = GridMap.from_spec(first.removeprefix("# grid="))
        reader = csv.reader(f)
        with reading(f"{path}: line 2", "header"):
            if (header := next(reader, None)) != _COLUMNS:
                raise ValueError(f"expected {_COLUMNS}, got {header}")
        cells: dict[tuple[int, int], tuple[float, int]] = {}  # (j, i): (value, count), bounded by the rows
        while True:
            # the next row's line follows the grid line and the reader's lines so far
            with reading(f"{path}: line {reader.line_num + 2}", "row"):
                if (row := next(reader, None)) is None:
                    break
                i_s, j_s, value_s, count_s = row
                i, j, value, count = map(text_number, (i_s, j_s, value_s, count_s), (int, int, float, int))
                if not grid.contains_cell(i, j):
                    raise ValueError(f"cell ({i}, {j}) outside the {grid.nx}x{grid.ny} grid")
                if (j, i) in cells:
                    raise ValueError(f"duplicate cell ({i}, {j})")
                if count < 0:
                    raise ValueError(f"count must be >= 0, got {count}")
                if count == 0 and not math.isnan(value):
                    raise ValueError(f"a cell of count 0 takes the value nan, got {value}")
                if count > 0 and not 0.0 <= value < math.inf:  # NaN fails too
                    raise ValueError(f"a cell of count {count} takes a finite value >= 0, got {value}")
            cells[j, i] = value, count
        if len(cells) < grid.n_cells:
            # the first missing cell in row-major order is the first rank its sorted cells skip
            ranks = sorted(j * grid.nx + i for j, i in cells)
            j, i = divmod(next((k for k, rank in enumerate(ranks) if k != rank), len(ranks)), grid.nx)
            raise ValueError(f"{grid.n_cells - len(cells)} cells missing, first ({i}, {j})")
        # every cell is listed, so the grid's arrays take no more memory than its rows
        values = np.empty((grid.ny, grid.nx))
        counts = np.empty((grid.ny, grid.nx), dtype=int)
        for (j, i), (value, count) in cells.items():
            values[j, i], counts[j, i] = value, count
    return ErrorMap(grid=grid, values=values, counts=counts)
