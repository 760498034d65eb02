"""Quantitative heatmap scoring: KDE over the grid and KL divergence.

An error map is turned into a discrete probability density by placing an
isotropic Gaussian kernel at every cell center, weighted by the cell error,
and evaluating at all cell centers. On the regular grid that kernel is the
product of two 1-D Gaussians, one per axis (a separable product kernel,
Silverman 1986, *Density Estimation*), so the density of the (ny, nx) weights
W is ``Ky @ W @ Kx`` and takes O(nx² + ny² + n) memory for n cells. Predicted
densities are compared to a proximity-based ground-truth density via KL
divergence (natural log).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import GridMap
from .novelty import ErrorMap
from .simulator import Environment

DEFAULT_BANDWIDTH = 0.5  # meters, one cell
DEFAULT_EPS = 1e-9
GROUND_TRUTH_RADIUS = 0.75  # meters
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass
class DensityMap:
    grid: GridMap
    p: np.ndarray  # shape (ny, nx), non-negative, sums to 1

    def __post_init__(self):
        if self.p.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("density shape must match grid")
        if not np.isfinite(self.p).all():
            raise ValueError(f"density values must be finite, got {self.p[~np.isfinite(self.p)][0]}")
        if np.any(self.p < 0):
            raise ValueError("density values must be non-negative")
        if abs(float(self.p.sum()) - 1.0) > 1e-9:
            raise ValueError("density must sum to 1")


@dataclass
class KlReport:
    scenario: str
    pipeline: str
    bandwidth: float
    eps: float
    kl_pred_vs_truth: float
    kl_uniform_vs_truth: float

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # each result is checked instead
def kde(emap: ErrorMap, bandwidth: float = DEFAULT_BANDWIDTH) -> DensityMap:
    """Smooth cell errors into a probability density over the cell centers.

    Missing cells contribute zero weight. The output is normalized to sum 1,
    so the result is invariant to uniform scaling of the input map.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {bandwidth}")
    weights = np.nan_to_num(emap.values, nan=0.0)
    if np.any(weights < 0):
        raise ValueError("error map values must be non-negative")
    if weights.sum() <= 0:
        raise ValueError("no density mass: error map is all zero")
    # the 1-D kernel between the cell centers along each axis; each is symmetric, so Kx.T is Kx.
    # A tiny bandwidth overflows the exponent to -inf, whose entry exp(-inf) = 0 is exact, or
    # underflows 2h² to 0, whose 0/0 is refused; a huge one overflows 2h² to inf, and every entry is 1
    kx, ky = (np.exp(-np.subtract.outer(c, c) ** 2 / (2.0 * np.float64(bandwidth) ** 2))
              for c in emap.grid.cell_center(np.arange(emap.grid.nx), np.arange(emap.grid.ny)))
    if not (np.isfinite(kx).all() and np.isfinite(ky).all()):
        raise ValueError(f"bandwidth must be large enough for a finite kernel, got {bandwidth}")
    density = ky @ weights @ kx
    if not math.isfinite(total := density.sum()):
        raise ValueError(f"error map values too large: their density sums to {total}")
    return DensityMap(grid=emap.grid, p=density / total)


def uniform_density(grid: GridMap) -> DensityMap:
    p = np.full((grid.ny, grid.nx), 1.0 / grid.n_cells)
    return DensityMap(grid=grid, p=p)


def kl_divergence(p: DensityMap, q: DensityMap, eps: float = DEFAULT_EPS) -> float:
    """KL(P || Q) in nats after flooring both densities at eps and
    renormalizing (Q = 0 would otherwise be undefined). eps is a normal float
    below 1: a floor of 1 or more lifts every value, so both become uniform
    (and at 1e308 their sum overflows), and a subnormal one lets P / Q overflow.
    The rounding residue below 0 of two near-equal densities reads 0.0."""
    if not _TINY <= eps < 1.0:
        raise ValueError(f"eps must be a normal float below 1 ({_TINY} <= eps < 1), got {eps}")
    if p.grid != q.grid:
        raise ValueError("density maps must share the same grid")
    pf = np.maximum(p.p, eps)
    qf = np.maximum(q.p, eps)
    pf = pf / pf.sum()
    qf = qf / qf.sum()
    return max(0.0, float(np.sum(pf * np.log(pf / qf))))


def ground_truth_density(
    scenario_env: Environment, grid: GridMap, bandwidth: float = DEFAULT_BANDWIDTH
) -> DensityMap:
    """Indicator density: weight 1 on cells whose center lies within
    GROUND_TRUTH_RADIUS of any novelty obstacle footprint, smoothed with the same KDE."""
    if not scenario_env.obstacles:
        raise ValueError("no novelty to locate: scenario has no obstacles")
    values = np.zeros((grid.ny, grid.nx))
    for i, j in grid.cells():
        center = grid.cell_center(i, j)
        if any(o.footprint.distance_to(center) <= GROUND_TRUTH_RADIUS for o in scenario_env.obstacles):
            values[j, i] = 1.0
    if not values.any():
        raise ValueError(f"no cell of the grid {grid.spec} lies within GROUND_TRUTH_RADIUS "
                         f"({GROUND_TRUTH_RADIUS} m) of the scenario's obstacles")
    emap = ErrorMap(grid=grid, values=values, counts=np.ones((grid.ny, grid.nx), dtype=int))
    return kde(emap, bandwidth)

