"""Input pipelines turning raw measurements into model feature vectors.

Three pipelines are supported:

* RNG  — the per-anchor range estimates only (n_anchors features).
* MA   — ranges followed by, per anchor, the amplitudes of the first
         ``MA_PEAKS`` peaks of the two-period moving average of its CIR
         (n_anchors * (1 + MA_PEAKS) features).
* PCA  — ranges followed by a principal-component projection of the
         concatenated CIRs (n_anchors + k features).

The PCA model and the min-max scaler are fitted on nominal training data
only and frozen for inference.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .dataset import json_field, json_numbers

# The MA pipeline's peaks per anchor, and the PCA pipeline's default share
# of the variance that the kept components explain.
MA_PEAKS = 6
VARIANCE_TARGET = 0.90


class Pipeline(str, Enum):
    RNG = "RNG"
    MA = "MA"
    PCA = "PCA"


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray            # (d,)
    components: np.ndarray      # (d, k), orthonormal columns
    explained_ratio: np.ndarray  # (k,), sorted descending

    @property
    def k(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class Scaler:
    """Per-feature min-max map to [0, 1], fitted on training data.

    Inference values are deliberately not clamped: out-of-range values carry
    novelty signal. Constant features map to 0.
    """

    mins: np.ndarray
    maxs: np.ndarray


def moving_average(cir) -> np.ndarray:
    """Two-period moving average, same length as the input;
    y[0] = x[0], y[i] = (x[i] + x[i-1]) / 2."""
    x = np.asarray(cir, dtype=float)
    y = x.copy()
    y[1:] = 0.5 * (x[1:] + x[:-1])
    return y


def find_peaks(signal) -> np.ndarray:
    """Amplitudes of the first ``MA_PEAKS`` peaks in temporal order, zero-padded.

    An interior index i is a peak iff signal[i] > signal[i-1] and
    signal[i] >= signal[i+1] (the first sample of a plateau wins); endpoints
    are never peaks.
    """
    x = np.asarray(signal, dtype=float)
    inner = x[1:-1]
    peaks = inner[(inner > x[:-2]) & (inner >= x[2:])][:MA_PEAKS]
    out = np.zeros(MA_PEAKS)
    out[: len(peaks)] = peaks
    return out


# ---------------------------------------------------------------------------
# PCA (thin SVD of the centred rows)
# ---------------------------------------------------------------------------

def check_variance_target(value: float) -> float:
    """``value`` as a float; raises ``ValueError`` unless it lies in (0, 1]."""
    value = float(value)
    if not 0.0 < value <= 1.0:  # NaN fails too
        raise ValueError(f"variance_target must be in (0, 1], got {value}")
    return value


def fit_pca(rows: np.ndarray, variance_target: float = VARIANCE_TARGET) -> PcaModel:
    """Fit a PCA keeping the smallest number of components whose cumulative
    explained variance reaches ``variance_target``.

    The components come from a thin SVD of the centred rows, so the d x d
    covariance is never formed. SVD signs are arbitrary and may differ
    between LAPACK builds, so each component is flipped to make its
    largest-magnitude entry positive.
    """
    check_variance_target(variance_target)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need a 2D matrix with at least 2 rows")
    mean = rows.mean(axis=0)
    centered = rows - mean
    total = float(np.sum(centered * centered)) / (rows.shape[0] - 1)
    if total <= 1e-300:
        raise ValueError("degenerate data: zero total variance")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    ratios = s**2 / (rows.shape[0] - 1) / total
    k = int(np.searchsorted(np.cumsum(ratios), variance_target - 1e-12) + 1)
    k = min(k, len(ratios))
    components = vt[:k].T
    pivots = np.abs(components).argmax(axis=0)
    components = components * np.sign(components[pivots, np.arange(k)])
    return PcaModel(mean=mean, components=components, explained_ratio=ratios[:k].copy())


def each_row(f, x, n: int) -> np.ndarray:
    """``f`` on one length-n row, or on each row of an (m, n) matrix sent as
    an (m, 1, n) stack: matmul runs the one-row kernel on each slice, so a
    row keeps the bits it gets alone (an (m, n) product rounds otherwise)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"expected rows of length {n}, got {x.shape}")
    return f(x[..., None, :])[..., 0, :]


def apply_pca(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Projection of one length-d row, or of each row of an (m, d) matrix."""
    return each_row(lambda rows: (rows - model.mean) @ model.components, x, model.mean.size)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def fit_scaler(train: np.ndarray) -> Scaler:
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.shape[0] < 1:
        raise ValueError("need a nonempty 2D training matrix")
    return Scaler(mins=train.min(axis=0), maxs=train.max(axis=0))


def scale(scaler: Scaler, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    span = scaler.maxs - scaler.mins
    out = np.zeros_like(v)
    nz = span > 0
    out[..., nz] = (v[..., nz] - scaler.mins[nz]) / span[nz]
    return out


def arrays_to_json(obj) -> dict:
    """A dataclass of arrays (``Scaler``, ``PcaModel``) as a JSON object:
    one list per field, in field order."""
    return {f.name: getattr(obj, f.name).tolist() for f in fields(obj)}


def arrays_from_json(cls, obj: dict):
    """Inverse of :func:`arrays_to_json` for the dataclass ``cls``."""
    return cls(**{f.name: json_field(obj, f.name, json_numbers) for f in fields(cls)})


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def cir_matrix(measurements) -> np.ndarray:
    """(m, n_anchors * 152) matrix: each measurement's CIRs concatenated in
    anchor-id order."""
    return np.stack([r.cir for m in measurements for r in m.per_anchor]).reshape(len(measurements), -1)


def feature_length(pipeline: Pipeline, n_anchors: int, pca: PcaModel | None = None) -> int:
    if pipeline is Pipeline.RNG:
        return n_anchors
    if pipeline is Pipeline.MA:
        return n_anchors * (1 + MA_PEAKS)
    if pca is None:
        raise ValueError("PCA pipeline requires a fitted PcaModel")
    return n_anchors + pca.k


def extract_matrix(
    measurements, pipeline: Pipeline, pca: PcaModel | None = None
) -> np.ndarray:
    """Feature matrix, one row per measurement: the ranges in anchor-id
    order (the first n_anchors columns of every pipeline), then the
    pipeline's CIR features.

    MA peaks are found one CIR at a time rather than on an (m, A, 152) CIR
    cube, which would raise peak memory.
    """
    pipeline = Pipeline(pipeline)
    ranges = np.array([[r.range_m for r in m.per_anchor] for m in measurements], dtype=float)
    n_anchors = ranges.shape[1]
    width = feature_length(pipeline, n_anchors, pca)  # raises for PCA without a model
    if pipeline is Pipeline.RNG:
        return ranges
    if pipeline is Pipeline.MA:
        out = np.empty((len(ranges), width))
        out[:, :n_anchors] = ranges
        for row, m in zip(out, measurements):
            np.concatenate([find_peaks(moving_average(r.cir)) for r in m.per_anchor],
                           out=row[n_anchors:])
        return out
    return np.hstack([ranges, apply_pca(pca, cir_matrix(measurements))])
