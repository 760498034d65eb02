"""Overcomplete dense autoencoder with hand-derived backpropagation.

Architecture: five dense layers with dimensions [N, E1, E2, D1, N] subject
to N < E1 <= E2 and D1 > N (equal E1 and E2 keeps the net overcomplete, and
the examined hyperparameter tables include that boundary). The first four
layers use ReLU, the output layer
uses Leaky ReLU. Training minimizes MSE with mini-batch Adam; all
randomness is seeded so training is bit-reproducible.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features as feat

N_LAYERS = 5


class ConstraintError(ValueError):
    """An architecture violates the overcompleteness constraints."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, batch: int, learning_rate: float):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}, lr {learning_rate}"
        )
        self.epoch = epoch
        self.batch = batch
        self.learning_rate = learning_rate


@dataclass
class AutoencoderModel:
    dims: tuple[int, int, int, int, int]  # (N, E1, E2, D1, N)
    weights: list[np.ndarray]             # weights[l] has shape (dims[l_in], dims[l_out])
    biases: list[np.ndarray]
    leaky_alpha: float = 0.01

    @property
    def n(self) -> int:
        return self.dims[0]

    def copy(self) -> "AutoencoderModel":
        return AutoencoderModel(
            dims=self.dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            leaky_alpha=self.leaky_alpha,
        )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    min_delta: float = 1e-6
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")


@dataclass
class TrainReport:
    train_mse: list[float]
    val_mse: list[float]
    stopped_epoch: int
    final_val_mse: float


def build(
    n: int, e1: int, e2: int, d1: int, leaky_alpha: float = 0.01, seed: int = 0
) -> AutoencoderModel:
    """Construct a model with fan-in-scaled uniform weights and zero biases.

    Raises ConstraintError naming the violated inequality when the
    overcompleteness constraints do not hold.
    """
    if e1 <= n:
        raise ConstraintError(f"N < N_E1 violated: {n} >= {e1}")
    if e2 < e1:
        raise ConstraintError(f"N_E1 <= N_E2 violated: {e1} > {e2}")
    if d1 <= n:
        raise ConstraintError(f"N_D1 > N violated: {d1} <= {n}")
    if leaky_alpha <= 0:
        raise ValueError("leaky_alpha must be positive")
    dims = (n, e1, e2, d1, n)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    # dims are the five dense layer widths; the input dimension equals N,
    # so the transition chain is n -> N -> E1 -> E2 -> D1 -> N.
    for fan_in, fan_out in zip((n,) + dims[:-1], dims):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(dims=dims, weights=weights, biases=biases, leaky_alpha=leaky_alpha)


def _activate(z: np.ndarray, layer: int, alpha: float) -> np.ndarray:
    if layer < N_LAYERS - 1:
        return np.maximum(z, 0.0)
    return np.where(z > 0.0, z, alpha * z)


def _activate_grad(z: np.ndarray, layer: int, alpha: float) -> np.ndarray:
    if layer < N_LAYERS - 1:
        return (z > 0.0).astype(float)
    return np.where(z > 0.0, 1.0, alpha)


def _forward_cached(model: AutoencoderModel, x: np.ndarray):
    """Batch forward pass keeping pre/post activations for backprop."""
    a = x
    zs, acts = [], [x]
    for layer in range(N_LAYERS):
        z = a @ model.weights[layer] + model.biases[layer]
        a = _activate(z, layer, model.leaky_alpha)
        zs.append(z)
        acts.append(a)
    return zs, acts


def forward(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Reconstruction of a single feature vector (length N)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"expected input of length {model.n}, got {x.shape}")
    _, acts = _forward_cached(model, x[None, :])
    return acts[-1][0]


def forward_batch(model: AutoencoderModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.n:
        raise ValueError(f"expected (m, {model.n}) matrix, got {rows.shape}")
    _, acts = _forward_cached(model, rows)
    return acts[-1]


def mse(model: AutoencoderModel, rows: np.ndarray) -> float:
    out = forward_batch(model, rows)
    return float(np.mean((out - rows) ** 2))


def mse_gradients(model: AutoencoderModel, rows: np.ndarray):
    """Analytic gradients of the batch-and-feature-mean MSE with respect to
    every weight matrix and bias vector. Returns (loss, grads_w, grads_b)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    zs, acts = _forward_cached(model, rows)
    out = acts[-1]
    m, n = rows.shape
    loss = float(np.mean((out - rows) ** 2))
    delta = 2.0 * (out - rows) / (m * n)
    grads_w = [None] * N_LAYERS
    grads_b = [None] * N_LAYERS
    for layer in range(N_LAYERS - 1, -1, -1):
        delta = delta * _activate_grad(zs[layer], layer, model.leaky_alpha)
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
    return loss, grads_w, grads_b


def train(
    model: AutoencoderModel,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    config: TrainConfig,
) -> tuple[AutoencoderModel, TrainReport]:
    """Mini-batch Adam on MSE with early stopping on validation loss.

    The input model is not mutated; the returned model is the snapshot with
    the best validation MSE seen. Shuffling, batching, and accumulation
    order are all fixed by the config seed, so training is deterministic.
    """
    train_rows = np.asarray(train_rows, dtype=float)
    val_rows = np.asarray(val_rows, dtype=float)
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")
    work = model.copy()
    rng = np.random.default_rng(config.seed)

    m_w = [np.zeros_like(w) for w in work.weights]
    v_w = [np.zeros_like(w) for w in work.weights]
    m_b = [np.zeros_like(b) for b in work.biases]
    v_b = [np.zeros_like(b) for b in work.biases]
    step = 0

    best = work.copy()
    best_val = float("inf")
    epochs_since_improve = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    n_rows = train_rows.shape[0]

    for epoch in range(config.max_epochs):
        order = rng.permutation(n_rows)
        for batch_idx, start in enumerate(range(0, n_rows, config.batch_size)):
            batch = train_rows[order[start : start + config.batch_size]]
            loss, gw, gb = mse_gradients(work, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_idx, config.learning_rate)
            step += 1
            corr1 = 1.0 - config.beta1**step
            corr2 = 1.0 - config.beta2**step
            for layer in range(N_LAYERS):
                for params, grads, mom, vel in (
                    (work.weights, gw, m_w, v_w),
                    (work.biases, gb, m_b, v_b),
                ):
                    g = grads[layer]
                    mom[layer] = config.beta1 * mom[layer] + (1 - config.beta1) * g
                    vel[layer] = config.beta2 * vel[layer] + (1 - config.beta2) * g * g
                    m_hat = mom[layer] / corr1
                    v_hat = vel[layer] / corr2
                    params[layer] -= config.learning_rate * m_hat / (
                        np.sqrt(v_hat) + config.adam_eps
                    )

        train_curve.append(mse(work, train_rows))
        val = mse(work, val_rows)
        val_curve.append(val)
        if not np.isfinite(val):
            raise TrainingDivergedError(epoch, -1, config.learning_rate)
        if val < best_val - config.min_delta:
            best_val = val
            best = work.copy()
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve >= config.patience:
                break

    report = TrainReport(
        train_mse=train_curve,
        val_mse=val_curve,
        stopped_epoch=len(val_curve),
        final_val_mse=best_val,
    )
    return best, report


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def _loss_from_layer(model: AutoencoderModel, layer: int, z_batch: np.ndarray, x: np.ndarray):
    """Per-row MSE obtained by resuming the forward pass at ``layer`` with
    the given pre-activation rows."""
    a = _activate(z_batch, layer, model.leaky_alpha)
    for nxt in range(layer + 1, N_LAYERS):
        a = _activate(a @ model.weights[nxt] + model.biases[nxt], nxt, model.leaky_alpha)
    return np.mean((a - x) ** 2, axis=1)


def finite_difference_gradients(model: AutoencoderModel, x: np.ndarray, step: float = 1e-5):
    """Central-difference gradients of the single-sample MSE for every weight
    and bias. Perturbations are applied at the pre-activation of the owning
    layer, which is algebraically identical to perturbing the parameter but
    allows batching the downstream forward passes."""
    x = np.asarray(x, dtype=float)
    zs, acts = _forward_cached(model, x[None, :])
    grads_w, grads_b = [], []
    for layer in range(N_LAYERS):
        a_prev = acts[layer][0]
        z = zs[layer][0]
        d_in, d_out = model.weights[layer].shape

        n_params = d_in * d_out
        rows = np.repeat(np.arange(d_in), d_out)
        cols = np.tile(np.arange(d_out), d_in)
        delta = step * a_prev[rows]
        z_plus = np.tile(z, (n_params, 1))
        z_minus = z_plus.copy()
        z_plus[np.arange(n_params), cols] += delta
        z_minus[np.arange(n_params), cols] -= delta
        lp = _loss_from_layer(model, layer, z_plus, x)
        lm = _loss_from_layer(model, layer, z_minus, x)
        grads_w.append(((lp - lm) / (2.0 * step)).reshape(d_in, d_out))

        z_plus = np.tile(z, (d_out, 1))
        z_minus = z_plus.copy()
        z_plus[np.arange(d_out), np.arange(d_out)] += step
        z_minus[np.arange(d_out), np.arange(d_out)] -= step
        lp = _loss_from_layer(model, layer, z_plus, x)
        lm = _loss_from_layer(model, layer, z_minus, x)
        grads_b.append((lp - lm) / (2.0 * step))
    return grads_w, grads_b


def max_relative_error(analytic, numeric) -> float:
    worst = 0.0
    for a, n in zip(analytic, numeric):
        # the floor keeps finite-difference roundoff on near-zero gradients
        # from registering as relative error
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def gradient_check(model: AutoencoderModel, x: np.ndarray, step: float = 1e-5) -> float:
    """Max relative discrepancy between analytic and central-finite-difference
    gradients over every weight and bias."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"expected input of length {model.n}, got {x.shape}")
    _, gw, gb = mse_gradients(model, x)
    fw, fb = finite_difference_gradients(model, x, step)
    return max(max_relative_error(gw, fw), max_relative_error(gb, fb))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_bundle(
    path: str | Path,
    model: AutoencoderModel,
    pipeline: feat.Pipeline | None = None,
    scaler: feat.Scaler | None = None,
    pca: feat.PcaModel | None = None,
) -> None:
    """Persist the model plus the preprocessing artifacts it was trained with."""
    obj: dict = {
        "dims": list(model.dims),
        "leaky_alpha": model.leaky_alpha,
        "weights": [w.tolist() for w in model.weights],  # row-major
        "biases": [b.tolist() for b in model.biases],
    }
    if pipeline is not None:
        obj["pipeline"] = feat.Pipeline(pipeline).value
    if scaler is not None:
        obj["scaler"] = feat.scaler_to_json(scaler)
    if pca is not None:
        obj["pca"] = feat.pca_to_json(pca)
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def load_bundle(path: str | Path) -> dict:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    model = AutoencoderModel(
        dims=tuple(obj["dims"]),
        weights=[np.asarray(w, dtype=float) for w in obj["weights"]],
        biases=[np.asarray(b, dtype=float) for b in obj["biases"]],
        leaky_alpha=float(obj["leaky_alpha"]),
    )
    return {
        "model": model,
        "pipeline": feat.Pipeline(obj["pipeline"]) if "pipeline" in obj else None,
        "scaler": feat.scaler_from_json(obj["scaler"]) if "scaler" in obj else None,
        "pca": feat.pca_from_json(obj["pca"]) if "pca" in obj else None,
    }
