"""Overcomplete dense autoencoder with hand-derived backpropagation.

Architecture: five dense layers with dimensions [N, E1, E2, D1, N] subject
to N < E1 <= E2 and D1 > N (equal E1 and E2 keeps the net overcomplete, and
the examined hyperparameter tables include that boundary). The first four
layers use ReLU, the output layer
uses Leaky ReLU. Training minimizes MSE with mini-batch Adam; all
randomness is seeded so training is bit-reproducible.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features as feat

N_LAYERS = 5
# Adam (Kingma & Ba 2015), the least validation-MSE drop that early stopping
# counts as an improvement, and the output layer's Leaky ReLU slope.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_DELTA = 1e-6
LEAKY_ALPHA = 0.01


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


def _layer_views(dims: tuple[int, ...], flat: np.ndarray | None = None):
    """``(flat, weights, biases)`` with per-layer views of ``flat`` (zeros when
    None). The only code that knows the layout: layer by layer, the row-major
    (fan_in, fan_out) weights, then the fan_out biases. A (C, P) stack of C
    parameter vectors gives (C, fan_in, fan_out) weights and (C, 1, fan_out)
    biases, which broadcast over a (C, rows, fan_in) batch."""
    if len(dims) != N_LAYERS:
        raise ValueError(f"dims must have {N_LAYERS} entries, got {list(dims)}")
    layers = list(zip(dims[:1] + dims[:-1], dims))
    ends = list(itertools.accumulate(n_in * n_out + n_out for n_in, n_out in layers))
    flat = np.zeros(ends[-1]) if flat is None else flat
    if flat.ndim not in (1, 2) or flat.shape[-1] != ends[-1]:
        raise ValueError(f"dims {list(dims)} need {ends[-1]} parameters, got {flat.shape}")
    stack = flat.shape[:-1]
    weights = [flat[..., end - n_out * (n_in + 1) : end - n_out].reshape(stack + (n_in, n_out))
               for (n_in, n_out), end in zip(layers, ends)]
    biases = [flat[..., end - n_out : end].reshape(stack + (1,) * len(stack) + (n_out,))
              for (_, n_out), end in zip(layers, ends)]
    return flat, weights, biases


@dataclass
class AutoencoderModel:
    dims: tuple[int, int, int, int, int]  # (N, E1, E2, D1, N)
    params: np.ndarray                    # float64 (P,), or (C, P) for a stack; see _layer_views
    leaky_alpha: float = LEAKY_ALPHA

    def __post_init__(self):
        # weights[l] has shape (dims[l_in], dims[l_out]); both lists are views
        _, self.weights, self.biases = _layer_views(self.dims, self.params)

    @property
    def n(self) -> int:
        return self.dims[0]

    def copy(self) -> "AutoencoderModel":
        return AutoencoderModel(self.dims, self.params.copy(), self.leaky_alpha)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

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


def constraint_violation(n: int, e1: int, e2: int, d1: int) -> str | None:
    """The violated overcompleteness inequality, or None when they all hold."""
    if e1 <= n:
        return f"N < N_E1 violated: {n} >= {e1}"
    if e2 < e1:
        return f"N_E1 <= N_E2 violated: {e1} > {e2}"
    if d1 <= n:
        return f"N_D1 > N violated: {d1} <= {n}"
    return None


def build(n: int, e1: int, e2: int, d1: int, seed: int = 0) -> AutoencoderModel:
    """Construct a model with fan-in-scaled uniform weights and zero biases.

    Raises ConstraintError naming the violated inequality when the
    overcompleteness constraints do not hold.
    """
    if reason := constraint_violation(n, e1, e2, d1):
        raise ConstraintError(reason)
    dims = (n, e1, e2, d1, n)
    params, weights, _ = _layer_views(dims)
    rng = np.random.default_rng(seed)
    # dims are the five dense layer widths; the input dimension equals N,
    # so the transition chain is n -> N -> E1 -> E2 -> D1 -> N.
    for w in weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return AutoencoderModel(dims, params)


def _activate(z: np.ndarray, layer: int, alpha: float) -> np.ndarray:
    if layer < N_LAYERS - 1:
        return np.maximum(z, 0.0)
    return np.where(z > 0.0, z, alpha * z)


def _activate_grad(z: np.ndarray, layer: int, alpha: float) -> np.ndarray:
    if layer < N_LAYERS - 1:
        return z > 0.0  # a multiply casts it to 1.0 / 0.0
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


def _reconstruct(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """The forward pass without the backprop caches; a stack maps shared (r, n)
    rows to (C, r, n)."""
    a = x
    for layer in range(N_LAYERS):
        a = _activate(a @ model.weights[layer] + model.biases[layer], layer, model.leaky_alpha)
    return a


def forward(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Reconstruction of a single feature vector (length N)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"expected input of length {model.n}, got {x.shape}")
    return _reconstruct(model, x[None, :])[0]


def forward_batch(model: AutoencoderModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.n:
        raise ValueError(f"expected (m, {model.n}) matrix, got {rows.shape}")
    return _reconstruct(model, rows)


def _stack_mse(stack: AutoencoderModel, rows: np.ndarray) -> np.ndarray:
    """(C,) MSE of each stacked model on the same (r, n) rows."""
    return np.mean((_reconstruct(stack, rows) - rows) ** 2, axis=(-2, -1))


def _backprop(stack: AutoencoderModel, batch: np.ndarray, grads: AutoencoderModel) -> np.ndarray:
    """Gradients of each stacked model's batch-and-feature-mean MSE on its own
    (m, n) slice of the (C, m, n) batch, written into ``grads`` (laid out like
    ``stack.params``); returns the (C,) losses. A stacked matmul or reduction
    equals the 2-D call on each slice bit for bit, so a model's gradient does
    not depend on the stack it is in."""
    zs, acts = _forward_cached(stack, batch)
    diff = acts[-1] - batch
    m, n = batch.shape[-2:]
    loss = np.add.reduce(diff**2, axis=(-2, -1)) / (m * n)  # np.mean, minus its wrapper
    delta = 2.0 * diff / (m * n)
    for layer in range(N_LAYERS - 1, -1, -1):
        delta = delta * _activate_grad(zs[layer], layer, stack.leaky_alpha)
        np.matmul(acts[layer].swapaxes(-1, -2), delta, out=grads.weights[layer])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ stack.weights[layer].swapaxes(-1, -2)
    return loss


def mse_gradients(model: AutoencoderModel, rows: np.ndarray):
    """Analytic gradients of the batch-and-feature-mean MSE with respect to
    every parameter. Returns (loss, grad); grad has the layout of params."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    stack = AutoencoderModel(model.dims, model.params[None], model.leaky_alpha)
    grads = AutoencoderModel(model.dims, np.empty_like(stack.params))
    loss = _backprop(stack, rows[None], grads)
    return float(loss[0]), grads.params[0]


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
    Raises TrainingDivergedError when a loss becomes non-finite.
    """
    result = train_group([model], train_rows, val_rows, [config])[0]
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


def train_group(
    models: list[AutoencoderModel],
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    configs: list[TrainConfig],
) -> list[tuple[AutoencoderModel, TrainReport] | TrainingDivergedError]:
    """``train`` for several models at once, bit for bit.

    The models must share ``dims`` and ``leaky_alpha``, and their configs
    ``batch_size``, ``max_epochs`` and ``patience``; learning rates and seeds
    may differ. They train as one (C, P) stack, each with its own shuffling,
    best snapshot, patience count and curves. A model leaves the stack when it
    stops early or diverges. Returns, in the models' order, what ``train``
    returns for each alone, or the TrainingDivergedError it raises.
    """
    train_rows = np.asarray(train_rows, dtype=float)
    val_rows = np.asarray(val_rows, dtype=float)
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")
    shared = {(m.dims, m.leaky_alpha, c.batch_size, c.max_epochs, c.patience)
              for m, c in zip(models, configs)}
    if len(models) != len(configs) or len(shared) != 1:
        raise ValueError("a group needs one config per model, and the models must share "
                         "dims and leaky_alpha, the configs batch_size, max_epochs and patience")
    dims, alpha, batch_size, max_epochs, patience = shared.pop()

    results: list = [None] * len(models)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    best = [m.params.copy() for m in models]
    best_val = [float("inf")] * len(models)
    waits = [0] * len(models)
    curves = [([], []) for _ in models]

    def report(k: int):
        train_curve, val_curve = curves[k]
        return (AutoencoderModel(dims, best[k], alpha),
                TrainReport(train_curve, val_curve, len(val_curve), best_val[k]))

    live = list(range(len(models)))  # stack slot -> model index
    params = np.stack([m.params for m in models])
    mom, vel = np.zeros_like(params), np.zeros_like(params)
    lr = np.array([[c.learning_rate] for c in configs])
    step = 0
    n_rows = train_rows.shape[0]

    for epoch in range(max_epochs):
        work = AutoencoderModel(dims, params, alpha)
        grads = AutoencoderModel(dims, np.empty_like(params))
        m_hat, denom = np.empty_like(params), np.empty_like(params)
        g = grads.params
        orders = np.stack([rngs[k].permutation(n_rows) for k in live])
        for batch_idx, start in enumerate(range(0, n_rows, batch_size)):
            loss = _backprop(work, train_rows[orders[:, start : start + batch_size]], grads)
            if not np.isfinite(loss).all():
                # a diverged model's result is kept now; its slot runs on,
                # unread, until the stack is compacted after the epoch
                for slot in np.flatnonzero(~np.isfinite(loss)):
                    if results[live[slot]] is None:
                        results[live[slot]] = TrainingDivergedError(
                            epoch, batch_idx, configs[live[slot]].learning_rate)
            step += 1
            # Adam in place, with the float ops of
            # mom = BETA1 * mom + (1 - BETA1) * g
            # vel = BETA2 * vel + (1 - BETA2) * g * g
            # params -= lr * m_hat / (sqrt(v_hat) + ADAM_EPS)
            np.multiply(mom, BETA1, out=mom)
            np.multiply(g, 1 - BETA1, out=m_hat)
            mom += m_hat
            np.multiply(vel, BETA2, out=vel)
            np.multiply(g, 1 - BETA2, out=denom)
            denom *= g
            vel += denom
            np.divide(mom, 1.0 - BETA1**step, out=m_hat)
            np.multiply(lr, m_hat, out=m_hat)
            np.divide(vel, 1.0 - BETA2**step, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            m_hat /= denom
            params -= m_hat

        train_mse, val_mse = _stack_mse(work, train_rows), _stack_mse(work, val_rows)
        for slot, k in enumerate(live):
            if results[k] is not None:
                continue
            curves[k][0].append(float(train_mse[slot]))
            curves[k][1].append(val := float(val_mse[slot]))
            if not np.isfinite(val):
                results[k] = TrainingDivergedError(epoch, -1, configs[k].learning_rate)
            elif val < best_val[k] - MIN_DELTA:
                best_val[k] = val
                best[k] = params[slot].copy()
                waits[k] = 0
            else:
                waits[k] += 1
                if waits[k] >= patience:
                    results[k] = report(k)
        keep = [results[k] is None for k in live]
        if not all(keep):
            live = [k for k, kept in zip(live, keep) if kept]
            if not live:
                break
            params, mom, vel, lr = params[keep], mom[keep], vel[keep], lr[keep]

    for k in live:
        results[k] = report(k)
    return results


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
    """Central-difference gradients of the single-sample MSE for every
    parameter, in the layout of params. Perturbations are applied at the
    pre-activation of the owning layer, which is algebraically identical to
    perturbing the parameter but allows batching the downstream forward
    passes; a bias acts as the weight of a constant input 1."""
    x = np.asarray(x, dtype=float)
    zs, acts = _forward_cached(model, x[None, :])
    grad, grads_w, grads_b = _layer_views(model.dims, np.empty_like(model.params))
    for layer in range(N_LAYERS):
        d_out = zs[layer].shape[1]
        # row i * d_out + j moves unit j by step times input i; the last
        # input is the biases' constant 1
        bump = np.kron(step * np.append(acts[layer][0], 1.0)[:, None], np.eye(d_out))
        lp = _loss_from_layer(model, layer, zs[layer] + bump, x)
        lm = _loss_from_layer(model, layer, zs[layer] - bump, x)
        g = (lp - lm) / (2.0 * step)
        grads_w[layer][...] = g[:-d_out].reshape(grads_w[layer].shape)
        grads_b[layer][...] = g[-d_out:]
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # the floor keeps finite-difference roundoff on near-zero gradients
    # from registering as relative error
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(model: AutoencoderModel, x: np.ndarray, step: float = 1e-5) -> float:
    """Max relative discrepancy between analytic and central-finite-difference
    gradients over every weight and bias."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"expected input of length {model.n}, got {x.shape}")
    _, grad = mse_gradients(model, x)
    return max_relative_error(grad, finite_difference_gradients(model, x, step))


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
    """Read a bundle; raises ValueError naming the file when it is not a JSON
    object, a key is missing, or its weight and bias shapes do not fit its
    dims."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        params, weights, biases = _layer_views(tuple(obj["dims"]))
        saved = [np.asarray(a, dtype=float) for a in obj["weights"] + obj["biases"]]
        shapes, fits = [a.shape for a in saved], [v.shape for v in weights + biases]
        if shapes != fits:
            raise ValueError(f"weight and bias shapes {shapes} do not fit dims, which need {fits}")
        for view, values in zip(weights + biases, saved):
            view[...] = values
        return {
            "model": AutoencoderModel(tuple(obj["dims"]), params, float(obj["leaky_alpha"])),
            "pipeline": feat.Pipeline(obj["pipeline"]) if "pipeline" in obj else None,
            "scaler": feat.scaler_from_json(obj["scaler"]) if "scaler" in obj else None,
            "pca": feat.pca_from_json(obj["pca"]) if "pca" in obj else None,
        }
    except KeyError as exc:
        raise ValueError(f"{path}: invalid model bundle: missing key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: invalid model bundle: {exc}") from exc
