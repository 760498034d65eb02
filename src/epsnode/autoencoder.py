"""Overcomplete dense autoencoder with hand-derived backpropagation.

Architecture: five dense layers with dimensions [N, E1, E2, D1, N] subject
to N < E1 <= E2 and D1 > N (equal E1 and E2 keeps the net overcomplete, and
the examined hyperparameter tables include that boundary). The first four
layers use ReLU, the output layer
uses Leaky ReLU. Training minimizes MSE with mini-batch Adam; all
randomness is seeded so training is bit-reproducible.
"""
from __future__ import annotations

import collections
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features as feat
from .dataset import CIR_LENGTH, MAX_ARRAY_BYTES, json_integer, json_numbers, read_json_object, reading

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
    """Training blew up: a batch or validation loss became non-finite, or the
    best validation MSE ended above the untrained model's."""


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
    if ends[-1] * 8 > MAX_ARRAY_BYTES:
        raise ValueError(f"dims {list(dims)} need {ends[-1]} parameters, "
                         "more than one numpy array of floats holds")
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

    def __post_init__(self):
        # weights[l] has shape (dims[l_in], dims[l_out]); both lists are views
        _, self.weights, self.biases = _layer_views(self.dims, self.params)

    @property
    def n(self) -> int:
        return self.dims[0]


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.patience > self.max_epochs:
            raise ValueError(f"patience must not exceed max_epochs ({self.max_epochs}), got {self.patience}")


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


def _activate(z: np.ndarray, layer: int) -> np.ndarray:
    """The layer's activation of the pre-activations ``z``, in place: ReLU,
    or for the output layer Leaky ReLU, ``np.where(z > 0, z, LEAKY_ALPHA * z)``
    for every float."""
    return np.maximum(z, 0.0 if layer < N_LAYERS - 1 else LEAKY_ALPHA * z, out=z)


def _dense(model: AutoencoderModel, a: np.ndarray, layer: int) -> np.ndarray:
    """One layer on the rows ``a``: the product, then the bias and the
    activation in place."""
    z = a @ model.weights[layer]
    z += model.biases[layer]
    return _activate(z, layer)


def _activations(model: AutoencoderModel, a: np.ndarray):
    """The forward pass, lazily: the rows ``a``, then each layer's output."""
    yield a
    for layer in range(N_LAYERS):
        yield (a := _dense(model, a, layer))


def _reconstruct(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """The last activation; a stack maps shared (r, n) rows to (C, r, n)."""
    return collections.deque(_activations(model, x), maxlen=1).pop()


def forward(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Reconstruction of one length-N row, or of each row of an (m, N) matrix."""
    return feat.each_row(lambda rows: _reconstruct(model, rows), x, model.n)


def _stack_mse(stack: AutoencoderModel, rows: np.ndarray) -> np.ndarray:
    """(C,) MSE of each stacked model on the same (r, n) rows."""
    return np.mean((_reconstruct(stack, rows) - rows) ** 2, axis=(-2, -1))


def _backprop(stack: AutoencoderModel, batch: np.ndarray, grads: AutoencoderModel,
              loss: np.ndarray | None = None) -> np.ndarray:
    """Gradients of each stacked model's batch-and-feature-mean MSE on its own
    (m, n) slice of the (C, m, n) batch, written into ``grads`` (laid out like
    ``stack.params``); returns the (C,) losses, written into ``loss`` when
    given. A stacked matmul or reduction equals the 2-D call on each slice bit
    for bit, so a model's gradient does not depend on the stack it is in.

    Each slope is read from the layer's output: for ReLU, and for Leaky ReLU
    with a slope >= 0, an output is positive exactly where its pre-activation
    is (-0.0, NaN and a LEAKY_ALPHA * z that underflows included)."""
    acts = list(_activations(stack, batch))  # each layer's input, then the reconstruction
    out = acts[-1]
    diff = out - batch
    m, n = batch.shape[-2:]
    loss = np.divide(np.add.reduce(diff**2, axis=(-2, -1)), m * n, out=loss)  # np.mean, unwrapped
    delta = 2.0 * diff / (m * n)
    np.multiply(delta, LEAKY_ALPHA, out=delta, where=out <= 0.0)
    for layer in range(N_LAYERS - 1, -1, -1):
        np.matmul(acts[layer].swapaxes(-1, -2), delta, out=grads.weights[layer])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ stack.weights[layer].swapaxes(-1, -2)
            delta *= acts[layer] > 0.0  # a multiply casts it to 1.0 / 0.0
    return loss


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
    An epoch's train MSE is the row-weighted mean of its batch losses, each
    taken before that batch's update. Raises TrainingDivergedError when a loss
    becomes non-finite, or when the best validation MSE ends above the
    untrained model's.
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

    The models must share ``dims``, and their configs
    ``batch_size``, ``max_epochs`` and ``patience``; learning rates and seeds
    may differ. They train as one (C, P) stack, each with its own shuffling,
    best snapshot, patience count and curves. A model leaves the stack at the
    end of the epoch in which it stops early or a batch loss became
    non-finite. Returns, in the models' order, what ``train`` returns for each
    alone, or the TrainingDivergedError it raises.
    """
    train_rows = np.asarray(train_rows, dtype=float)
    val_rows = np.asarray(val_rows, dtype=float)
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")
    shared = {(m.dims, c.batch_size, c.max_epochs, c.patience) for m, c in zip(models, configs)}
    if len(models) != len(configs) or len(shared) != 1:
        raise ValueError("a group needs one config per model, and the models must share "
                         "dims, the configs batch_size, max_epochs and patience")
    dims, batch_size, max_epochs, patience = shared.pop()

    results: list = [None] * len(models)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    best = [None] * len(models)  # set in epoch 0: any finite validation MSE beats inf
    best_val = [float("inf")] * len(models)
    waits = [0] * len(models)
    curves = [([], []) for _ in models]

    def finish(k: int):
        train_curve, val_curve = curves[k]
        if best_val[k] > untrained[k]:
            return TrainingDivergedError(
                f"best validation MSE {best_val[k]:.6g} after {len(val_curve)} epochs exceeds "
                f"the untrained model's {untrained[k]:.6g}, lr {configs[k].learning_rate}")
        return (AutoencoderModel(dims, best[k]),
                TrainReport(train_curve, val_curve, len(val_curve), best_val[k]))

    live = list(range(len(models)))  # stack slot -> model index
    params = np.stack([m.params for m in models])
    untrained = _stack_mse(AutoencoderModel(dims, params), val_rows).tolist()
    mom, vel = np.zeros_like(params), np.zeros_like(params)
    lr = np.array([[c.learning_rate] for c in configs])
    step = 0
    n_rows = train_rows.shape[0]
    starts = range(0, n_rows, batch_size)
    sizes = np.diff([*starts, n_rows])[:, None]  # rows per batch

    for epoch in range(max_epochs):
        work = AutoencoderModel(dims, params)
        grads = AutoencoderModel(dims, np.empty_like(params))
        m_hat, denom = np.empty_like(params), np.empty_like(params)
        g = grads.params
        orders = np.stack([rngs[k].permutation(n_rows) for k in live])
        losses = np.empty((len(starts), len(live)))  # each batch's loss, per slot
        for loss, start in zip(losses, starts):
            _backprop(work, train_rows[orders[:, start : start + batch_size]], grads, loss)
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

        # summed in batch order, not pairwise as .sum() would, so the curves
        # keep their bits
        train_mse = np.add.accumulate(losses * sizes)[-1] / n_rows
        val_mse = _stack_mse(work, val_rows)
        for slot, k in enumerate(live):
            if (bad := np.flatnonzero(~np.isfinite(losses[:, slot]))).size:
                results[k] = TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bad[0]}, lr {configs[k].learning_rate}")
                continue
            curves[k][0].append(float(train_mse[slot]))
            curves[k][1].append(val := float(val_mse[slot]))
            if not np.isfinite(val):
                results[k] = TrainingDivergedError(
                    f"non-finite validation loss at epoch {epoch}, lr {configs[k].learning_rate}")
            elif val < best_val[k] - MIN_DELTA:
                best_val[k] = val
                best[k] = params[slot].copy()
                waits[k] = 0
            else:
                waits[k] += 1
                if waits[k] >= patience:
                    results[k] = finish(k)
        keep = [results[k] is None for k in live]
        if not all(keep):
            live = [k for k, kept in zip(live, keep) if kept]
            if not live:
                break
            params, mom, vel, lr = params[keep], mom[keep], vel[keep], lr[keep]

    for k in live:
        results[k] = finish(k)
    return results


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_bundle(
    path: str | Path,
    model: AutoencoderModel,
    pipeline: feat.Pipeline,
    scaler: feat.Scaler,
    pca: feat.PcaModel | None,
    anchor_ids: list[int],
) -> None:
    """Persist the model plus the preprocessing artifacts and the anchor ids
    it was trained with."""
    obj: dict = {
        "dims": list(model.dims),
        "leaky_alpha": LEAKY_ALPHA,
        "weights": [w.tolist() for w in model.weights],  # row-major
        "biases": [b.tolist() for b in model.biases],
        "pipeline": feat.Pipeline(pipeline).value,
        "scaler": feat.arrays_to_json(scaler),
    }
    if pca is not None:
        obj["pca"] = feat.arrays_to_json(pca)
    obj["anchor_ids"] = list(anchor_ids)
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def load_bundle(path: str | Path) -> dict:
    """Read a bundle; raises ``dataset.InputFileError`` naming the file when
    it is missing, not a JSON object, misses a key, holds a value of the
    wrong type (``dims`` and ``anchor_ids`` are JSON integers, and the
    arrays JSON numbers), a ``leaky_alpha`` other than LEAKY_ALPHA or a value
    that is not finite, when ``dims`` does not end in ``dims[0]`` or breaks
    the overcompleteness constraints, when its arrays or its anchor count do
    not fit its dims, or when it holds a ``pca`` with any pipeline but PCA,
    or none with PCA."""
    with reading(path, "model bundle"):
        obj = read_json_object(path)
        if obj["leaky_alpha"] != LEAKY_ALPHA:
            raise ValueError(f"leaky_alpha must be {LEAKY_ALPHA}, got {obj['leaky_alpha']!r}")
        dims = tuple(json_integer(d) for d in obj["dims"])
        params, weights, biases = _layer_views(dims)
        if dims[-1] != dims[0]:
            raise ValueError(f"dims {list(dims)} must end in dims[0], the input it reconstructs")
        if reason := constraint_violation(*dims[:4]):
            raise ConstraintError(f"dims {list(dims)}: {reason}")
        saved = [json_numbers(a) for a in obj["weights"] + obj["biases"]]
        shapes, fits = [a.shape for a in saved], [v.shape for v in weights + biases]
        if shapes != fits:
            raise ValueError(f"weight and bias shapes {shapes} do not fit dims, which need {fits}")
        for view, values in zip(weights + biases, saved):
            view[...] = values
        if not np.isfinite(params).all():
            raise ValueError("a weight or bias is not finite")
        pipeline = feat.Pipeline(obj["pipeline"])
        scaler = feat.arrays_from_json(feat.Scaler, obj["scaler"])
        arrays = {"scaler.mins": (scaler.mins, (dims[0],)), "scaler.maxs": (scaler.maxs, (dims[0],))}
        pca = None
        if pipeline is feat.Pipeline.PCA:
            pca = feat.arrays_from_json(feat.PcaModel, obj["pca"])
            k = pca.components.shape[-1] if pca.components.ndim == 2 else 0
            d = (dims[0] - k) * CIR_LENGTH  # the anchors' concatenated CIRs
            arrays |= {"pca.mean": (pca.mean, (d,)), "pca.components": (pca.components, (d, k)),
                       "pca.explained_ratio": (pca.explained_ratio, (k,))}
        elif "pca" in obj:
            raise ValueError(f"pipeline {pipeline.value} takes no pca")
        for name, (values, shape) in arrays.items():
            if values.shape != shape:
                raise ValueError(f"{name} has shape {values.shape}, dims {list(dims)} need {shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} holds a value that is not finite")
        anchor_ids = [json_integer(a) for a in obj["anchor_ids"]]
        if (width := feat.feature_length(pipeline, len(anchor_ids), pca)) != dims[0]:
            raise ValueError(f"{len(anchor_ids)} anchor_ids give {pipeline.value} features of "
                             f"length {width}, not dims[0] = {dims[0]}")
        return {"model": AutoencoderModel(dims, params), "pipeline": pipeline,
                "scaler": scaler, "pca": pca, "anchor_ids": anchor_ids}
