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


def param_count(dims: tuple[int, ...]) -> int:
    """The number of weights and biases of a model of ``dims``."""
    return sum(n_in * n_out + n_out for n_in, n_out in zip(dims[:1] + dims[:-1], dims))


def _carve(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of ``flat`` in the given shapes."""
    ends = itertools.accumulate(map(math.prod, shapes))
    return [flat[end - math.prod(shape) : end].reshape(shape) for shape, end in zip(shapes, ends)]


def _runs(keys: list) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal neighbours in ``keys``."""
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return list(zip([0, *cuts], [*cuts, len(keys)]))


class _Stack:
    """The one parameter layout, of C models of one input width.

    A stack vector is layer-major: for each layer, every model's row-major
    (fan_in, fan_out) weights, then every model's fan_out biases, each at a
    per-model offset. Neighbouring models that share a tensor's shape thus
    lie in one block, which a training step reads with one call; models
    sorted by dims make the fewest runs. A model's own (P,) vector is the
    stack vector of a stack of one."""

    def __init__(self, dims: list[tuple[int, ...]]):
        for d in dims:
            if len(d) != N_LAYERS:
                raise ValueError(f"dims must have {N_LAYERS} entries, got {list(d)}")
        self.dims = dims
        # per layer and kind (0 weights, 1 biases): each model's tensor shape,
        # the C + 1 offsets that bound the models' tensors, and the runs
        self.shapes = [[[(d[max(layer - 1, 0)] if kind == 0 else 1, d[layer]) for d in dims]
                        for kind in (0, 1)] for layer in range(N_LAYERS)]
        self.offsets, self.size = [], 0
        for layer in self.shapes:
            self.offsets.append([])
            for shapes in layer:
                self.offsets[-1].append(list(itertools.accumulate(map(math.prod, shapes), initial=self.size)))
                self.size = self.offsets[-1][-1][-1]
        self.runs = [[_runs(shapes) for shapes in layer] for layer in self.shapes]
        if self.size * 8 > MAX_ARRAY_BYTES:
            raise ValueError(f"dims {', '.join(str(list(d)) for d in dims)} need {self.size} parameters, "
                             "more than one numpy array of floats holds")

    def view(self, flat: np.ndarray, layer: int, kind: int, a: int, b: int) -> np.ndarray:
        """Models ``a:b``'s tensors of one kind of the layer, which they share
        the shape of, in the stack vector ``flat``: a (b - a, fan_in,
        fan_out) block of weights or a (b - a, 1, fan_out) one of biases."""
        o = self.offsets[layer][kind]
        return flat[o[a] : o[b]].reshape(b - a, *self.shapes[layer][kind][a])

    def tensors(self, flat: np.ndarray, slot: int) -> tuple[list, list]:
        """Model ``slot``'s per-layer weights and biases, as views of the
        stack vector ``flat``."""
        if flat.shape != (self.size,):
            raise ValueError(f"dims {list(self.dims[slot])} need {self.size} parameters, got {flat.shape}")
        return ([self.view(flat, layer, 0, slot, slot + 1)[0] for layer in range(N_LAYERS)],
                [self.view(flat, layer, 1, slot, slot + 1)[0, 0] for layer in range(N_LAYERS)])

    def _spans(self, slot: int) -> list[slice]:
        """Model ``slot``'s slices of a stack vector, in the order of its
        (P,) vector."""
        return [slice(o[slot], o[slot + 1]) for layer in self.offsets for o in layer]

    def pack(self, vectors: list[np.ndarray]) -> np.ndarray:
        """The stack vector of one (P,) vector per model."""
        flat = np.empty(self.size)
        for slot, vector in enumerate(vectors):
            spans = self._spans(slot)
            for span, part in zip(spans, _carve(vector, [(s.stop - s.start,) for s in spans])):
                flat[span] = part
        return flat

    def unpack(self, flat: np.ndarray, slot: int) -> np.ndarray:
        """A copy of model ``slot``'s (P,) vector in the stack vector ``flat``."""
        return np.concatenate([flat[span] for span in self._spans(slot)])


@dataclass
class AutoencoderModel:
    dims: tuple[int, int, int, int, int]  # (N, E1, E2, D1, N)
    params: np.ndarray                    # float64 (P,), laid out by _Stack

    def __post_init__(self):
        # weights[l] has shape (dims[l_in], dims[l_out]); both lists are views
        self.weights, self.biases = _Stack([self.dims]).tensors(self.params, 0)

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
    model = AutoencoderModel(dims, np.zeros(_Stack([dims]).size))
    rng = np.random.default_rng(seed)
    # dims are the five dense layer widths; the input dimension equals N,
    # so the transition chain is n -> N -> E1 -> E2 -> D1 -> N.
    for w in model.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


def _activate(z: np.ndarray, layer: int) -> np.ndarray:
    """The layer's activation of the pre-activations ``z``, in place: ReLU,
    or for the output layer Leaky ReLU, ``np.where(z > 0, z, LEAKY_ALPHA * z)``
    for every float."""
    return np.maximum(z, 0.0 if layer < N_LAYERS - 1 else LEAKY_ALPHA * z, out=z)


def _dense(weights: np.ndarray, bias: np.ndarray, a: np.ndarray, layer: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """One layer on the rows ``a``: the product, into ``out`` when given,
    then the bias and the activation in place."""
    z = np.matmul(a, weights, out=out)
    z += bias
    return _activate(z, layer)


def _reconstruct(weights: list, biases: list, x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The network's output for the rows ``x``. With ``scratch``, the layers
    write their outputs on the (m, N) rows at its start and its end in turn,
    as only the next layer reads one: it takes m times the widest two
    neighbouring layers."""
    for layer, (w, b) in enumerate(zip(weights, biases)):
        out = None
        if scratch is not None:
            size = len(x) * w.shape[1]
            out = (scratch[:size] if layer % 2 == 0 else scratch[-size:]).reshape(len(x), w.shape[1])
        x = _dense(w, b, x, layer, out)
    return x


def _mse(weights: list, biases: list, rows: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """The MSE of the network's reconstruction of the (m, N) rows."""
    diff = _reconstruct(weights, biases, rows, scratch)
    diff -= rows
    return float(np.mean(np.square(diff, out=diff)))


def forward(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Reconstruction of one length-N row, or of each row of an (m, N) matrix."""
    return feat.each_row(lambda rows: _reconstruct(model.weights, model.biases, rows), x, model.n)


class _Pass:
    """The training pass of the (C, m, N) rows ``x``, one (m, N) slice per
    model of the stack: forward through the stack vector ``params``, then
    backward, writing the gradients into ``grads``. Each layer's values on
    every model's rows are one flat buffer carved from ``scratch``, m rows
    per model at m times its bias offset, which backprop overwrites with
    the layer's delta; one more holds the squared errors (``floats`` gives
    the size). Each call's operands are made once, for every pass over new
    values of ``x``.

    A stacked matmul or reduction equals the 2-D call on each slice bit for
    bit, so a model's outputs and gradients do not depend on its stack."""

    @staticmethod
    def floats(stack: _Stack, m: int) -> int:
        """The scratch a pass of m rows per model needs."""
        widths = [o[-1] - o[0] for _, o in stack.offsets]
        return m * (sum(widths) + widths[-1])

    def __init__(self, stack: _Stack, params: np.ndarray, grads: np.ndarray, x: np.ndarray,
                 scratch: np.ndarray):
        self.x = x
        count, m, _ = x.shape
        widths = [o[-1] - o[0] for _, o in stack.offsets]
        *outs, square = _carve(scratch, [(m * w,) for w in [*widths, widths[-1]]])

        def rows(layer: int, a: int, b: int) -> np.ndarray:
            """Models ``a:b``'s (b - a, m, width) values of the layer, or
            their input rows for layer -1."""
            if layer < 0:
                return x[a:b]
            o = stack.offsets[layer][1]
            return outs[layer][m * (o[a] - o[0]) : m * (o[b] - o[0])].reshape(b - a, m, stack.dims[a][layer])

        # per layer, one call per run of models that share the weight's
        # shape, and one per run that shares the bias's
        self.layers = [([(rows(l - 1, a, b), stack.view(params, l, 0, a, b), rows(l, a, b))
                         for a, b in stack.runs[l][0]],
                        [(rows(l, a, b), stack.view(params, l, 1, a, b)) for a, b in stack.runs[l][1]],
                        outs[l]) for l in range(N_LAYERS)]
        self.out = rows(N_LAYERS - 1, 0, count)
        # each layer's delta, the loss's gradient by its pre-activations, in
        # the buffer of the layer's output; one bool buffer takes each slope
        self.square = square.reshape(self.out.shape)
        slopes = np.empty(max(map(len, outs)), dtype=bool)
        self.leaky = slopes[: self.out.size].reshape(self.out.shape)
        self.back = [(
            [(rows(l - 1, a, b).swapaxes(-1, -2), rows(l, a, b), stack.view(grads, l, 0, a, b))
             for a, b in stack.runs[l][0]],
            [(rows(l, a, b), stack.view(grads, l, 1, a, b)) for a, b in stack.runs[l][1]],
            [(rows(l, a, b), stack.view(params, l, 0, a, b).swapaxes(-1, -2), rows(l - 1, a, b))
             for a, b in stack.runs[l][0]] if l else [],
            (outs[l - 1], slopes[: outs[l - 1].size]) if l else None,
        ) for l in range(N_LAYERS)]

    def backprop(self, loss: np.ndarray | None = None) -> np.ndarray:
        """Gradients of each model's batch-and-feature-mean MSE on its slice
        of ``x``; returns the (C,) losses, written into ``loss`` when given.

        Each slope is read from the layer's output: for ReLU, and for Leaky
        ReLU with a slope >= 0, an output is positive exactly where its
        pre-activation is (-0.0, NaN and a LEAKY_ALPHA * z that underflows
        included)."""
        for layer, (products, biases, flat) in enumerate(self.layers):
            for a, w, z in products:
                np.matmul(a, w, out=z)
            for z, bias in biases:
                z += bias
            _activate(flat, layer)
        out = self.out
        m, n = self.x.shape[-2:]
        np.less_equal(out, 0.0, out=self.leaky)
        # the loss is np.mean(diff**2) unwrapped, the delta 2.0 * diff / (m * n)
        delta = np.subtract(out, self.x, out=out)
        loss = np.add.reduce(np.square(delta, out=self.square), axis=(-2, -1), out=loss)
        loss /= m * n
        delta *= 2.0
        delta /= m * n
        np.multiply(delta, LEAKY_ALPHA, out=delta, where=self.leaky)
        for products, sums, back, mask in reversed(self.back):
            for a_t, d, g in products:
                np.matmul(a_t, d, out=g)
            for d, g in sums:
                np.add.reduce(d, axis=-2, keepdims=True, out=g)
            if mask:  # the layer's input is read: its buffer takes the next delta
                act, positive = mask
                np.greater(act, 0.0, out=positive)
                for d, w_t, d_in in back:
                    np.matmul(d, w_t, out=d_in)
                act *= positive  # a multiply casts it to 1.0 / 0.0
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

    The models must share their input width N, and their configs
    ``batch_size``, ``max_epochs`` and ``patience``; hidden widths, learning
    rates and seeds may differ. The train and validation rows are (m, N)
    matrices. The models train as one ``_Stack``, sorted by dims, each with
    its own shuffling, best snapshot, patience count and curves. A model
    leaves the stack at the end of the epoch in which it stops early or a
    batch loss became non-finite. Returns, in the models' order, what
    ``train`` returns for each alone, or the TrainingDivergedError it raises.
    """
    shared = {(m.n, c.batch_size, c.max_epochs, c.patience) for m, c in zip(models, configs)}
    if len(models) != len(configs) or len(shared) != 1:
        raise ValueError("a group needs one config per model, and the models must share "
                         "their input width, the configs batch_size, max_epochs and patience")
    n, batch_size, max_epochs, patience = shared.pop()
    train_rows = np.asarray(train_rows, dtype=float)
    val_rows = np.asarray(val_rows, dtype=float)
    if {train_rows.ndim, val_rows.ndim} != {2} or {train_rows.shape[1], val_rows.shape[1]} != {n}:
        raise ValueError(f"train and validation rows must be (m, {n}) matrices, "
                         f"got {train_rows.shape} and {val_rows.shape}")
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")

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
        return (AutoencoderModel(models[k].dims, best[k]),
                TrainReport(train_curve, val_curve, len(val_curve), best_val[k]))

    n_rows, n_val = train_rows.shape[0], val_rows.shape[0]
    starts = range(0, n_rows, batch_size)
    sizes = np.diff([*starts, n_rows]).tolist()  # rows per batch
    live = sorted(range(len(models)), key=lambda k: models[k].dims)  # stack slot -> model index
    untrained = [_mse(model.weights, model.biases, val_rows) for model in models]
    # per slot: the parameters and Adam's moments
    vectors = [(models[k].params, np.zeros(models[k].params.size), np.zeros(models[k].params.size))
               for k in live]
    step = 0

    for epoch in range(max_epochs):
        if vectors:  # a new stack: the first one, or the models the last epoch kept
            stack = _Stack([models[k].dims for k in live])
            params, mom, vel = (stack.pack(v) for v in zip(*vectors))
            vectors = None
            # each parameter's learning rate: the float the models share, or
            # a vector of their own rates; either way lr * m_hat keeps its op
            rates = [configs[k].learning_rate for k in live]
            lr = rates[0] if len(set(rates)) == 1 else stack.pack(
                [np.full(models[k].params.size, rate) for k, rate in zip(live, rates)])
            grads, m_hat = np.empty_like(params), np.empty_like(params)
            # the training passes and the validation of each model never run
            # at once, so they share one scratch vector, sized for the largest
            # training pass and for one model's forward on the validation rows
            scratch = np.empty(max(*(_Pass.floats(stack, m) for m in set(sizes)),
                                   *(n_val * max(map(sum, itertools.pairwise(d))) for d in stack.dims)))
            train_passes = {m: _Pass(stack, params, grads, np.empty((len(live), m, n)), scratch)
                            for m in set(sizes)}
            tensors = [stack.tensors(params, slot) for slot in range(len(live))]
        orders = np.empty((len(live), n_rows), dtype=np.intp)  # filled in place, not held twice
        for order, k in zip(orders, live):
            order[...] = rngs[k].permutation(n_rows)
        losses = np.empty((len(starts), len(live)))  # each batch's loss, per slot
        for loss, start, size in zip(losses, starts, sizes):
            batch = train_passes[size]
            # the indices are a permutation's, so "clip" never clips; it
            # spares the copy of `out` that "raise" makes
            np.take(train_rows, orders[:, start : start + size], axis=0, out=batch.x, mode="clip")
            batch.backprop(loss)
            step += 1
            # Adam in place, with the float ops of
            # mom = BETA1 * mom + (1 - BETA1) * g
            # vel = BETA2 * vel + (1 - BETA2) * g * g
            # params -= lr * m_hat / (sqrt(v_hat) + ADAM_EPS)
            # with m_hat as scratch, and grads once the gradients are read
            np.multiply(mom, BETA1, out=mom)
            np.multiply(grads, 1 - BETA1, out=m_hat)
            mom += m_hat
            np.multiply(vel, BETA2, out=vel)
            np.multiply(grads, 1 - BETA2, out=m_hat)
            m_hat *= grads
            vel += m_hat
            np.divide(mom, 1.0 - BETA1**step, out=m_hat)
            np.multiply(lr, m_hat, out=m_hat)
            np.divide(vel, 1.0 - BETA2**step, out=grads)
            np.sqrt(grads, out=grads)
            grads += ADAM_EPS
            m_hat /= grads
            params -= m_hat

        # summed in batch order, not pairwise as .sum() would, so the curves
        # keep their bits
        train_mse = np.add.accumulate(losses * np.array(sizes)[:, None])[-1] / n_rows
        val_mse = [_mse(weights, biases, val_rows, scratch) for weights, biases in tensors]
        for slot, k in enumerate(live):
            if (bad := np.flatnonzero(~np.isfinite(losses[:, slot]))).size:
                results[k] = TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bad[0]}, lr {configs[k].learning_rate}")
                continue
            curves[k][0].append(float(train_mse[slot]))
            curves[k][1].append(val := val_mse[slot])
            if not math.isfinite(val):
                results[k] = TrainingDivergedError(
                    f"non-finite validation loss at epoch {epoch}, lr {configs[k].learning_rate}")
            elif val < best_val[k] - MIN_DELTA:
                best_val[k] = val
                best[k] = stack.unpack(params, slot)
                waits[k] = 0
            else:
                waits[k] += 1
                if waits[k] >= patience:
                    results[k] = finish(k)
        kept = [slot for slot, k in enumerate(live) if results[k] is None]
        if len(kept) < len(live):
            vectors = [[stack.unpack(v, slot) for v in (params, mom, vel)] for slot in kept]
            live = [live[slot] for slot in kept]
            if not live:
                break

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
        model = AutoencoderModel(dims, np.zeros(_Stack([dims]).size))
        if dims[-1] != dims[0]:
            raise ValueError(f"dims {list(dims)} must end in dims[0], the input it reconstructs")
        if reason := constraint_violation(*dims[:4]):
            raise ConstraintError(f"dims {list(dims)}: {reason}")
        saved = [json_numbers(a) for a in obj["weights"] + obj["biases"]]
        views = model.weights + model.biases
        shapes, fits = [a.shape for a in saved], [v.shape for v in views]
        if shapes != fits:
            raise ValueError(f"weight and bias shapes {shapes} do not fit dims, which need {fits}")
        for view, values in zip(views, saved):
            view[...] = values
        if not np.isfinite(model.params).all():
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
        return {"model": model, "pipeline": pipeline,
                "scaler": scaler, "pca": pca, "anchor_ids": anchor_ids}
