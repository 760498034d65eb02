"""Shared fixtures: the acceptance protocol's datasets and trained models.

Everything here is seeded; session scope keeps the expensive pieces (dataset
synthesis, autoencoder training) to one run each.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from epsnode import autoencoder as ae
from epsnode import features as feat
from epsnode import simulator as sim
from epsnode.dataset import split

ACCEPT_SEED = 42


def msets_equal(a, b) -> bool:
    """Field-by-field MeasurementSet equality (CIR arrays compared exactly)."""
    if (a.scenario_name, a.grid, a.seed) != (b.scenario_name, b.grid, b.seed):
        return False
    if len(a.measurements) != len(b.measurements):
        return False
    for ma, mb in zip(a.measurements, b.measurements):
        if ma.cell != mb.cell or ma.pass_id != mb.pass_id:
            return False
        for ra, rb in zip(ma.per_anchor, mb.per_anchor):
            if ra.anchor_id != rb.anchor_id or ra.range_m != rb.range_m:
                return False
            if not np.array_equal(ra.cir, rb.cir):
                return False
    return True
SCORE_SEED = ACCEPT_SEED + 1000

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if detail:
        line += f" — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid():
    return sim.default_grid()


@pytest.fixture(scope="session")
def nominal_set(grid):
    return sim.generate_dataset(
        sim.scenario("nominal"), grid, passes=5, samples_per_cell=10,
        seed=ACCEPT_SEED, scenario_name="nominal",
    )


@pytest.fixture(scope="session")
def nominal_split(nominal_set):
    return split(nominal_set, 0.2, seed=ACCEPT_SEED)


@pytest.fixture(scope="session")
def preset_b_set(grid):
    return sim.generate_dataset(
        sim.scenario("B"), grid, passes=1, samples_per_cell=10,
        seed=SCORE_SEED, scenario_name="B",
    )


@pytest.fixture(scope="session")
def preset_c_set(grid):
    return sim.generate_dataset(
        sim.scenario("C"), grid, passes=1, samples_per_cell=10,
        seed=SCORE_SEED, scenario_name="C",
    )


def backprop_one(model, rows):
    """The training step's backprop on a stack of one: the
    batch-and-feature-mean MSE on the (m, n) rows and its gradient, laid out
    like ``model.params``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    stack = ae._Stack([model.dims])
    grads = np.empty(model.params.size)
    loss = ae._Pass(stack, stack.pack([model.params]), rows[None], grads).backprop()
    return float(loss[0]), stack.unpack(grads, 0)


def _loss_from_layer(model, layer, z_batch, x):
    """Per-row MSE obtained by resuming the forward pass at ``layer`` with
    the given pre-activation rows, which it overwrites."""
    a = ae._activate(z_batch, layer)
    for nxt in range(layer + 1, ae.N_LAYERS):
        a = ae._dense(model, a, nxt)
    return np.mean((a - x) ** 2, axis=1)


def finite_difference_gradients(model, x, step=1e-5):
    """Central-difference gradients of the single-sample MSE for every
    parameter, in the layout of params. Perturbations are applied at the
    pre-activation of the owning layer, which is algebraically identical to
    perturbing the parameter but allows batching the downstream forward
    passes; a bias acts as the weight of a constant input 1."""
    x = np.asarray(x, dtype=float)
    grad, grads_w, grads_b = ae._layer_views(model.dims, np.empty_like(model.params))
    a = x[None, :]
    for layer in range(ae.N_LAYERS):
        z = a @ model.weights[layer] + model.biases[layer]
        d_out = z.shape[1]
        # row i * d_out + j moves unit j by step times input i; the last
        # input is the biases' constant 1
        bump = np.kron(step * np.append(a[0], 1.0)[:, None], np.eye(d_out))
        lp = _loss_from_layer(model, layer, z + bump, x)
        lm = _loss_from_layer(model, layer, z - bump, x)
        g = (lp - lm) / (2.0 * step)
        grads_w[layer][...] = g[:-d_out].reshape(grads_w[layer].shape)
        grads_b[layer][...] = g[-d_out:]
        a = ae._activate(z, layer)
    return grad


def max_relative_error(analytic, numeric) -> float:
    # the floor keeps finite-difference roundoff on near-zero gradients
    # from registering as relative error
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(model, x) -> float:
    """Max relative discrepancy between the backprop gradients and central
    finite differences over every weight and bias, for one input row."""
    _, grad = backprop_one(model, x)
    return max_relative_error(grad, finite_difference_gradients(model, x))


def crosses_exactly(a, b, rect, margin=Fraction(0)) -> bool:
    """Does the open segment (a, b) meet the open rectangle ``rect`` grown by
    ``margin`` on every side (shrunk when negative)? A slab test in exact
    rational arithmetic: the t in (0, 1) whose point a + t (b - a) lies
    strictly between both pairs of faces form an open interval, and the
    segment crosses iff it is nonempty."""
    t_lo, t_hi = Fraction(0), Fraction(1)
    for axis, (lo, hi) in enumerate(((rect.xmin, rect.xmax), (rect.ymin, rect.ymax))):
        lo, hi = Fraction(lo) - margin, Fraction(hi) + margin
        p = Fraction(a[axis])
        d = Fraction(b[axis]) - p
        if lo >= hi:
            return False
        if d == 0:
            if not lo < p < hi:
                return False
        else:
            ta, tb = sorted(((lo - p) / d, (hi - p) / d))
            t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
    return t_lo < t_hi


def train_pipeline(pipeline, dims, batch_size, train_set, val_set, seed=ACCEPT_SEED):
    """Train one best-architecture model on nominal data; returns
    (model, scaler, report, pca). The PCA pipeline fits its projection on the
    training CIRs first; the other pipelines get pca=None."""
    pca = None
    if pipeline is feat.Pipeline.PCA:
        pca = feat.fit_pca(feat.cir_matrix(train_set.measurements))
    raw_train = feat.extract_matrix(train_set.measurements, pipeline, pca)
    scaler = feat.fit_scaler(raw_train)
    rows_train = feat.scale(scaler, raw_train)
    rows_val = feat.scale(scaler, feat.extract_matrix(val_set.measurements, pipeline, pca))
    n = rows_train.shape[1]
    model = ae.build(n, dims[0], dims[1], dims[0], seed=seed)
    config = ae.TrainConfig(batch_size=batch_size, learning_rate=1e-3, seed=seed)
    model, report = ae.train(model, rows_train, rows_val, config)
    return model, scaler, report, pca


@pytest.fixture(scope="session")
def trained_rng(nominal_split):
    train_set, val_set = nominal_split
    return train_pipeline(feat.Pipeline.RNG, (15, 30), 32, train_set, val_set)


@pytest.fixture(scope="session")
def trained_ma(nominal_split):
    train_set, val_set = nominal_split
    return train_pipeline(feat.Pipeline.MA, (70, 90), 64, train_set, val_set)


@pytest.fixture(scope="session")
def trained_pca(nominal_split):
    """(N, 120, 165, 120) with N = 4 + k, k taken from the data."""
    train_set, val_set = nominal_split
    return train_pipeline(feat.Pipeline.PCA, (120, 165), 32, train_set, val_set)
