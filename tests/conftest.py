"""Shared fixtures: the acceptance protocol's datasets and trained models.

Everything here is seeded; session scope keeps the expensive pieces (dataset
synthesis, autoencoder training) to one run each.
"""
from __future__ import annotations

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
