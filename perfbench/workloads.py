"""The benchmark's workloads: set-up and one timed iteration each.

Every call into the package goes through ``Tracer.span`` with a name whose
first part is the module called (``simulator``, ``dataset``, ``features``,
``autoencoder``, ``novelty``, ``evaluation``, ``gridsearch``, ``render``), so
the traced run can split an iteration's time by layer.

An iteration returns an ``Outcome``: one fingerprint per operation (a scored
map or a sweep trial), which the runner compares against the
recorded references or across repeats, plus the quality numbers behind the
``evaluation.kl_ratio`` and ``autoencoder.best_val_mse`` metrics.

The perturbed sets B and C are simulated with one pass, as in the tests.

Seeds follow ``tests/conftest.py``: the benchmark seed drives the nominal set,
the split and the models; the perturbed sets use seed + 1000.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from epsnode import autoencoder as ae
from epsnode import dataset as ds
from epsnode import evaluation as ev
from epsnode import features as feat
from epsnode import gridsearch as gs
from epsnode import novelty as nov
from epsnode import render
from epsnode import simulator as sim

from spans import Tracer

GRID = sim.default_grid()
PERTURBED_SEED_OFFSET = 1000
VAL_FRACTION = 0.2
LEARNING_RATE = 1e-3
# Reference architectures (E1, E2; D1 = E1) and batch sizes, as in the tests.
MODELS = (
    (feat.Pipeline.RNG, 15, 30, 32),
    (feat.Pipeline.MA, 70, 90, 64),
)
SWEEP_SPACE = gs.TABLE_SPACES[feat.Pipeline.RNG]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    nominal_passes: int = 5       # training set
    samples_per_cell: int = 10
    max_epochs: int = 200
    # The full 200-epoch sweep takes 86-103 s, over the per-run limit; every
    # candidate is kept and trains this many epochs (patience equal, so no
    # trial stops early and the work done does not depend on the seed).
    sweep_epochs: int = 15


FULL = Sizes()
TINY = Sizes(1, 2, 2, 1)


@dataclass
class Outcome:
    fingerprints: dict[str, str] = field(default_factory=dict)
    kl_ratios: list[float] = field(default_factory=list)
    val_mses: list[float] = field(default_factory=list)


@dataclass
class State:
    seed: int
    work: Path
    sizes: Sizes
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[State], None]
    iteration: Callable[[State, Tracer], Outcome]
    n_ops: int            # operations per iteration


# ---------------------------------------------------------------------------
# calls into the package, one span each
# ---------------------------------------------------------------------------

def simulate(tr: Tracer, preset: str, passes: int, seed: int, sizes: Sizes) -> ds.MeasurementSet:
    with tr.span("simulator.generate_dataset"):
        mset = sim.generate_dataset(
            sim.scenario(preset), GRID, passes=passes,
            samples_per_cell=sizes.samples_per_cell, seed=seed, scenario_name=preset,
        )
    tr.count("simulator.cirs", len(mset) * len(mset.measurements[0].per_anchor))
    return mset


def save(tr: Tracer, mset: ds.MeasurementSet, path: Path) -> None:
    with tr.span("dataset.save"):
        ds.save(mset, path)


def load(tr: Tracer, path: Path) -> ds.MeasurementSet:
    with tr.span("dataset.load"):
        mset = ds.load(path)
    tr.count("dataset.bytes", path.stat().st_size)
    return mset


def split(tr: Tracer, mset: ds.MeasurementSet, seed: int):
    with tr.span("dataset.split"):
        return ds.split(mset, VAL_FRACTION, seed=seed)


def features(tr: Tracer, pipe: feat.Pipeline, train_set, val_set):
    """Scaled (train, val) rows and the scaler fitted on the train rows."""
    with tr.span(f"features.extract.{pipe.value}"):
        raw_train = feat.extract_matrix(train_set.measurements, pipe)
        raw_val = feat.extract_matrix(val_set.measurements, pipe)
    with tr.span("features.scale"):
        scaler = feat.fit_scaler(raw_train)
        return feat.scale(scaler, raw_train), feat.scale(scaler, raw_val), scaler


def train(tr: Tracer, pipe: feat.Pipeline, e1: int, e2: int, batch: int, lr: float,
          rows_train, rows_val, seed: int, max_epochs: int, patience: int):
    with tr.span("autoencoder.build"):
        model = ae.build(rows_train.shape[1], e1, e2, e1, seed=seed)
    config = ae.TrainConfig(
        batch_size=batch, learning_rate=lr, max_epochs=max_epochs,
        patience=min(patience, max_epochs), seed=seed,
    )
    with tr.span(f"autoencoder.train.{pipe.value}"):
        model, report = ae.train(model, rows_train, rows_val, config)
    epochs, n_rows = report.stopped_epoch, rows_train.shape[0]
    params = sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
    tr.count("autoencoder.epochs", epochs)
    tr.count("autoencoder.early_stops", int(epochs < max_epochs))
    tr.count("autoencoder.steps", epochs * math.ceil(n_rows / batch))
    # forward + backward of a dense net: about 6 flops per parameter per row
    tr.count("autoencoder.flops", 6 * epochs * n_rows * params)
    return model, report


def score_map(tr: Tracer, out: Outcome, key: str, bundle: dict, mset: ds.MeasurementSet,
              preset: str, work: Path) -> None:
    """Score one set, write the map as CSV, ASCII and PGM, rate it with
    KDE + KL; the map's fingerprint is the SHA-256 of the written bytes."""
    with tr.span("novelty.score"):
        emap, _, _ = nov.score(bundle["model"], bundle["scaler"], bundle["pipeline"], None, mset)
    tr.count("novelty.rows", len(mset))
    csv_path, pgm_path = work / f"{key}.csv", work / f"{key}.pgm"
    with tr.span("novelty.write_csv"):
        nov.write_error_map_csv(emap, csv_path)
    with tr.span("render"):
        text = render.ascii_heatmap(emap.values, title=key)
        render.write_pgm(emap.values, pgm_path)
    with tr.span("evaluation.kde_kl"):
        truth = ev.ground_truth_density(sim.scenario(preset), GRID)
        ratio = ev.kl_divergence(ev.kde(emap), truth) / ev.kl_divergence(
            ev.uniform_density(GRID), truth
        )
    digest = hashlib.sha256(csv_path.read_bytes())
    digest.update(pgm_path.read_bytes())
    digest.update(text.encode("utf-8"))
    out.fingerprints[key] = digest.hexdigest()
    out.kl_ratios.append(ratio)


def perturbed_sets(tr: Tracer, st: State) -> dict[str, ds.MeasurementSet]:
    seed = st.seed + PERTURBED_SEED_OFFSET
    return {p: simulate(tr, p, 1, seed, st.sizes) for p in ("B", "C")}


# ---------------------------------------------------------------------------
# protocol: the acceptance run, simulate -> save/load -> train -> score
# ---------------------------------------------------------------------------

def protocol_setup(st: State) -> None:
    # The run builds all its inputs itself; set-up warms every code path with
    # one iteration at the smallest sizes, so lazy first-call costs stay out of
    # the timed iterations.
    tiny = State(st.seed, st.work, TINY)
    protocol_iteration(tiny, Tracer("setup", 0, enabled=False))


def protocol_iteration(st: State, tr: Tracer) -> Outcome:
    sizes, out = st.sizes, Outcome()
    nominal = simulate(tr, "nominal", sizes.nominal_passes, st.seed, sizes)
    scoring = perturbed_sets(tr, st)
    path = st.work / "nominal.jsonl"
    save(tr, nominal, path)
    train_set, val_set = split(tr, load(tr, path), st.seed)
    for pipe, e1, e2, batch in MODELS:
        rows_train, rows_val, scaler = features(tr, pipe, train_set, val_set)
        model, report = train(tr, pipe, e1, e2, batch, LEARNING_RATE, rows_train, rows_val,
                              st.seed, sizes.max_epochs, patience=20)
        out.val_mses.append(report.final_val_mse)
        bundle = {"model": model, "scaler": scaler, "pipeline": pipe}
        for preset, mset in scoring.items():
            score_map(tr, out, f"{pipe.value}_{preset}", bundle, mset, preset, st.work)
    return out


# ---------------------------------------------------------------------------
# sweep: the 54-candidate RNG grid search, training only
# ---------------------------------------------------------------------------

def sweep_setup(st: State) -> None:
    tr = Tracer("setup", 0, enabled=False)
    nominal = simulate(tr, "nominal", st.sizes.nominal_passes, st.seed, st.sizes)
    train_set, val_set = split(tr, nominal, st.seed)
    rows_train, rows_val, _ = features(tr, feat.Pipeline.RNG, train_set, val_set)
    st.data = {"rows": (rows_train, rows_val)}


def sweep_iteration(st: State, tr: Tracer) -> Outcome:
    out, epochs = Outcome(), st.sizes.sweep_epochs
    rows_train, rows_val = st.data["rows"]
    with tr.span("gridsearch.run"):
        results, _ = gs.run(SWEEP_SPACE, rows_train, rows_val, parallelism=1,
                            base_seed=st.seed, max_epochs=epochs, patience=epochs)
    steps_per_epoch = {b: math.ceil(rows_train.shape[0] / b) for b in SWEEP_SPACE.batch_sizes}
    tr.count("gridsearch.trials", len(results))
    tr.count("gridsearch.failed", sum(r.status != "ok" for r in results))
    tr.count("gridsearch.steps", sum((r.stopped_epoch or 0) * steps_per_epoch[r.candidate.batch_size]
                                     for r in results))
    for rank, r in enumerate(results):
        out.fingerprints[f"trial{rank:02d}"] = f"{r.candidate.index}:{r.status}"
    out.val_mses.append(results[0].val_mse)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("protocol", protocol_setup, protocol_iteration, n_ops=4),
        Workload("sweep", sweep_setup, sweep_iteration,
                 n_ops=len(gs.enumerate_candidates(SWEEP_SPACE, 4)[0])),
    )
}
