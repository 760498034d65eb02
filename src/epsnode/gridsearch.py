"""Exhaustive hyperparameter sweep with deterministic, schedule-independent
ranking.

Each candidate is trained with a seed derived from the base seed and its
enumeration index, so results do not depend on execution order or the level
of parallelism. Candidates that share their layer widths and batch size train
as one stack (``autoencoder.train_group``), bit-identical to training each
alone. Trials whose loss diverges are recorded as failed and never enter the
ranking.
"""
from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, fields
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import autoencoder as ae
from .features import Pipeline


@dataclass(frozen=True)
class SearchSpace:
    e1_values: tuple[int, ...]
    e2_values: tuple[int, ...]
    batch_sizes: tuple[int, ...]
    learning_rates: tuple[float, ...]


# The examined combinations, per pipeline. D1 is tied to E1.
TABLE_SPACES: dict[Pipeline, SearchSpace] = {
    Pipeline.RNG: SearchSpace((5, 15, 20), (20, 30, 40), (16, 32, 64), (0.001, 0.01)),
    Pipeline.MA: SearchSpace((50, 55, 60, 65, 70), (70, 75, 80, 85, 90), (16, 32, 64), (0.001, 0.01)),
    Pipeline.PCA: SearchSpace(
        (120, 125, 130, 135, 140), (145, 150, 155, 160, 165), (16, 32, 64), (0.001, 0.01)
    ),
}

@dataclass(frozen=True)
class Candidate:
    index: int
    e1: int
    e2: int
    batch_size: int
    learning_rate: float

    @property
    def d1(self) -> int:
        return self.e1  # the table ties D1 to E1


@dataclass
class TrialResult:
    candidate: Candidate
    status: str  # "ok" | "failed"
    val_mse: float | None
    stopped_epoch: int | None
    seed: int
    message: str = ""


def enumerate_candidates(
    space: SearchSpace, n: int
) -> tuple[list[Candidate], list[tuple[tuple, str]]]:
    """Full Cartesian product with D1 = E1; combinations violating the
    overcompleteness constraints are excluded with a reason."""
    for field in fields(space):
        if not getattr(space, field.name):
            raise ValueError(f"search space has empty {field.name}")
    candidates, skipped = [], []
    for combo in product(*astuple(space)):
        e1, e2, *_ = combo
        if reason := ae.constraint_violation(n, e1, e2, e1):
            skipped.append((combo, reason))
        else:
            candidates.append(Candidate(len(candidates), *combo))
    return candidates, skipped


def trial_seed(base_seed: int, candidate_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, candidate_index)).generate_state(1)[0])


def trial(candidate: Candidate, n: int, base_seed: int, max_epochs: int,
          patience: int) -> tuple[ae.AutoencoderModel, ae.TrainConfig]:
    """The untrained model of ``candidate`` for rows of length ``n``, and its
    training config, both seeded with its trial seed."""
    c, seed = candidate, trial_seed(base_seed, candidate.index)
    return ae.build(n, c.e1, c.e2, c.d1, seed=seed), ae.TrainConfig(
        batch_size=c.batch_size, learning_rate=c.learning_rate, max_epochs=max_epochs,
        patience=patience, seed=seed)


def _run_group(cands, train_rows, val_rows, base_seed, max_epochs, patience) -> list[TrialResult]:
    """Train candidates that share their layer widths and batch size as one
    ``ae.train_group`` stack; each result equals training it alone."""
    models, configs = zip(*(trial(c, train_rows.shape[1], base_seed, max_epochs, patience) for c in cands))
    results = []
    for cand, config, outcome in zip(cands, configs, ae.train_group(models, train_rows, val_rows, configs)):
        if isinstance(outcome, ae.TrainingDivergedError):
            results.append(TrialResult(cand, "failed", None, None, config.seed, str(outcome)))
        else:
            report = outcome[1]
            results.append(TrialResult(cand, "ok", report.final_val_mse, report.stopped_epoch, config.seed))
    return results


def _rank_key(r: TrialResult):
    c = r.candidate
    # ties: smaller E2, smaller E1, larger batch, earlier enumeration order
    return (r.val_mse, c.e2, c.e1, -c.batch_size, c.index)


def run(
    space: SearchSpace,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    parallelism: int = 1,
    base_seed: int = 0,
    max_epochs: int = ae.TrainConfig.max_epochs,
    patience: int = ae.TrainConfig.patience,
) -> tuple[list[TrialResult], Candidate]:
    """Train every candidate and return results ranked by validation MSE.

    The result list is identical for any parallelism level (>= 1).
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    train_rows = np.asarray(train_rows, dtype=float)
    candidates, _ = enumerate_candidates(space, train_rows.shape[1])
    if not candidates:
        raise ValueError("search space contains no valid candidates")
    groups: dict[tuple, list[Candidate]] = {}
    for c in candidates:
        groups.setdefault((c.e1, c.e2, c.batch_size), []).append(c)
    run_group = partial(_run_group, train_rows=train_rows, val_rows=val_rows, base_seed=base_seed,
                        max_epochs=max_epochs, patience=patience)
    if parallelism <= 1:
        per_group = list(map(run_group, groups.values()))
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when used

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            per_group = list(pool.map(run_group, groups.values()))
    results = [r for group in per_group for r in group]
    ok = sorted((r for r in results if r.status == "ok"), key=_rank_key)
    failed = sorted((r for r in results if r.status != "ok"), key=lambda r: r.candidate.index)
    if not ok:
        raise RuntimeError("every trial failed")
    return ok + failed, ok[0].candidate


_CSV_COLUMNS = ["rank", "status", "e1", "e2", "d1", "batch_size", "learning_rate", "val_mse", "stopped_epoch"]


def write_report(results: list[TrialResult], json_path: str | Path, csv_path: str | Path) -> None:
    records = [
        {
            "rank": rank,
            "status": r.status,
            "e1": r.candidate.e1,
            "e2": r.candidate.e2,
            "d1": r.candidate.d1,
            "batch_size": r.candidate.batch_size,
            "learning_rate": r.candidate.learning_rate,
            "val_mse": r.val_mse,
            "stopped_epoch": r.stopped_epoch,
            "seed": r.seed,
            "message": r.message,
        }
        for rank, r in enumerate(results)
    ]
    Path(json_path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    with Path(csv_path).open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(_CSV_COLUMNS)
        w.writerows([rec[key] for key in _CSV_COLUMNS] for rec in records)  # None as ""
