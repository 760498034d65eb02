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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autoencoder as ae
from .features import Pipeline


@dataclass(frozen=True)
class SearchSpace:
    pipeline: Pipeline
    e1_values: tuple[int, ...]
    e2_values: tuple[int, ...]
    batch_sizes: tuple[int, ...]
    learning_rates: tuple[float, ...]


# The examined combinations, per pipeline. D1 is tied to E1.
TABLE_SPACES: dict[Pipeline, SearchSpace] = {
    Pipeline.RNG: SearchSpace(
        Pipeline.RNG, (5, 15, 20), (20, 30, 40), (16, 32, 64), (0.001, 0.01)
    ),
    Pipeline.MA: SearchSpace(
        Pipeline.MA, (50, 55, 60, 65, 70), (70, 75, 80, 85, 90), (16, 32, 64), (0.001, 0.01)
    ),
    Pipeline.PCA: SearchSpace(
        Pipeline.PCA,
        (120, 125, 130, 135, 140),
        (145, 150, 155, 160, 165),
        (16, 32, 64),
        (0.001, 0.01),
    ),
}

@dataclass(frozen=True)
class Candidate:
    index: int
    n: int
    e1: int
    e2: int
    d1: int
    batch_size: int
    learning_rate: float


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
    for name, values in (
        ("e1_values", space.e1_values),
        ("e2_values", space.e2_values),
        ("batch_sizes", space.batch_sizes),
        ("learning_rates", space.learning_rates),
    ):
        if not values:
            raise ValueError(f"search space has empty {name}")
    candidates: list[Candidate] = []
    skipped: list[tuple[tuple, str]] = []
    index = 0
    for e1 in space.e1_values:
        for e2 in space.e2_values:
            for batch in space.batch_sizes:
                for lr in space.learning_rates:
                    if reason := ae.constraint_violation(n, e1, e2, e1):
                        skipped.append(((e1, e2, batch, lr), reason))
                        continue
                    candidates.append(Candidate(index, n, e1, e2, e1, batch, lr))
                    index += 1
    return candidates, skipped


def trial_seed(base_seed: int, candidate_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, candidate_index)).generate_state(1)[0])


def _run_group(args) -> list[TrialResult]:
    """Train candidates that share their layer widths and batch size as one
    ``ae.train_group`` stack; each result equals training it alone."""
    cands, train_rows, val_rows, base_seed, max_epochs, patience = args
    seeds = [trial_seed(base_seed, c.index) for c in cands]
    models = [ae.build(c.n, c.e1, c.e2, c.d1, seed=s) for c, s in zip(cands, seeds)]
    configs = [
        ae.TrainConfig(
            batch_size=c.batch_size,
            learning_rate=c.learning_rate,
            max_epochs=max_epochs,
            patience=patience,
            seed=s,
        )
        for c, s in zip(cands, seeds)
    ]
    results = []
    for cand, seed, outcome in zip(cands, seeds, ae.train_group(models, train_rows, val_rows, configs)):
        if isinstance(outcome, ae.TrainingDivergedError):
            results.append(TrialResult(cand, "failed", None, None, seed, str(outcome)))
        else:
            report = outcome[1]
            results.append(TrialResult(cand, "ok", report.final_val_mse, report.stopped_epoch, seed))
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
    max_epochs: int = 200,
    patience: int = 20,
) -> tuple[list[TrialResult], Candidate]:
    """Train every candidate and return results ranked by validation MSE.

    The result list is identical for any parallelism level.
    """
    n = int(np.asarray(train_rows).shape[1])
    candidates, _ = enumerate_candidates(space, n)
    if not candidates:
        raise ValueError("search space contains no valid candidates")
    groups: dict[tuple, list[Candidate]] = {}
    for c in candidates:
        groups.setdefault((c.e1, c.e2, c.d1, c.batch_size), []).append(c)
    tasks = [(g, train_rows, val_rows, base_seed, max_epochs, patience) for g in groups.values()]
    if parallelism <= 1:
        per_group = [_run_group(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            per_group = list(pool.map(_run_group, tasks))
    results = [r for group in per_group for r in group]
    ok = sorted((r for r in results if r.status == "ok"), key=_rank_key)
    failed = sorted((r for r in results if r.status != "ok"), key=lambda r: r.candidate.index)
    if not ok:
        raise RuntimeError("every trial failed")
    return ok + failed, ok[0].candidate


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
        w.writerow(["rank", "status", "e1", "e2", "d1", "batch_size", "learning_rate", "val_mse", "stopped_epoch"])
        for rec in records:
            w.writerow(
                [
                    rec["rank"],
                    rec["status"],
                    rec["e1"],
                    rec["e2"],
                    rec["d1"],
                    rec["batch_size"],
                    rec["learning_rate"],
                    "" if rec["val_mse"] is None else repr(rec["val_mse"]),
                    rec["stopped_epoch"],
                ]
            )
