"""Benchmark runner for epsnode.

    python3 perfbench/run.py --workload protocol --seed 42 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory. One run sets the workload up ``SETUP_REPS`` times, then
repeats the timed iteration until ``--seconds`` have passed and at least
``MIN_ITERATIONS`` ran. It checks every operation's output against
the references in ``references.json`` (or, for a seed without a reference,
across the iterations), prints each metric by name and unit, writes the full
result and environment to ``perfbench/out/``, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
# At least 3 iterations: a longer window is steadier, and a seed without a
# reference is still checked across repeats.
MIN_ITERATIONS = 3
# Set-ups per run; setup_s is their median, steadier than one set-up.
SETUP_REPS = 5
LAYERS = ("simulator", "dataset", "features", "autoencoder", "novelty",
          "evaluation", "gridsearch", "render")


def import_package():
    """Import epsnode from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "epsnode"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: package sources not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import epsnode

    if Path(epsnode.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported epsnode from {epsnode.__file__}, not {pkg}")


import_package()

import numpy as np  # noqa: E402

from spans import Tracer, span_cost  # noqa: E402
from workloads import FULL, WORKLOADS, Sizes, State, Workload  # noqa: E402


@dataclass
class Iteration:
    wall: float
    cpu: float
    tracer: Tracer
    outcome: object  # workloads.Outcome, or None when the iteration raised


def timed_iteration(wl: Workload, st: State, run_id: str, index: int, traced: bool) -> Iteration:
    tr = Tracer(run_id, index, traced)
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with tr.span("harness.iteration"):
            outcome = wl.iteration(st, tr)
    except Exception:  # a failed iteration counts all its operations as failed
        traceback.print_exc()
        outcome = None
    return Iteration(time.perf_counter() - t0, time.process_time() - cpu0, tr, outcome)


def check(wl: Workload, reference: dict | None, iterations: list[Iteration]):
    """(attempted, failed, problems). An operation fails when it raised or its
    fingerprint differs from the reference, or, without a reference, from the
    first iteration's. Exact counts must repeat across iterations and match
    the reference's."""
    ok = [it for it in iterations if it.outcome is not None]
    problems = []
    expected = reference["fingerprints"] if reference else (ok[0].outcome.fingerprints if ok else {})
    if len(expected) != wl.n_ops:
        problems.append(f"expected {wl.n_ops} operations, reference has {len(expected)}")
    attempted = failed = 0
    for it in iterations:
        attempted += wl.n_ops
        if it.outcome is None:
            failed += wl.n_ops
            continue
        got = it.outcome.fingerprints
        bad = [k for k, v in expected.items() if got.get(k) != v]
        failed += min(len(bad) + len(set(got) - set(expected)), wl.n_ops)
        problems += [f"iteration {it.tracer.iteration}: output {k} differs" for k in bad]
    expected_counts = reference["counts"] if reference else (ok[0].tracer.counts if ok else {})
    for it in ok:
        if it.tracer.counts != expected_counts:
            problems.append(f"iteration {it.tracer.iteration}: counts {it.tracer.counts} "
                            f"!= {expected_counts}")
    return attempted, failed, problems


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(it: Iteration) -> dict[str, tuple[float, str]]:
    tr, count = it.tracer, it.tracer.counts.get
    t = tr.total
    train_s = t("autoencoder.train.RNG") + t("autoencoder.train.MA")
    sim_s, load_s, score_s, sweep_s = (t("simulator.generate_dataset"), t("dataset.load"),
                                       t("novelty.score"), t("gridsearch.run"))
    m = {
        "simulator.generate_dataset.s": (sim_s, "s"),
        "simulator.cirs": (count("simulator.cirs", 0), "count"),
        "simulator.us_per_cir": (1e6 * _per(sim_s, count("simulator.cirs", 0)), "us"),
        "dataset.save.s": (t("dataset.save"), "s"),
        "dataset.load.s": (load_s, "s"),
        "dataset.bytes": (count("dataset.bytes", 0), "B"),
        "dataset.load.mb_per_s": (_per(count("dataset.bytes", 0) / 1e6, load_s), "MB/s"),
        "features.extract.RNG.s": (t("features.extract.RNG"), "s"),
        "features.extract.MA.s": (t("features.extract.MA"), "s"),
        "autoencoder.train.RNG.s": (t("autoencoder.train.RNG"), "s"),
        "autoencoder.train.MA.s": (t("autoencoder.train.MA"), "s"),
        "autoencoder.epochs": (count("autoencoder.epochs", 0), "count"),
        "autoencoder.early_stops": (count("autoencoder.early_stops", 0), "count"),
        "autoencoder.steps": (count("autoencoder.steps", 0), "count"),
        "autoencoder.us_per_step": (1e6 * _per(train_s, count("autoencoder.steps", 0)), "us"),
        "autoencoder.gflops": (_per(count("autoencoder.flops", 0) / 1e9, train_s), "GFLOP/s"),
        "novelty.score.s": (score_s, "s"),
        "novelty.rows": (count("novelty.rows", 0), "count"),
        "novelty.us_per_row": (1e6 * _per(score_s, count("novelty.rows", 0)), "us"),
        "novelty.write_csv.s": (t("novelty.write_csv"), "s"),
        "gridsearch.run.s": (sweep_s, "s"),
        "gridsearch.trials": (count("gridsearch.trials", 0), "count"),
        "gridsearch.failed": (count("gridsearch.failed", 0), "count"),
        "gridsearch.steps": (count("gridsearch.steps", 0), "count"),
        "gridsearch.us_per_step": (1e6 * _per(sweep_s, count("gridsearch.steps", 0)), "us"),
        "evaluation.kde_kl.s": (t("evaluation.kde_kl"), "s"),
        "render.s": (t("render"), "s"),
        "process.cpu_s": (it.cpu, "s"),
    }
    self_times = tr.self_times()
    for layer in LAYERS + ("harness",):
        m[f"self.{layer}.s"] = (self_times.get(layer, 0.0), "s")
    m["trace.coverage"] = (_per(sum(self_times.get(x, 0.0) for x in LAYERS), it.wall), "ratio")
    return m


def median_metrics(per_iteration: list[dict]) -> dict[str, tuple[float, str]]:
    return {name: (statistics.median(d[name][0] for d in per_iteration), unit)
            for name, (_, unit) in per_iteration[0].items()}


def git_commit() -> str:
    """The checkout's commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        references: dict | None = None) -> dict:
    """One benchmark run; returns the full result (see ``final_line``)."""
    wl = WORKLOADS[name]
    if references is None:
        references = load_references()
    run_id = f"{name}-s{seed}-p{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{run_id}-", dir=OUT_DIR))
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            st = State(seed, work, sizes)
            t0 = time.perf_counter()
            wl.setup(st)
            setup_times.append(time.perf_counter() - t0)
        iterations: list[Iteration] = []
        start = time.perf_counter()
        while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            iterations.append(timed_iteration(wl, st, run_id, len(iterations), trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = check(wl, references.get(name, {}).get(str(seed)), iterations)
    ok = [it.outcome for it in iterations if it.outcome is not None]
    # Mean over the whole measuring window: on a shared machine the same work
    # varies by seconds and by minutes, so the longest window is steadiest.
    wall = statistics.fmean(it.wall for it in iterations)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Output quality is fixed by the seed (every output is checked exactly),
    # so it is reported with the per-layer metrics, not bounded end to end.
    quality = {
        "evaluation.kl_ratio": (statistics.fmean(ok[0].kl_ratios) if ok and ok[0].kl_ratios
                                else 0.0, "ratio"),
        "autoencoder.best_val_mse": (min(ok[0].val_mses) if ok else 0.0, "1"),
    }
    result = {
        "workload": name,
        "environment": environment(seed),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "setup_times_s": setup_times,
        "iteration_walls_s": [it.wall for it in iterations],
        "fingerprints": ok[0].fingerprints if ok else {},
        "counts": iterations[0].tracer.counts,
        "end_to_end": metrics,
        "quality": quality,
    }
    if trace:
        layers = median_metrics([layer_metrics(it) for it in iterations]) | quality
        # Tracing adds a fixed cost per span, measured here in-process: an
        # untraced iteration differs from a traced one by more noise than
        # the spans cost.
        spans_per_iteration = statistics.median(len(it.tracer.spans) for it in iterations)
        layers["trace.overhead_s"] = (span_cost() * spans_per_iteration, "s")
        result["per_layer"] = layers
        spans = [s for it in iterations for s in it.tracer.spans]
        (OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans) + "\n")
    return result


def final_line(result: dict, trace: bool) -> str:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    result = run(args.workload, args.seed, args.seconds, trace)
    OUT_DIR.joinpath(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    print(f"# environment {json.dumps(result['environment'])}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print(f"# error_rate = {result['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    for section in ("end_to_end", "quality" if not trace else "per_layer"):
        for k, (v, u) in result.get(section, {}).items():
            print(f"# {k} = {v:.6g} {u}")
    print(final_line(result, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
