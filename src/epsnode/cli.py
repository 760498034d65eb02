"""Command-line toolchain: simulate | train | score | evaluate.

Exit codes: 0 success, 1 runtime failure, 2 rejected input (any ValueError:
a bad flag, config value or input file).
All outputs are deterministic given identical inputs and seeds; wall-clock
timestamps are confined to the ``run.meta.json`` sidecar. The EPSNODE_SEED
environment variable overrides the base seed of any command.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import autoencoder as ae
from . import dataset as ds
from . import evaluation as ev
from . import features as feat
from . import gridsearch as gs
from . import novelty as nov
from . import render
from . import simulator as sim


def _base_seed(value: int) -> int:
    """EPSNODE_SEED when it is set, else ``value`` (the seed flag or config key)."""
    source, raw = "seed", value
    if "EPSNODE_SEED" in os.environ:
        source, raw = "EPSNODE_SEED", os.environ["EPSNODE_SEED"]
    try:
        seed = ds.text_number(raw, int) if isinstance(raw, str) else raw
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


# argparse names a flag's type function in its error: "invalid integer value: '1_0'"
def integer(text: str) -> int:
    return ds.text_number(text, int)


def number(text: str) -> float:
    return ds.text_number(text, float)


def _load_environment(scenario_name: str | None, env_file: str | None) -> tuple[sim.Environment, str]:
    if (scenario_name is None) == (env_file is None):
        raise ValueError("give exactly one of --scenario and --env-file")
    if env_file is not None:
        return sim.load_environment(env_file), Path(env_file).stem
    return sim.scenario(scenario_name), scenario_name


def _write_meta(out_dir: Path, command: str, config: dict) -> None:
    meta = {"command": command, "timestamp": time.time(), "config": config}
    (out_dir / "run.meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    env, name = _load_environment(args.scenario, args.env_file)
    grid = sim.default_grid() if args.grid is None else ds.GridMap.from_spec(args.grid)
    seed = _base_seed(args.seed)
    params = sim.ChannelParams(noise_sigma=args.noise_sigma, range_jitter_sigma=args.jitter_sigma)
    mset = sim.generate_dataset(
        env, grid, args.passes, args.samples_per_cell, seed, params, scenario_name=name
    )
    ds.save(mset, args.out)
    print(
        f"wrote {args.out}: {grid.n_cells} cells x {args.passes} passes x "
        f"{args.samples_per_cell} samples = {len(mset)} measurements"
    )
    return 0


def _prepare_features(mset, pipeline, val_fraction, seed, variance_target):
    """Split, fit preprocessing on the training half, return scaled rows."""
    train_set, val_set = ds.split(mset, val_fraction, seed)
    pca = None
    if pipeline is feat.Pipeline.PCA:
        pca = feat.fit_pca(feat.cir_matrix(train_set.measurements), variance_target)
    train_raw = feat.extract_matrix(train_set.measurements, pipeline, pca)
    val_raw = feat.extract_matrix(val_set.measurements, pipeline, pca)
    scaler = feat.fit_scaler(train_raw)
    return feat.scale(scaler, train_raw), feat.scale(scaler, val_raw), scaler, pca


def _architecture(value) -> list[int] | str:
    """``"search"``, or the hidden widths ``[e1, e2, d1]``."""
    if value == "search" or (type(value) is list and len(value) == 3
                             and all(type(v) is int for v in value)):
        return value
    raise TypeError(f'expected "search" or three integer widths, got {value!r}')


# each train setting: its type, its default (None: required) and its flag's argparse options (None: no flag)
_SETTINGS = {
    "dataset": (ds.json_text, None, {}),
    "pipeline": (feat.Pipeline, None, {"choices": [pl.value for pl in feat.Pipeline]}),
    "out_dir": (ds.json_text, None, {}),
    "architecture": (_architecture, "search", {"nargs": 3, "type": integer, "metavar": ("E1", "E2", "D1"),
                     "help": "hidden layer sizes (omit to sweep the table and train its best)"}),
    "batch_size": (ds.json_integer, ae.TrainConfig.batch_size, {"type": integer}),
    "learning_rate": (ds.json_number, ae.TrainConfig.learning_rate, {"type": number}),
    "max_epochs": (ds.json_integer, ae.TrainConfig.max_epochs, {"type": integer}),
    "patience": (ds.json_integer, ae.TrainConfig.patience, {"type": integer}),
    "val_fraction": (ds.json_number, 0.2, {"type": number}),
    "seed": (ds.json_integer, ae.TrainConfig.seed, {"type": integer}),
    "variance_target": (lambda v: feat.check_variance_target(ds.json_number(v)), feat.VARIANCE_TARGET, None),
}


def _load_train_config(args) -> dict:
    """The settings of ``train``: each flag given overrides the ``--config``
    file, which overrides the defaults. Each value is converted to its type
    here, once. A sweep sets the batch size and learning rate per candidate,
    so without an architecture they are refused, and left out."""
    cfg: dict = {}
    if args.config:
        with ds.reading(args.config, "config file"):
            cfg = ds.read_json_object(args.config)
            if unknown := [key for key in cfg if key not in _SETTINGS]:
                raise ValueError(f"unknown key {unknown[0]!r}; train takes {', '.join(_SETTINGS)}")
    for key, (kind, default, _) in _SETTINGS.items():
        flag = getattr(args, key, None)  # None: not given, or no flag
        if flag is not None:
            cfg[key] = flag
        if key in ("batch_size", "learning_rate") and cfg["architecture"] == "search":
            refused = f"{key} is set per candidate by the sweep; give --architecture to set it"
            if flag is not None:
                raise ValueError(refused)
            with ds.reading(args.config, "config file"):  # located to the file, as an unknown key is
                if key in cfg:
                    raise ValueError(refused)
            continue
        if cfg.get(key) is None and default is None:
            raise ValueError(f"missing required config key {key!r}")
        with ds.reading(args.config, f"config key {key!r}"):  # only a file's value can fail
            cfg[key] = kind(cfg.get(key, default))
    cfg["seed"] = _base_seed(cfg["seed"])  # the seed the run uses, as run.meta.json records it
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_train_config(args)
    # validated before the dataset is read, so a bad setting fails first
    config = ae.TrainConfig(**{f.name: cfg[f.name] for f in fields(ae.TrainConfig) if f.name in cfg})
    pipeline, out_dir, mset = cfg["pipeline"], Path(cfg["out_dir"]), ds.load(cfg["dataset"])
    train_rows, val_rows, scaler, pca = _prepare_features(
        mset, pipeline, cfg["val_fraction"], config.seed, cfg["variance_target"])
    anchor_ids = mset.anchor_ids
    del mset  # the rows are built; the set is not held through training
    n = train_rows.shape[1]
    if cfg["architecture"] == "search":
        # sweep the pipeline's table in one process and write its ranked report
        results, best = gs.run(gs.TABLE_SPACES[pipeline], train_rows, val_rows, base_seed=config.seed,
                               max_epochs=config.max_epochs, patience=config.patience)
        out_dir.mkdir(parents=True, exist_ok=True)
        gs.write_report(results, out_dir / "sweep.json", out_dir / "sweep.csv")
        print(f"{len(results)} trials; best: e1={best.e1} e2={best.e2} "
              f"batch={best.batch_size} lr={best.learning_rate}")
        # train the winner again from its sweep trial: solo training is
        # bit-identical to the sweep's stacked run, so this is the model it
        # ranked first, without holding every trial's model
        model, config = gs.trial(best, n, config.seed, config.max_epochs, config.patience)
    else:
        model = ae.build(n, *cfg["architecture"], seed=config.seed)
    e1, e2, d1 = model.dims[1:4]
    trained, report = ae.train(model, train_rows, val_rows, config)

    out_dir.mkdir(parents=True, exist_ok=True)
    ae.save_bundle(out_dir / "model.json", trained, pipeline, scaler, pca, anchor_ids)
    summary = {
        "pipeline": pipeline.value,
        "architecture": [e1, e2, d1],
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        **asdict(report),
    }
    report_text = json.dumps(summary, indent=2) + "\n"
    (out_dir / "train_report.json").write_text(report_text, encoding="utf-8")
    _write_meta(out_dir, "train", cfg)
    print(
        f"trained {pipeline.value} ({n},{e1},{e2},{d1}) for {report.stopped_epoch} epochs, "
        f"best validation MSE {report.final_val_mse:.6g}"
    )
    return 0


def _cmd_score(args) -> int:
    bundle = ae.load_bundle(args.model)
    mset = ds.load(args.dataset)
    if mset.anchor_ids != bundle["anchor_ids"]:
        raise ValueError(
            f"{args.dataset}: anchor ids {mset.anchor_ids} differ from the ids "
            f"{bundle['anchor_ids']} the model {args.model} was trained on"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as errors not finite
        emap, anchor_maps, _ = nov.score(
            bundle["model"], bundle["scaler"], bundle["pipeline"], bundle["pca"], mset,
            aggregate=args.aggregate,
        )
    sampled = emap.counts > 0  # the other cells hold NaN
    if not all(np.isfinite(m.values[sampled]).all() for m in [emap, *anchor_maps]):
        raise ValueError(f"{args.model}: the model's errors on {args.dataset} are not all finite")

    # every output is built before the directory is made, so one that cannot be built leaves none
    art = render.ascii_heatmap(
        emap.values, title=f"total error [{mset.scenario_name}] ({args.aggregate} per cell)"
    )
    outputs = {"error_map.csv": nov.error_map_csv(emap)}
    outputs |= {f"anchor_{a}.csv": nov.error_map_csv(m) for a, m in zip(mset.anchor_ids, anchor_maps)}
    outputs |= {"heatmap.txt": art, "heatmap.pgm": render.pgm(emap.values)}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")
    print(art, end="")
    return 0


def _cmd_evaluate(args) -> int:
    env, name = _load_environment(args.scenario, args.env_file)
    emap = nov.read_error_map_csv(args.error_map)
    with ds.reading(args.error_map, "error map"):
        sim.check_grid_in_room(env, emap.grid)
    pred = ev.kde(emap, args.bandwidth)
    truth = ev.ground_truth_density(env, emap.grid, args.bandwidth)
    uniform = ev.uniform_density(emap.grid)
    report = ev.KlReport(
        scenario=name,
        pipeline=args.pipeline or "",
        bandwidth=args.bandwidth,
        eps=args.eps,
        kl_pred_vs_truth=ev.kl_divergence(pred, truth, args.eps),
        kl_uniform_vs_truth=ev.kl_divergence(uniform, truth, args.eps),
    )
    report.save(args.out)
    print(
        f"KL(pred || truth) = {report.kl_pred_vs_truth:.4f} nats, "
        f"KL(uniform || truth) = {report.kl_uniform_vs_truth:.4f} nats"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epsnode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a fingerprint dataset")
    p.add_argument("--scenario", help=f"preset name ({', '.join(sim.PRESET_NAMES)})")
    p.add_argument("--env-file", help="custom environment JSON file")
    p.add_argument("--grid", help="ox,oy,nx,ny,cell_size (default: standard grid)")
    p.add_argument("--passes", type=integer, default=5)
    p.add_argument("--samples-per-cell", type=integer, default=10)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--noise-sigma", type=number, default=sim.ChannelParams().noise_sigma)
    p.add_argument("--jitter-sigma", type=number, default=sim.ChannelParams().range_jitter_sigma)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train an autoencoder on nominal data (without --architecture, "
                                     "sweep the hyperparameter table and train its best)")
    p.add_argument("--config", help="JSON config file; flags override it")
    for key, (_, _, options) in _SETTINGS.items():
        if options is not None:
            p.add_argument("--" + key.replace("_", "-"), **options)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--aggregate", choices=nov.AGGREGATORS, default="mean")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="KDE + KL scoring of an error map")
    p.add_argument("--error-map", required=True)
    p.add_argument("--scenario")
    p.add_argument("--env-file")
    p.add_argument("--pipeline")
    p.add_argument("--bandwidth", type=number, default=ev.DEFAULT_BANDWIDTH)
    p.add_argument("--eps", type=number, default=ev.DEFAULT_EPS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # rejected input, InputFileError and ConstraintError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
