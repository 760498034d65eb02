"""End-to-end command-line toolchain."""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsnode import autoencoder as ae
from epsnode import cli
from epsnode import dataset as ds
from epsnode import evaluation as ev
from epsnode import features as feat
from epsnode import gridsearch as gs
from epsnode import novelty as nov
from epsnode import simulator as sim
from epsnode.features import Pipeline

GRID = "1.0,1.25,2,2,0.5"  # four cells inside the room, fast to simulate


def simulate(tmp_path, name="sim.jsonl", scenario="nominal", seed=3, extra=()):
    out = tmp_path / name
    source = ("--scenario", scenario) if scenario else ()  # None: extra names the source
    rc = cli.main([
        "simulate", *source, "--grid", GRID,
        "--passes", "1", "--samples-per-cell", "5", "--seed", str(seed),
        "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


def exit_code(argv) -> int:
    """The exit status of ``epsnode`` run with ``argv``: cli.main's return value,
    or the status argparse exits with when it rejects a flag."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def run_capped(*argv) -> subprocess.CompletedProcess:
    """``epsnode argv`` in a child whose address space is capped at 4 GiB, so
    that a result does not depend on the host's overcommit policy."""
    cap = 4 << 30
    code = ("import resource, sys; from epsnode import cli; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "sys.exit(cli.main(sys.argv[1:]))")
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def train(tmp_path, dataset, out_name="model", seed=3, pipeline="RNG", arch=("8", "12", "8")):
    out_dir = tmp_path / out_name
    rc = cli.main([
        "train", "--dataset", str(dataset), "--pipeline", pipeline,
        "--architecture", *arch, "--batch-size", "8",
        "--learning-rate", "0.01", "--max-epochs", "30", "--patience", "30",
        "--seed", str(seed), "--out-dir", str(out_dir),
    ])
    assert rc == 0
    return out_dir


class TestSimulate:
    def test_writes_expected_count(self, tmp_path):
        out = simulate(tmp_path)
        mset = ds.load(out)
        assert len(mset.measurements) == 4 * 5
        assert mset.scenario_name == "nominal"

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--scenario", "Z", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        a = simulate(tmp_path, "a.jsonl", seed=7)
        b = simulate(tmp_path, "b.jsonl", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        base = simulate(tmp_path, "base.jsonl", seed=7)
        monkeypatch.setenv("EPSNODE_SEED", "7")
        overridden = simulate(tmp_path, "env.jsonl", seed=99)
        assert base.read_bytes() == overridden.read_bytes()

    def test_bad_seed_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EPSNODE_SEED", "not-a-number")
        rc = cli.main([
            "simulate", "--scenario", "nominal", "--grid", GRID,
            "--passes", "1", "--samples-per-cell", "5",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [("--passes", "0"), ("--noise-sigma", "-1"), ("--grid", "5,4,8,5,0.5"), ("--grid", ""),
         # int() and float() read these, but a grid spec holds plain ASCII numbers
         ("--grid", " 1.0,1.25,2,2,0.5"), ("--grid", "1.0,1.25,0_2,2,0.5"),
         # so do the numeric flags: argparse rejects them through dataset.text_number
         ("--passes", "1_0"), ("--samples-per-cell", " 5"), ("--samples-per-cell", "\u0665"),
         ("--noise-sigma", "0_1"), ("--jitter-sigma", "0.01 ")],
    )
    def test_invalid_parameter_is_usage_error(self, tmp_path, capsys, extra):
        rc = exit_code([
            "simulate", "--scenario", "nominal", "--grid", GRID,
            "--out", str(tmp_path / "x.jsonl"), *extra,
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flag, field", [("--noise-sigma", "noise_sigma"), ("--jitter-sigma", "range_jitter_sigma")]
    )
    def test_non_finite_sigma_is_usage_error(self, tmp_path, capsys, flag, field, value):
        out = tmp_path / "x.jsonl"
        rc = cli.main([
            "simulate", "--scenario", "nominal", "--grid", GRID, "--out", str(out), flag, value,
        ])
        assert rc == 2
        assert f"{field} must be finite and non-negative, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_not_finite_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        rc = cli.main(["simulate", "--scenario", "nominal", "--grid", "1.0,1.25,2,2,nan",
                       "--out", str(out)])
        assert rc == 2
        assert "cell_size must be finite and positive, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_spec_is_usage_error(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--scenario", "nominal", "--grid", "1,2,3",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert "ox,oy,nx,ny,cell_size" in capsys.readouterr().err

    def test_grid_too_large_to_hold_fails_at_once(self, tmp_path):
        """10^10 cells of 10 um fit the room and numpy's array bound, but their
        (cells, anchors, 152) templates do not fit in memory: the run fails
        as a MemoryError (exit 1) before it traces any cell. The child's
        address space is capped, so the result does not depend on the host's
        overcommit policy."""
        out = tmp_path / "tiny.jsonl"
        run = run_capped("simulate", "--scenario", "nominal", "--grid", "0.5,0.5,100000,100000,0.00001",
                         "--passes", "1", "--samples-per-cell", "1", "--out", str(out))
        assert run.returncode == 1
        assert run.stderr.startswith("error: Unable to allocate")
        assert not out.exists()


def drop_first_anchor_position(obj):
    del obj["anchors"][0]["position"]
    return obj


def infinite_first_footprint(obj):
    obj["obstacles"][0]["footprint"][1] = -math.inf
    return obj


# each corruption of preset B's environment file, and what the error names
ENV_FILE_CORRUPTIONS = pytest.mark.parametrize(
    "corrupt, named",
    [
        (drop_first_anchor_position, "missing key 'position'"),
        (lambda obj: json.dumps(obj).replace('"room"', "room"), "Expecting property name"),
        (lambda obj: [obj], "expected a JSON object, got list"),
        (lambda obj: obj | {"wall_reflectivity": -1.0},
         "wall_reflectivity must be finite and in [0, 1], got -1.0"),
        (lambda obj: obj | {"wall_reflectivity": float("nan")},
         "wall_reflectivity must be finite and in [0, 1], got nan"),
        (lambda obj: obj | {"room": [0.0, 0.0, math.inf, 5.0]},
         "rectangle xmax must be finite, got inf"),
        (infinite_first_footprint, "rectangle ymin must be finite, got -inf"),
    ],
    ids=["no-position", "malformed", "json-list", "negative-wall", "nan-wall", "inf-room",
         "inf-footprint"],
)


def corrupt_env_file(tmp_path, corrupt):
    path = tmp_path / "env.json"
    sim.save_environment(sim.scenario("B"), path)
    text = corrupt(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
    return path


class TestEnvironmentFile:
    def test_simulate_from_env_file_matches_preset(self, tmp_path):
        path = tmp_path / "B.json"
        sim.save_environment(sim.scenario("B"), path)
        from_file = simulate(tmp_path, "file.jsonl", scenario=None, extra=("--env-file", str(path)))
        preset = simulate(tmp_path, "preset.jsonl", scenario="B")
        assert from_file.read_bytes() == preset.read_bytes()  # scenario name = file stem "B"

    def test_pair_no_path_reaches_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "walled.json"
        wall = sim.Obstacle.of(sim.Rect(3.5, 2.25, 4.0, 2.75), "wall")
        nominal = sim.scenario("nominal")
        sim.save_environment(sim.Environment(nominal.room, nominal.anchors, (wall,)), path)
        out = tmp_path / "walled.jsonl"
        rc = cli.main(["simulate", "--env-file", str(path), "--passes", "1", "--samples-per-cell", "2",
                       "--out", str(out)])
        assert rc == 2
        assert "no path reaches anchor 0 from cell (5, 2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_scenario_with_env_file_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "B.json"
        sim.save_environment(sim.scenario("B"), path)
        emap_path = tmp_path / "flat.csv"
        grid = ds.GridMap(origin=(1.0, 1.25), nx=2, ny=2, cell_size=0.5)
        nov.write_error_map_csv(nov.ErrorMap(grid, np.ones((2, 2)), np.ones((2, 2), dtype=int)), emap_path)
        out = tmp_path / "out"
        inputs = ["--grid", GRID] if command == "simulate" else ["--error-map", str(emap_path)]
        rc = cli.main([command, *inputs, "--scenario", "A", "--env-file", str(path), "--out", str(out)])
        assert rc == 2
        assert "exactly one of --scenario and --env-file" in capsys.readouterr().err
        assert not out.exists()

    @ENV_FILE_CORRUPTIONS
    def test_simulate_rejects_malformed_env_file(self, tmp_path, capsys, corrupt, named):
        path = corrupt_env_file(tmp_path, corrupt)
        out = tmp_path / "x.jsonl"
        rc = cli.main(["simulate", "--env-file", str(path), "--grid", GRID, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}: invalid environment file" in err
        assert named in err
        assert not out.exists()

    @ENV_FILE_CORRUPTIONS
    def test_evaluate_rejects_malformed_env_file(self, tmp_path, capsys, corrupt, named):
        path = corrupt_env_file(tmp_path, corrupt)
        grid = ds.GridMap(origin=(1.0, 1.25), nx=2, ny=2, cell_size=0.5)
        emap_path = tmp_path / "flat.csv"
        nov.write_error_map_csv(nov.ErrorMap(grid, np.ones((2, 2)), np.ones((2, 2), dtype=int)), emap_path)
        out = tmp_path / "kl.json"
        rc = cli.main(["evaluate", "--error-map", str(emap_path), "--env-file", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}: invalid environment file" in err
        assert named in err
        assert not out.exists()


def drop_last_anchor(rec):
    rec["anchors"].pop()


def nan_range(rec):
    rec["anchors"][0]["range"] = float("nan")


def cell_outside_grid(rec):
    rec["cell"] = [5, 0]


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (drop_last_anchor, "anchor ids [0, 1, 2] differ from the first record's [0, 1, 2, 3]"),
        (nan_range, "range of anchor 0 is not finite: nan"),
        (cell_outside_grid, "cell (5, 0) outside the 2x2 grid"),
    ],
    ids=["three-of-four-anchors", "nan-range", "cell-outside-grid"],
)
def test_train_rejects_inconsistent_record(tmp_path, capsys, corrupt, named):
    lines = simulate(tmp_path).read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[3])
    corrupt(rec)
    lines[3] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = tmp_path / "model"
    rc = cli.main([
        "train", "--dataset", str(bad), "--pipeline", "RNG",
        "--architecture", "8", "12", "8", "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 4: invalid record" in err
    assert f"{bad}: line 4" in err
    assert named in err
    assert not out_dir.exists()


@pytest.mark.parametrize("pipeline", ["RNG", "MA"])
def test_train_rejects_records_without_anchors(tmp_path, capsys, pipeline):
    # every record holds the first record's (empty) anchor ids, so only the
    # rule that a measurement has a reading names the file
    header, *records = simulate(tmp_path).read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    emptied = [json.dumps(json.loads(record) | {"anchors": []}) for record in records]
    bad.write_text("\n".join([header, *emptied]) + "\n", encoding="utf-8")
    out_dir = tmp_path / "model"
    rc = cli.main(["train", "--dataset", str(bad), "--pipeline", pipeline, "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 2: invalid record: per-anchor readings must be one or more, unique and "
        "ordered by anchor_id\n")
    assert not out_dir.exists()


def anchor_ids_shifted(dataset, out):
    """``dataset`` saved to ``out`` with every anchor id raised by 10."""
    mset = ds.load(dataset)
    shifted = [
        ds.Measurement(m.cell, m.pass_id, tuple(
            ds.AnchorReading(r.anchor_id + 10, r.range_m, r.cir) for r in m.per_anchor
        ))
        for m in mset.measurements
    ]
    ds.save(ds.MeasurementSet(mset.scenario_name, mset.grid, shifted, mset.seed), out)
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    nominal = simulate(tmp_path, "nominal.jsonl")
    perturbed = simulate(tmp_path, "b.jsonl", scenario="B", seed=1003)
    model_dir = train(tmp_path, nominal)
    return tmp_path, nominal, perturbed, model_dir


@pytest.fixture(scope="module")
def pca_model_dir(workspace):
    tmp_path, nominal, _, _ = workspace
    return train(tmp_path, nominal, "pca_model", pipeline="PCA", arch=("24", "32", "24"))


def with_scaler(obj, resize):
    """The bundle ``obj`` with both scaler vectors passed through ``resize``."""
    return obj | {"scaler": {key: resize(values) for key, values in obj["scaler"].items()}}


def with_entry(obj, keys, value):
    """A copy of the bundle ``obj`` with the entry at the path ``keys`` set to ``value``."""
    obj = json.loads(json.dumps(obj))
    *path, last = keys
    inner = obj
    for key in path:
        inner = inner[key]
    inner[last] = value
    return obj


def output_width(obj, width):
    """The bundle ``obj`` with its output layer cut to ``width`` units, and
    ``dims`` to match: a net that does not reconstruct its input."""
    return obj | {"dims": obj["dims"][:-1] + [width],
                  "weights": obj["weights"][:-1] + [[row[:width] for row in obj["weights"][-1]]],
                  "biases": obj["biases"][:-1] + [obj["biases"][-1][:width]]}


def hidden_width(obj, width):
    """The bundle ``obj`` with its three hidden layers ``width`` units wide
    and zero weights: a net whose dims ``build`` refuses."""
    n = obj["dims"][0]
    dims = [n, width, width, width, n]
    _, weights, biases = ae._layer_views(tuple(dims))
    return obj | {"dims": dims, "weights": [w.tolist() for w in weights],
                  "biases": [b.tolist() for b in biases]}


@pytest.mark.parametrize("command", ["simulate", "train"])
@pytest.mark.parametrize("source, value, named", [
    ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ("EPSNODE_SEED", "-1", "EPSNODE_SEED must be a non-negative integer, got '-1'"),
    ("EPSNODE_SEED", "1_0", "EPSNODE_SEED must be a non-negative integer, got '1_0'"),
    ("--seed", " 1_0", "argument --seed: invalid integer value: ' 1_0'"),
], ids=["flag", "env", "env-underscore", "flag-underscore"])
def test_negative_seed_is_usage_error(workspace, tmp_path, capsys, monkeypatch, command, source, value,
                                      named):
    _, nominal, _, _ = workspace
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--scenario", "nominal", "--grid", GRID, "--out", str(out)]
    else:
        argv = ["train", "--dataset", str(nominal), "--pipeline", "RNG",
                "--architecture", "8", "12", "8", "--out-dir", str(out)]
    if source == "--seed":
        argv += ["--seed", value]
    else:
        monkeypatch.setenv("EPSNODE_SEED", value)
    assert exit_code(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error, code", [(MemoryError, 1), (ValueError, 2)])
def test_error_without_message_names_its_type(tmp_path, monkeypatch, capsys, error, code):
    def fail(args):
        raise error()

    monkeypatch.setattr(cli, "_cmd_simulate", fail)
    assert cli.main(["simulate", "--scenario", "nominal", "--out", str(tmp_path / "n.jsonl")]) == code
    assert capsys.readouterr().err == f"error: {error.__name__}\n"


def test_numeric_flags_take_plain_ascii_numbers():
    # every numeric flag reads its text by dataset.text_number, as the
    # input files and EPSNODE_SEED do, so "1_0" and " 1" are rejected
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    types = {action.type for sub in commands.values() for action in sub._actions} - {None}
    assert types == {cli.integer, cli.number}


class TestTrainScoreEvaluate:
    def test_train_outputs(self, workspace):
        _, _, _, model_dir = workspace
        assert (model_dir / "model.json").exists()
        report = json.loads((model_dir / "train_report.json").read_text(encoding="utf-8"))
        assert report["architecture"] == [8, 12, 8]
        assert report["stopped_epoch"] == len(report["val_mse"])
        meta = json.loads((model_dir / "run.meta.json").read_text(encoding="utf-8"))
        assert meta["command"] == "train"
        # the sidecar holds the typed settings, not their str()
        assert meta["config"]["pipeline"] == "RNG"
        assert meta["config"]["architecture"] == [8, 12, 8]
        assert type(meta["config"]["batch_size"]) is int
        assert len(meta["config"]) == 11  # every setting: a run with an architecture reads them all

    def test_meta_records_the_seed_env_override(self, workspace, tmp_path, monkeypatch):
        # EPSNODE_SEED overrides --seed once, for the training and its sidecar alike
        _, nominal, _, _ = workspace
        pinned = train(tmp_path, nominal, "pinned", seed=99)
        monkeypatch.setenv("EPSNODE_SEED", "99")
        overridden = train(tmp_path, nominal, "overridden", seed=5)
        meta = json.loads((overridden / "run.meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["seed"] == 99
        assert (overridden / "model.json").read_bytes() == (pinned / "model.json").read_bytes()

    def test_constraint_violation_is_usage_error(self, workspace, capsys):
        tmp_path, nominal, _, _ = workspace
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--architecture", "4", "12", "8", "--out-dir", str(tmp_path / "bad"),
        ])
        assert rc == 2
        assert "N < N_E1" in capsys.readouterr().err

    def test_diverged_training_writes_no_bundle(self, workspace, capsys):
        tmp_path, nominal, _, _ = workspace
        out_dir = tmp_path / "diverged"
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--architecture", "8", "12", "8", "--learning-rate", "1e6",
            "--out-dir", str(out_dir),
        ])
        assert rc == 1
        assert "exceeds the untrained model's" in capsys.readouterr().err
        assert not (out_dir / "model.json").exists()

    def test_worse_than_untrained_names_the_epochs_run(self, tmp_path, capsys):
        """The seed-23 set's 40 training rows at batch size 64 take one Adam
        step per epoch, and after two the MA model's best validation MSE is
        above the untrained model's, with every loss finite."""
        nominal = tmp_path / "n.jsonl"
        assert cli.main([
            "simulate", "--scenario", "nominal", "--passes", "1", "--samples-per-cell", "2",
            "--seed", "23", "--out", str(nominal),
        ]) == 0
        out_dir = tmp_path / "model"
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "MA", "--architecture", "70", "90", "70",
            "--batch-size", "64", "--max-epochs", "2", "--patience", "2", "--seed", "23",
            "--out-dir", str(out_dir),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "best validation MSE 1.30869 after 2 epochs exceeds the untrained model's 1.27263" in err
        assert "batch -1" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, workspace, capsys, value):
        tmp_path, nominal, _, _ = workspace
        out_dir = tmp_path / "bad_lr"
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--architecture", "8", "12", "8", "--learning-rate", value,
            "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert f"learning_rate must be finite and positive, got {value}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_config_is_usage_error(self, workspace, capsys):
        tmp_path, _, _, _ = workspace
        config = tmp_path / "bad.json"
        config.write_text("{bad", encoding="utf-8")
        rc = cli.main(["train", "--config", str(config)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("val_fraction", "x"), ("patience", "x"), ("variance_target", "x"),
        ("out_dir", ["typed"]), ("dataset", 5),
        # a JSON integer setting takes no fraction, string or boolean, and a
        # number setting no boolean: each of these once trained as int() or
        # float() of the value
        ("batch_size", 8.7), ("seed", 2.9), ("architecture", [8.9, 12.2, 8.5]),
        ("max_epochs", "3"), ("learning_rate", True),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, workspace, capsys, monkeypatch, key, value):
        tmp_path, nominal, _, _ = workspace
        monkeypatch.chdir(tmp_path)  # a path made from a wrong value would land here
        config = tmp_path / f"{key}.json"
        out_dir = tmp_path / "typed"
        config.write_text(json.dumps({
            "dataset": str(nominal), "pipeline": "RNG", "architecture": [8, 12, 8],
            "max_epochs": 2, "patience": 2, "out_dir": str(out_dir), key: value,
        }), encoding="utf-8")
        rc = cli.main(["train", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{config}: invalid config key {key!r}" in err
        assert f"got {value!r}" in err
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(("typed", "["))) == []

    def test_unknown_config_key_is_usage_error(self, workspace, capsys):
        tmp_path, nominal, _, _ = workspace
        config = tmp_path / "misspelt.json"
        out_dir = tmp_path / "misspelt"
        config.write_text(json.dumps({
            "dataset": str(nominal), "pipeline": "RNG", "architecture": [8, 12, 8],
            "max_epochs": 2, "patience": 2, "out_dir": str(out_dir), "learning_rte": 0.5,
        }), encoding="utf-8")
        rc = cli.main(["train", "--config", str(config)])
        assert rc == 2
        assert f"{config}: invalid config file: unknown key 'learning_rte'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_training_parameter_is_usage_error(self, workspace, capsys):
        tmp_path, nominal, _, _ = workspace
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--architecture", "8", "12", "8", "--batch-size", "0",
            "--out-dir", str(tmp_path / "bad_batch"),
        ])
        assert rc == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, config, named",
        [
            ("train", ("--architecture", "8", "12", "8", "--max-epochs", "0", "--patience", "0"), {},
             "max_epochs must be >= 1, got 0"),
            ("train", ("--architecture", "8", "12", "8", "--max-epochs", "-3", "--patience", "-3"), {},
             "max_epochs must be >= 1, got -3"),
            ("train", ("--max-epochs", "-3"), {}, "max_epochs must be >= 1, got -3"),
            ("train", ("--max-epochs", "2", "--patience", "5"), {},
             "patience must not exceed max_epochs (2), got 5"),
            ("train", ("--architecture", "8", "12", "8", "--val-fraction", "1.5"), {},
             "val_fraction must be in (0, 1), got 1.5"),
            # every cell holds 5 samples, so all of them go to validation
            ("train", ("--architecture", "8", "12", "8", "--val-fraction", "0.99"), {},
             "cell (0, 0): val_fraction 0.99 takes all 5 of its samples"),
            # a range error names the key and the value, as a flag's does, not the file
            ("train", ("--architecture", "8", "12", "8"), {"val_fraction": 1},
             "error: val_fraction must be in (0, 1), got 1.0\n"),
            ("train", ("--architecture", "8", "12", "8"), {"patience": 0},
             "error: patience must be >= 1, got 0\n"),
            # checked before the dataset is read, as the other settings are
            ("train", ("--architecture", "8", "12", "8", "--val-fraction", "2", "--dataset", "missing.jsonl"), {},
             "error: val_fraction must be in (0, 1), got 2.0\n"),
            # more parameters than one numpy array holds
            ("train", (), {"architecture": [8, 12, 2**63]},
             "dims [4, 8, 12, 9223372036854775808, 4] need 156797324626531188908 parameters, "
             "more than one numpy array of floats holds"),
        ],
        ids=["train-extra0", "train-extra1", "train-extra2", "train-extra3", "train-extra4",
             "train-extra5", "config-val-fraction-1", "config-patience-0", "val-fraction-before-dataset",
             "config-architecture-too-large"],
    )
    def test_invalid_training_setup_is_usage_error(self, workspace, capsys, command, extra, config, named):
        tmp_path, nominal, _, _ = workspace
        out_dir = tmp_path / "bad_setup"
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc = cli.main([
            command, "--config", str(path), "--dataset", str(nominal), "--pipeline", "RNG",
            "--out-dir", str(out_dir), *extra,
        ])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    def test_split_that_empties_a_cell_is_usage_error(self, tmp_path, capsys):
        mset = ds.load(simulate(tmp_path))
        # keep 2 of cell (0, 0)'s samples: ceil(0.6 * 2) takes both, while
        # the other cells keep 2 of their 5
        head = [m for m in mset.measurements if m.cell == (0, 0)][:2]
        rest = [m for m in mset.measurements if m.cell != (0, 0)]
        lopsided = tmp_path / "lopsided.jsonl"
        ds.save(ds.MeasurementSet(mset.scenario_name, mset.grid, head + rest, mset.seed), lopsided)
        out_dir = tmp_path / "model"
        rc = cli.main([
            "train", "--dataset", str(lopsided), "--pipeline", "RNG",
            "--architecture", "8", "12", "8", "--val-fraction", "0.6",
            "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert "cell (0, 0)" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_score_outputs(self, workspace, capsys):
        tmp_path, _, perturbed, model_dir = workspace
        out_dir = tmp_path / "score_b"
        rc = cli.main([
            "score", "--model", str(model_dir / "model.json"),
            "--dataset", str(perturbed), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        emap = nov.read_error_map_csv(out_dir / "error_map.csv")
        assert emap.values.shape == (2, 2)
        assert np.all(np.isfinite(emap.values))
        for a in range(4):
            assert (out_dir / f"anchor_{a}.csv").exists()
        assert (out_dir / "heatmap.pgm").read_text(encoding="utf-8").startswith("P2")
        assert "scale:" in capsys.readouterr().out

    def test_score_rejects_other_anchor_ids(self, workspace, capsys):
        tmp_path, _, perturbed, model_dir = workspace
        other = anchor_ids_shifted(perturbed, tmp_path / "b_ids_10_13.jsonl")
        out_dir = tmp_path / "score_other_ids"
        rc = cli.main([
            "score", "--model", str(model_dir / "model.json"),
            "--dataset", str(other), "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert "anchor ids [10, 11, 12, 13] differ from the ids [0, 1, 2, 3]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_score_bundle_without_anchor_ids(self, workspace, capsys):
        tmp_path, _, perturbed, model_dir = workspace
        obj = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
        assert list(obj)[-1] == "anchor_ids" and obj["anchor_ids"] == [0, 1, 2, 3]
        del obj["anchor_ids"]
        older = tmp_path / "no_anchor_ids.json"
        older.write_text(json.dumps(obj), encoding="utf-8")
        out_dir = tmp_path / "score_no_ids"
        rc = cli.main([
            "score", "--model", str(older), "--dataset", str(perturbed), "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {older}: invalid model bundle: missing key 'anchor_ids'\n"
        assert not out_dir.exists()

    def test_score_rejects_dataset_grid_not_finite(self, workspace, capsys):
        tmp_path, _, perturbed, model_dir = workspace
        bad = tmp_path / "nan_cell_size.jsonl"
        text = perturbed.read_text(encoding="utf-8")
        bad.write_text(text.replace('"cell_size": 0.5', '"cell_size": NaN', 1), encoding="utf-8")
        out_dir = tmp_path / "score_nan_grid"
        rc = cli.main([
            "score", "--model", str(model_dir / "model.json"),
            "--dataset", str(bad), "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert (f"{bad}: line 1: invalid header: cell_size must be finite and positive, got nan"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_score_dataset_pipeline_mismatch(self, workspace, capsys):
        tmp_path, _, _, model_dir = workspace
        rc = cli.main([
            "score", "--model", str(model_dir / "model.json"),
            "--dataset", str(tmp_path / "missing.jsonl"),
            "--out-dir", str(tmp_path / "nope"),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_score_writes_nothing_from_errors_not_finite(self, workspace, capsys):
        # 1e308 is a finite weight, so the bundle loads, but the model's
        # reconstructions overflow
        tmp_path, _, perturbed, model_dir = workspace
        obj = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
        big = tmp_path / "huge_weight.json"
        big.write_text(json.dumps(with_entry(obj, ["weights", 0, 0, 0], 1e308)), encoding="utf-8")
        out_dir = tmp_path / "score_huge"
        with warnings.catch_warnings(record=True) as caught:  # numpy's overflow warnings land here
            warnings.simplefilter("always")
            rc = cli.main(["score", "--model", str(big), "--dataset", str(perturbed),
                           "--out-dir", str(out_dir)])
        assert rc == 2
        assert [str(w.message) for w in caught] == []  # the error line below is the one message
        err = capsys.readouterr().err
        assert err == f"error: {big}: the model's errors on {perturbed} are not all finite\n"
        assert not out_dir.exists()

    def test_score_rejects_bundle_that_does_not_fit_dims(self, workspace, capsys):
        tmp_path, _, perturbed, model_dir = workspace
        obj = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
        obj["weights"][2] = np.asarray(obj["weights"][2]).T.tolist()  # (8, 12) as (12, 8)
        bad = tmp_path / "transposed.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        out_dir = tmp_path / "score_bad"
        rc = cli.main([
            "score", "--model", str(bad), "--dataset", str(perturbed),
            "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert "invalid model bundle" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "pipeline, corrupt, named",
        [
            ("RNG", lambda obj: {k: v for k, v in obj.items() if k != "leaky_alpha"},
             "'leaky_alpha'"),
            ("RNG", lambda obj: {k: v for k, v in obj.items() if k != "weights"}, "'weights'"),
            ("RNG", lambda obj: {k: v for k, v in obj.items() if k != "pipeline"},
             "missing key 'pipeline'"),
            ("RNG", lambda obj: {k: v for k, v in obj.items() if k != "scaler"},
             "missing key 'scaler'"),
            ("RNG", lambda obj: [obj], "JSON object"),
            ("RNG", lambda obj: obj | {"scaler": {"maxs": obj["scaler"]["maxs"]}}, "'mins'"),
            ("RNG", lambda obj: json.dumps(obj)[:60], "line 1 column"),  # truncated file
            ("RNG", lambda obj: obj | {"dims": 5}, "'int' object is not iterable"),
            ("RNG", lambda obj: obj | {"weights": 3}, "unsupported operand"),
            ("RNG", lambda obj: obj | {"leaky_alpha": 0.2}, "leaky_alpha must be 0.01, got 0.2"),
            ("RNG", lambda obj: obj | {"leaky_alpha": -5}, "leaky_alpha must be 0.01, got -5"),
            ("RNG", lambda obj: obj | {"leaky_alpha": math.nan},
             "leaky_alpha must be 0.01, got nan"),
            ("RNG", lambda obj: with_scaler(obj, lambda v: v[:3]),
             "scaler.mins has shape (3,), dims [4, 8, 12, 8, 4] need (4,)"),
            ("RNG", lambda obj: with_scaler(obj, lambda v: v + [1.0]),
             "scaler.mins has shape (5,), dims [4, 8, 12, 8, 4] need (4,)"),
            ("RNG", lambda obj: obj | {"scaler": obj["scaler"] | {"maxs": [math.nan] * 4}},
             "scaler.maxs holds a value that is not finite"),
            ("RNG", lambda obj: obj | {"weights": [[[math.nan] + row[1:] for row in obj["weights"][0]],
                                                   *obj["weights"][1:]]},
             "a weight or bias is not finite"),
            ("PCA", lambda obj: obj | {"pca": obj["pca"] | {"mean": obj["pca"]["mean"][:10]}},
             "pca.mean has shape (10,)"),
            ("PCA", lambda obj: obj | {"pca": obj["pca"] | {"explained_ratio": [0.9]}},
             "pca.explained_ratio has shape (1,)"),
            ("PCA", lambda obj: {k: v for k, v in obj.items() if k != "pca"}, "missing key 'pca'"),
            ("RNG", lambda obj: obj | {"pca": {"mean": [0.0], "components": [[1.0]],
                                               "explained_ratio": [1.0]}},
             "pipeline RNG takes no pca"),
            ("RNG", lambda obj: obj | {"dims": [4.0, 8, 12, 8, 4]}, "expected an integer, got 4.0"),
            ("RNG", lambda obj: obj | {"anchor_ids": [0, 1.5, 2, 3]}, "expected an integer, got 1.5"),
            ("RNG", lambda obj: obj | {"anchor_ids": ["0", "1", "2", "3"]},
             "expected an integer, got '0'"),
            ("RNG", lambda obj: obj | {"anchor_ids": [0, 1, 2]},
             "3 anchor_ids give RNG features of length 3, not dims[0] = 4"),
            ("RNG", lambda obj: obj | {"scaler": obj["scaler"] | {"maxs": ["1.0", True, 3, "4"]}},
             "'maxs': expected numbers, got '1.0'"),
            ("RNG", lambda obj: with_entry(obj, ["scaler", "mins", 2], False),
             "'mins': expected numbers, got False"),
            ("RNG", lambda obj: with_entry(obj, ["weights", 0, 1, 2], True), "expected numbers, got True"),
            ("RNG", lambda obj: with_entry(obj, ["weights", 0, 1, 2], 10**400),
             "int too large to convert to float"),
            ("RNG", lambda obj: with_entry(obj, ["biases", 3, 0], "0.5"), "expected numbers, got '0.5'"),
            ("PCA", lambda obj: with_entry(obj, ["pca", "components", 7, 0], "0.1"),
             "'components': expected numbers, got '0.1'"),
            ("RNG", lambda obj: output_width(obj, 3),
             "dims [4, 8, 12, 8, 3] must end in dims[0], the input it reconstructs"),
            ("RNG", lambda obj: obj | {"scaler": [1, 2]}, "expected a JSON object, got list"),
            ("RNG", lambda obj: {k: v for k, v in obj.items() if k != "anchor_ids"},
             "missing key 'anchor_ids'"),
            ("RNG", lambda obj: obj | {"dims": [4, 8, 12, 2**63, 4]},
             "dims [4, 8, 12, 9223372036854775808, 4] need 156797324626531188908 parameters"),
            ("RNG", lambda obj: hidden_width(obj, 2),
             "dims [4, 2, 2, 2, 4]: N < N_E1 violated: 4 >= 2"),
        ],
        ids=["no-leaky-alpha", "no-weights", "no-pipeline", "no-scaler", "json-list",
             "scaler-without-mins", "truncated", "int-dims", "int-weights",
             "leaky-alpha-0.2", "leaky-alpha-negative", "leaky-alpha-nan",
             "scaler-of-3", "scaler-of-5", "scaler-nan", "weight-nan",
             "pca-mean-of-10", "pca-explained-ratio-of-1", "pca-missing", "rng-with-pca",
             "float-dims", "float-anchor-id", "string-anchor-ids", "anchor-ids-short",
             "string-scaler", "bool-scaler", "bool-weight", "weight-too-large", "string-bias",
             "string-pca-component", "output-of-3", "list-scaler", "no-anchor-ids", "dims-too-large",
             "not-overcomplete"],
    )
    def test_score_rejects_malformed_bundle(self, request, workspace, capsys, pipeline, corrupt,
                                            named):
        tmp_path, _, perturbed, model_dir = workspace
        if pipeline == "PCA":
            model_dir = request.getfixturevalue("pca_model_dir")
        obj = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
        bad = tmp_path / "malformed.json"
        text = corrupt(obj)
        bad.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
        out_dir = tmp_path / "score_malformed"
        rc = cli.main([
            "score", "--model", str(bad), "--dataset", str(perturbed),
            "--out-dir", str(out_dir),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}: invalid model bundle" in err
        assert named in err
        assert not out_dir.exists()

    def test_evaluate_reports_kl(self, workspace, capsys):
        tmp_path, _, _, model_dir = workspace
        # sample a patch near the preset-B obstacle so the ground-truth
        # density has support on this grid
        near = tmp_path / "b_near.jsonl"
        assert cli.main([
            "simulate", "--scenario", "B", "--grid", "3.5,2.5,2,2,0.5",
            "--passes", "1", "--samples-per-cell", "5", "--seed", "1004",
            "--out", str(near),
        ]) == 0
        out_dir = tmp_path / "score_b2"
        assert cli.main([
            "score", "--model", str(model_dir / "model.json"),
            "--dataset", str(near), "--out-dir", str(out_dir),
        ]) == 0
        out = tmp_path / "kl.json"
        rc = cli.main([
            "evaluate", "--error-map", str(out_dir / "error_map.csv"),
            "--scenario", "B", "--pipeline", "RNG", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["scenario"] == "B"
        assert report["kl_pred_vs_truth"] >= 0.0
        assert report["kl_uniform_vs_truth"] >= 0.0
        assert "nats" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--bandwidth", "nan"), ("--bandwidth", "inf"), ("--eps", "nan"), ("--eps", "-1"),
    ])
    def test_evaluate_rejects_setting_not_finite_and_positive(self, tmp_path, capsys, flag, value):
        # the map lies near the preset-B obstacle, so valid settings evaluate it
        grid = ds.GridMap(origin=(3.5, 2.5), nx=2, ny=2, cell_size=0.5)
        path = tmp_path / "b.csv"
        nov.write_error_map_csv(nov.ErrorMap(grid, np.ones((2, 2)), np.ones((2, 2), dtype=int)), path)
        out = tmp_path / "kl.json"
        rc = cli.main([
            "evaluate", "--error-map", str(path), "--scenario", "B", "--out", str(out), flag, value,
        ])
        assert rc == 2
        rule = {"--bandwidth": "bandwidth must be finite and positive", "--eps": "eps must be a normal float below 1"}
        err = capsys.readouterr().err
        assert rule[flag] in err and err.endswith(f", got {float(value)}\n")
        assert not out.exists()

    def test_evaluate_error_map_grid_too_large_to_hold(self, tmp_path):
        """A grid line of 10^10 cells with one row is refused for its missing
        cells before any (ny, nx) array is made, so the run needs no memory
        for the grid. The child's address space is capped at 4 GiB; the
        map's value and count arrays alone would take 149 GiB."""
        path = tmp_path / "huge.csv"
        path.write_text("# grid=0.5,0.0,100000,100000,0.00001\ni,j,value,count\n0,0,1.0,1\n", encoding="utf-8")
        out = tmp_path / "kl.json"
        run = run_capped("evaluate", "--error-map", str(path), "--scenario", "B", "--out", str(out))
        assert run.returncode == 2
        assert run.stderr == f"error: {path}: invalid error map: 9999999999 cells missing, first (1, 0)\n"
        assert not out.exists()

    def test_evaluate_grid_outside_room(self, workspace, tmp_path, capsys):
        grid = ds.GridMap(origin=(0.0, 0.0), nx=20, ny=2, cell_size=0.5)
        emap = nov.ErrorMap(grid, np.ones((2, 20)), np.ones((2, 20), dtype=int))
        path = tmp_path / "wide.csv"
        nov.write_error_map_csv(emap, path)
        rc = cli.main([
            "evaluate", "--error-map", str(path), "--scenario", "B",
            "--out", str(tmp_path / "kl.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}: invalid error map" in err
        assert "does not fit" in err

    def test_evaluate_nominal_has_no_truth(self, workspace, tmp_path, capsys):
        _, _, perturbed, model_dir = workspace
        grid = ds.GridMap(origin=(1.0, 1.25), nx=2, ny=2, cell_size=0.5)
        emap = nov.ErrorMap(grid, np.ones((2, 2)), np.ones((2, 2), dtype=int))
        path = tmp_path / "flat.csv"
        nov.write_error_map_csv(emap, path)
        rc = cli.main([
            "evaluate", "--error-map", str(path), "--scenario", "nominal",
            "--out", str(tmp_path / "kl.json"),
        ])
        assert rc == 2
        assert "no novelty" in capsys.readouterr().err


@pytest.fixture(scope="module")
def scored_wide_map(workspace):
    """A scored map of 6x2 cells of preset B, some of them far enough from
    the obstacle that a narrow ground-truth density is 0 there."""
    tmp_path, _, _, model_dir = workspace
    wide = simulate(tmp_path, "b_wide.jsonl", scenario="B", seed=1005,
                    extra=("--grid", "1.0,2.5,6,2,0.5"))
    out_dir = tmp_path / "score_wide"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["score", "--model", str(model_dir / "model.json"), "--dataset", str(wide),
                         "--out-dir", str(out_dir)]) == 0
    return out_dir / "error_map.csv"


def refuse_constant(name):
    raise ValueError(f"{name} is not a finite JSON number")


@settings(max_examples=200, deadline=None)
@example(bandwidth=1e-170, eps=ev.DEFAULT_EPS)  # 2h² underflows: the kernel's diagonal is 0/0
@example(bandwidth=1e-155, eps=ev.DEFAULT_EPS)  # the exponent overflows, with numpy's warning
@example(bandwidth=ev.DEFAULT_BANDWIDTH, eps=1e308)  # the floored densities sum to inf
@example(bandwidth=0.01, eps=5e-324)  # a subnormal floor under a zero of the truth: P / Q overflows
@given(bandwidth=st.floats(min_value=5e-324, max_value=1e308),
       eps=st.floats(min_value=5e-324, max_value=1e308))
def test_rating_is_finite_or_refused(scored_wide_map, bandwidth, eps):
    """evaluate rates a map with finite numbers and no numpy warning, or
    exits 2 naming the flag and its value and writes nothing."""
    out = scored_wide_map.parent / "kl.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = cli.main(["evaluate", "--error-map", str(scored_wide_map), "--scenario", "B",
                       "--bandwidth", repr(bandwidth), "--eps", repr(eps), "--out", str(out)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err.getvalue()
    if rc == 0:
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)
        assert math.isfinite(report["kl_pred_vs_truth"]) and math.isfinite(report["kl_uniform_vs_truth"])
    else:
        assert rc == 2
        named = re.fullmatch(r"error: (bandwidth|eps) must .*, got (\S+)\n", err.getvalue())
        assert named is not None, err.getvalue()
        assert float(named[2]) == {"bandwidth": bandwidth, "eps": eps}[named[1]]
        assert not out.exists()


class TestPcaPipeline:
    def test_train_and_score(self, workspace, capsys):
        tmp_path, nominal, perturbed, _ = workspace
        # 16 training rows give k <= 15 components, so N = 4 + k < 24
        runs = [train(tmp_path, nominal, f"pca_{tag}", pipeline="PCA", arch=("24", "32", "24"))
                for tag in "ab"]
        assert (runs[0] / "model.json").read_bytes() == (runs[1] / "model.json").read_bytes()
        out_dir = tmp_path / "score_pca"
        rc = cli.main([
            "score", "--model", str(runs[0] / "model.json"),
            "--dataset", str(perturbed), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        assert np.all(np.isfinite(nov.read_error_map_csv(out_dir / "error_map.csv").values))
        capsys.readouterr()

    def test_variance_target_outside_unit_interval_is_usage_error(self, workspace, capsys):
        tmp_path, nominal, _, _ = workspace
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"variance_target": 5}), encoding="utf-8")
        out_dir = tmp_path / "pca_bad_target"
        rc = cli.main([
            "train", "--config", str(config), "--dataset", str(nominal), "--pipeline", "PCA",
            "--architecture", "24", "32", "24", "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert "variance_target must be in (0, 1], got 5.0" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("pipeline", ["RNG", "MA"])
def test_variance_target_checked_for_every_pipeline(tmp_path, capsys, pipeline):
    """The range check runs while the settings are read, before the dataset
    is loaded: a missing dataset is not what the error names."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"variance_target": 5}), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = cli.main([
        "train", "--config", str(config), "--dataset", str(tmp_path / "missing.jsonl"),
        "--pipeline", pipeline, "--architecture", "8", "12", "8", "--out-dir", str(out_dir),
    ])
    assert rc == 2
    assert "variance_target must be in (0, 1], got 5.0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_setting_defaults_are_the_library_defaults():
    defaults = ae.TrainConfig()
    for key in ("batch_size", "learning_rate", "max_epochs", "patience", "seed"):
        assert cli._SETTINGS[key][1] == getattr(defaults, key)
    assert cli._SETTINGS["variance_target"][1] == feat.VARIANCE_TARGET
    sweep = inspect.signature(gs.run).parameters
    assert (sweep["max_epochs"].default, sweep["patience"].default) == (
        defaults.max_epochs, defaults.patience)


def test_each_flag_is_a_config_key(tmp_path, capsys):
    """train takes one flag per --config key but variance_target, which has no flag."""
    assert exit_code(["train", "--help"]) == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help", "--config"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"unknown": 0}), encoding="utf-8")
    assert cli.main(["train", "--config", str(config)]) == 2
    keys = capsys.readouterr().err.rstrip("\n").split("; train takes ")[1].split(", ")
    assert flags == {"--" + key.replace("_", "-") for key in keys if key != "variance_target"}
    assert len(keys) == 11


@pytest.fixture
def trimmed_rng_table(monkeypatch):
    """A two-candidate RNG table keeps sweep smoke tests fast."""
    monkeypatch.setitem(
        gs.TABLE_SPACES,
        Pipeline.RNG,
        gs.SearchSpace((8,), (12, 20), (8,), (0.01,)),
    )


class TestGridsearchCommand:
    """The table sweep, which ``train`` runs when no architecture is given."""

    def test_gridsearch_is_no_command(self, tmp_path, capsys):
        assert exit_code(["gridsearch", "--dataset", str(tmp_path / "n.jsonl"), "--pipeline", "RNG",
                          "--out-dir", str(tmp_path / "sweep")]) == 2
        assert "invalid choice: 'gridsearch'" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_reports(self, tmp_path, trimmed_rng_table):
        nominal = simulate(tmp_path, "n.jsonl")
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--max-epochs", "10", "--patience", "10", "--seed", "2",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        records = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
        assert len(records) == 2
        assert records[0]["val_mse"] <= records[1]["val_mse"]
        assert (out_dir / "sweep.csv").exists()
        # the sidecar records the settings the sweep reads, not the
        # batch size and learning rate it sets per candidate
        meta = json.loads((out_dir / "run.meta.json").read_text(encoding="utf-8"))
        assert sorted(meta["config"]) == sorted([
            "dataset", "pipeline", "out_dir", "architecture", "max_epochs", "patience", "val_fraction",
            "seed", "variance_target",
        ])
        assert meta["config"]["architecture"] == "search"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_trial_failed_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(gs.TABLE_SPACES, Pipeline.RNG, gs.SearchSpace((8,), (12, 20), (8,), (1e40,)))
        nominal = simulate(tmp_path, "n.jsonl")
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--max-epochs", "10", "--patience", "10", "--out-dir", str(out_dir),
        ])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: every trial failed; candidate 0: non-finite loss at epoch 0, batch 1, lr 1e+40\n"
        assert not (out_dir / "model.json").exists()

    def test_no_valid_candidate_is_usage_error(self, tmp_path, capsys):
        # on the default grid's 160 training rows this variance target keeps
        # 159 components, so N = 163 exceeds every E1 of the PCA table
        nominal = tmp_path / "n.jsonl"
        assert cli.main([
            "simulate", "--scenario", "nominal", "--passes", "1", "--samples-per-cell", "5",
            "--seed", "3", "--out", str(nominal),
        ]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variance_target": 0.99999}), encoding="utf-8")
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "train", "--config", str(config), "--dataset", str(nominal),
            "--pipeline", "PCA", "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert "search space contains no valid candidates" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", [
        pytest.param(("train", "--architecture", "8", "12", "8"), id="architecture"),
        pytest.param(("train",), id="train"),
    ])
    def test_jobs_is_usage_error(self, tmp_path, capsys, command, source):
        # a sweep runs in one process; no setting picks a process count
        nominal = simulate(tmp_path, "n.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 2}), encoding="utf-8")
        out_dir = tmp_path / "sweep"
        argv = [*command, "--dataset", str(nominal), "--pipeline", "RNG", "--max-epochs", "2",
                "--patience", "2", "--out-dir", str(out_dir)]
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--jobs", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        else:
            assert cli.main(argv + ["--config", str(config)]) == 2
            assert f"{config}: invalid config file: unknown key 'jobs'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_required_key(self, tmp_path, capsys):
        rc = cli.main(["train", "--pipeline", "RNG", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "dataset" in capsys.readouterr().err

    # the last case gives both flags; the first is named
    @pytest.mark.parametrize("flag", [
        ("--batch-size", "8"), ("--learning-rate", "0.01"), ("--batch-size", "8", "--learning-rate", "0.5"),
    ])
    def test_train_only_flags_rejected(self, tmp_path, capsys, flag):
        """A sweep sets the batch size and learning rate per candidate, so a
        run without an architecture refuses them before it reads the dataset."""
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "train", "--dataset", str(tmp_path / "missing.jsonl"), "--pipeline", "RNG",
            "--max-epochs", "2", "--patience", "2", "--out-dir", str(out_dir), *flag,
        ])
        assert rc == 2
        key = flag[0].removeprefix("--").replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: {key} is set per candidate by the sweep; give --architecture to set it\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [("batch_size", 8), ("learning_rate", 0.01)])
    def test_train_only_config_keys_rejected(self, tmp_path, trimmed_rng_table, capsys, key, value):
        nominal = simulate(tmp_path, "n.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "train", "--config", str(config), "--dataset", str(nominal), "--pipeline", "RNG",
            "--max-epochs", "2", "--patience", "2", "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}: invalid config file: {key} is set per candidate by the sweep; "
            "give --architecture to set it\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_per_candidate_settings_taken_with_architecture(self, tmp_path, source):
        nominal = simulate(tmp_path, "n.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"batch_size": 8, "learning_rate": 0.02}), encoding="utf-8")
        given = ["--config", str(config)] if source == "config" else ["--batch-size", "8", "--learning-rate", "0.02"]
        out_dir = tmp_path / "model"
        assert cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG", "--architecture", "8", "12", "8",
            "--max-epochs", "2", "--patience", "2", "--out-dir", str(out_dir), *given,
        ]) == 0
        report = json.loads((out_dir / "train_report.json").read_text(encoding="utf-8"))
        meta = json.loads((out_dir / "run.meta.json").read_text(encoding="utf-8"))
        assert (report["batch_size"], report["learning_rate"]) == (8, 0.02)
        assert (meta["config"]["batch_size"], meta["config"]["learning_rate"]) == (8, 0.02)

    def test_train_without_architecture_writes_sweep_report(self, tmp_path, trimmed_rng_table, capsys):
        nominal = simulate(tmp_path, "n.jsonl")
        out_dir = tmp_path / "searched"
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--max-epochs", "10", "--patience", "10", "--seed", "2",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        records = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
        assert len(records) == 2
        assert (out_dir / "sweep.csv").exists()
        report = json.loads((out_dir / "train_report.json").read_text(encoding="utf-8"))
        best = records[0]
        assert report["architecture"] == [best["e1"], best["e2"], best["d1"]]
        assert report["batch_size"] == best["batch_size"]
        assert report["final_val_mse"] == best["val_mse"]  # the saved model is the ranked one
        assert "2 trials; best:" in capsys.readouterr().out
