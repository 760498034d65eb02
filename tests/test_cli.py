"""End-to-end command-line toolchain."""
from __future__ import annotations

import json

import numpy as np
import pytest

from epsnode import cli
from epsnode import dataset as ds
from epsnode import gridsearch as gs
from epsnode import novelty as nov
from epsnode.features import Pipeline

GRID = "1.0,1.25,2,2,0.5"  # four cells inside the room, fast to simulate


def simulate(tmp_path, name="sim.jsonl", scenario="nominal", seed=3, extra=()):
    out = tmp_path / name
    rc = cli.main([
        "simulate", "--scenario", scenario, "--grid", GRID,
        "--passes", "1", "--samples-per-cell", "5", "--seed", str(seed),
        "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


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
        [("--passes", "0"), ("--noise-sigma", "-1"), ("--grid", "5,4,8,5,0.5")],
    )
    def test_invalid_parameter_is_usage_error(self, tmp_path, capsys, extra):
        rc = cli.main([
            "simulate", "--scenario", "nominal", "--grid", GRID,
            "--out", str(tmp_path / "x.jsonl"), *extra,
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_bad_grid_spec_is_usage_error(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--scenario", "nominal", "--grid", "1,2,3",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    nominal = simulate(tmp_path, "nominal.jsonl")
    perturbed = simulate(tmp_path, "b.jsonl", scenario="B", seed=1003)
    model_dir = train(tmp_path, nominal)
    return tmp_path, nominal, perturbed, model_dir


class TestTrainScoreEvaluate:
    def test_train_outputs(self, workspace):
        _, _, _, model_dir = workspace
        assert (model_dir / "model.json").exists()
        report = json.loads((model_dir / "train_report.json").read_text(encoding="utf-8"))
        assert report["architecture"] == [8, 12, 8]
        assert report["stopped_epoch"] == len(report["val_mse"])
        meta = json.loads((model_dir / "run.meta.json").read_text(encoding="utf-8"))
        assert meta["command"] == "train"

    def test_constraint_violation_is_usage_error(self, workspace, capsys):
        tmp_path, nominal, _, _ = workspace
        rc = cli.main([
            "train", "--dataset", str(nominal), "--pipeline", "RNG",
            "--architecture", "4", "12", "8", "--out-dir", str(tmp_path / "bad"),
        ])
        assert rc == 2
        assert "N < N_E1" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, workspace, capsys):
        tmp_path, _, _, _ = workspace
        config = tmp_path / "bad.json"
        config.write_text("{bad", encoding="utf-8")
        rc = cli.main(["train", "--config", str(config)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

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
        "command, extra",
        [
            ("train", ("--architecture", "8", "12", "8", "--max-epochs", "0", "--patience", "0")),
            ("train", ("--architecture", "8", "12", "8", "--max-epochs", "-3", "--patience", "-3")),
            ("train", ("--max-epochs", "-3")),
            ("gridsearch", ("--max-epochs", "2", "--patience", "5")),
            ("train", ("--architecture", "8", "12", "8", "--val-fraction", "1.5")),
            # every cell holds 5 samples, so all of them go to validation
            ("train", ("--architecture", "8", "12", "8", "--val-fraction", "0.99")),
        ],
    )
    def test_invalid_training_setup_is_usage_error(self, workspace, capsys, command, extra):
        tmp_path, nominal, _, _ = workspace
        out_dir = tmp_path / "bad_setup"
        rc = cli.main([
            command, "--dataset", str(nominal), "--pipeline", "RNG",
            "--out-dir", str(out_dir), *extra,
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
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

    def test_score_dataset_pipeline_mismatch(self, workspace, capsys):
        tmp_path, _, _, model_dir = workspace
        rc = cli.main([
            "score", "--model", str(model_dir / "model.json"),
            "--dataset", str(tmp_path / "missing.jsonl"),
            "--out-dir", str(tmp_path / "nope"),
        ])
        assert rc == 2
        capsys.readouterr()

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
        "corrupt, named",
        [
            (lambda obj: {k: v for k, v in obj.items() if k != "leaky_alpha"}, "'leaky_alpha'"),
            (lambda obj: {k: v for k, v in obj.items() if k != "weights"}, "'weights'"),
            (lambda obj: [obj], "JSON object"),
            (lambda obj: obj | {"scaler": {"maxs": obj["scaler"]["maxs"]}}, "'mins'"),
            (lambda obj: json.dumps(obj)[:60], "line 1 column"),  # truncated file
        ],
        ids=["no-leaky-alpha", "no-weights", "json-list", "scaler-without-mins", "truncated"],
    )
    def test_score_rejects_malformed_bundle(self, workspace, capsys, corrupt, named):
        tmp_path, _, perturbed, model_dir = workspace
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

    def test_evaluate_grid_outside_room(self, workspace, tmp_path, capsys):
        grid = ds.GridMap(origin=(0.0, 0.0), nx=20, ny=2, cell_size=0.5)
        emap = nov.ErrorMap(grid, np.ones((2, 20)), np.ones((2, 20), dtype=int))
        path = tmp_path / "wide.csv"
        nov.write_error_map_csv(emap, path)
        rc = cli.main([
            "evaluate", "--error-map", str(path), "--scenario", "B",
            "--out", str(tmp_path / "kl.json"),
        ])
        assert rc == 2
        assert "does not fit" in capsys.readouterr().err

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


@pytest.fixture
def trimmed_rng_table(monkeypatch):
    """A two-candidate RNG table keeps sweep smoke tests fast."""
    monkeypatch.setitem(
        gs.TABLE_SPACES,
        Pipeline.RNG,
        gs.SearchSpace(Pipeline.RNG, (8,), (12, 20), (8,), (0.01,)),
    )


class TestGridsearchCommand:
    def test_sweep_reports(self, tmp_path, trimmed_rng_table):
        nominal = simulate(tmp_path, "n.jsonl")
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "gridsearch", "--dataset", str(nominal), "--pipeline", "RNG",
            "--max-epochs", "10", "--patience", "10", "--seed", "2",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        records = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
        assert len(records) == 2
        assert records[0]["val_mse"] <= records[1]["val_mse"]
        assert (out_dir / "sweep.csv").exists()

    def test_missing_required_key(self, tmp_path, capsys):
        rc = cli.main(["gridsearch", "--pipeline", "RNG", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [("--architecture", "8", "12", "8"), ("--batch-size", "8"), ("--learning-rate", "0.01")]
    )
    def test_train_only_flags_rejected(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "gridsearch", "--dataset", str(tmp_path / "n.jsonl"), "--pipeline", "RNG",
                "--out-dir", str(tmp_path / "sweep"), *flag,
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
        assert "2 trials; best:" in capsys.readouterr().out
