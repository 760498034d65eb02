"""Overcomplete autoencoder: construction, forward pass, training, gradients."""
from __future__ import annotations

import numpy as np
import pytest

from epsnode import autoencoder as ae
from epsnode.autoencoder import ConstraintError, TrainConfig


class TestBuild:
    def test_dims_chain(self):
        model = ae.build(4, 15, 30, 15, seed=0)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(4, 4), (4, 15), (15, 30), (30, 15), (15, 4)]

    def test_constraint_violations(self):
        with pytest.raises(ConstraintError):
            ae.build(4, 4, 30, 15, seed=0)  # N < E1 violated
        with pytest.raises(ConstraintError):
            ae.build(4, 15, 14, 15, seed=0)  # E1 <= E2 violated
        with pytest.raises(ConstraintError):
            ae.build(4, 15, 30, 4, seed=0)  # D1 > N violated

    def test_table_style_combinations_all_valid(self):
        for e1 in (5, 15, 20):
            for e2 in (20, 30, 40):
                ae.build(4, e1, e2, e1, seed=0)

    def test_seed_determinism(self):
        a = ae.build(4, 15, 30, 15, seed=3)
        b = ae.build(4, 15, 30, 15, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_init_within_fan_in_bound(self):
        model = ae.build(4, 15, 30, 15, seed=1)
        fan_ins = [4, 4, 15, 30, 15]
        for w, fan_in in zip(model.weights, fan_ins):
            bound = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(w) <= bound)


class TestForward:
    def test_zero_model_maps_to_zero(self):
        model = ae.build(4, 15, 30, 15, seed=0)
        for w in model.weights:
            w[:] = 0.0
        out = ae.forward(model, np.array([1.0, -2.0, 3.0, 0.5]))
        assert np.array_equal(out, np.zeros(4))

    def test_wrong_input_length(self):
        model = ae.build(4, 15, 30, 15, seed=0)
        with pytest.raises(ValueError):
            ae.forward(model, np.zeros(5))

    def test_batch_matches_single(self):
        model = ae.build(4, 15, 30, 15, seed=2)
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 4))
        batched = ae.forward_batch(model, rows)
        for row, out in zip(rows, batched):
            assert np.allclose(ae.forward(model, row), out, atol=1e-12)


class TestTrain:
    @pytest.mark.parametrize("max_epochs, patience", [(0, 0), (-3, -3), (5, 0)])
    def test_config_rejects_epoch_counts_below_one(self, max_epochs, patience):
        with pytest.raises(ValueError, match="max_epochs and patience"):
            TrainConfig(max_epochs=max_epochs, patience=patience)

    def test_overfits_single_constant_row(self):
        target = np.array([[0.3, 0.7, 0.1, 0.9]])
        model = ae.build(4, 8, 12, 8, seed=0)
        config = TrainConfig(batch_size=1, learning_rate=1e-2, max_epochs=200,
                             patience=200, seed=0)
        model, report = ae.train(model, target, target, config)
        assert report.train_mse[-1] < 1e-4
        assert np.allclose(ae.forward(model, target[0]), target[0], atol=1e-3)

    def test_best_val_curve_non_increasing(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(size=(40, 4))
        model = ae.build(4, 8, 12, 8, seed=1)
        config = TrainConfig(batch_size=8, learning_rate=1e-2, max_epochs=50, seed=1)
        _, report = ae.train(model, rows[:30], rows[30:], config)
        best = np.minimum.accumulate(report.val_mse)
        assert np.all(np.diff(best) <= 0.0 + 1e-15)
        assert report.final_val_mse == pytest.approx(best[-1])

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(2)
        rows = rng.uniform(size=(20, 4))
        out = []
        for _ in range(2):
            model = ae.build(4, 8, 12, 8, seed=5)
            model, _ = ae.train(model, rows[:15], rows[15:],
                                TrainConfig(batch_size=4, learning_rate=1e-2,
                                            max_epochs=20, seed=5))
            out.append(model)
        assert all(np.array_equal(a, b) for a, b in zip(out[0].weights, out[1].weights))
        assert all(np.array_equal(a, b) for a, b in zip(out[0].biases, out[1].biases))

    def test_report_lengths_match_stopped_epoch(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(size=(20, 4))
        model = ae.build(4, 8, 12, 8, seed=0)
        _, report = ae.train(model, rows[:15], rows[15:],
                             TrainConfig(batch_size=4, learning_rate=1e-2,
                                         max_epochs=30, seed=0))
        assert len(report.train_mse) == len(report.val_mse) == report.stopped_epoch


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        model = ae.build(4, 15, 30, 15, seed=7)
        rng = np.random.default_rng(7)
        for _ in range(5):
            # keep pre-activations away from the ReLU kinks
            x = rng.uniform(0.25, 0.75, size=4)
            assert ae.gradient_check(model, x) < 1e-4

    def test_zero_input_zero_bias_dead_path(self):
        model = ae.build(4, 8, 12, 8, seed=0)
        x = np.zeros(4)
        _, analytic, _ = ae.mse_gradients(model, x)
        numeric, _ = ae.finite_difference_gradients(model, x)
        for g_a, g_n in zip(analytic[1:], numeric[1:]):  # encoder and deeper
            assert np.allclose(g_a, 0.0, atol=1e-12)
            assert np.allclose(g_n, 0.0, atol=1e-8)

    def test_corrupted_gradient_detected(self):
        model = ae.build(4, 8, 12, 8, seed=1)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.25, 0.75, size=4)
        _, analytic, _ = ae.mse_gradients(model, x)
        numeric, _ = ae.finite_difference_gradients(model, x)
        analytic[2] = -analytic[2]
        assert ae.max_relative_error(analytic, numeric) > 1e-2


class TestPersistence:
    def test_bundle_roundtrip(self, tmp_path):
        from epsnode import features as feat

        model = ae.build(4, 8, 12, 8, seed=9)
        scaler = feat.fit_scaler(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]))
        path = tmp_path / "model.json"
        ae.save_bundle(path, model, pipeline=feat.Pipeline.RNG, scaler=scaler)
        bundle = ae.load_bundle(path)
        loaded = bundle["model"]
        assert loaded.dims == model.dims
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
        assert bundle["pipeline"] is feat.Pipeline.RNG
        assert np.array_equal(bundle["scaler"].maxs, scaler.maxs)
