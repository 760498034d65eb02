"""Overcomplete autoencoder: construction, forward pass, training, gradients."""
from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from conftest import backprop_one, finite_difference_gradients, gradient_check, max_relative_error
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epsnode import autoencoder as ae
from epsnode import dataset as ds
from epsnode import features as feat
from epsnode import simulator as sim
from epsnode.autoencoder import ConstraintError, TrainConfig


def forward_batch(model, rows):
    """All (m, n) rows through the network as one batched product, as
    training and validation take them; it rounds differently from
    ``forward``, which sends the rows as a stack of one-row products."""
    return ae._reconstruct(model.weights, model.biases, np.asarray(rows, dtype=float))


def replay_first_epoch(model, rows, config):
    """Epoch 0 of ``train`` replayed batch by batch: ``backprop_one`` on the
    config seed's permutation, then Adam applied layer by layer and tensor by
    tensor. Returns the updated copy of ``model`` and each batch's (loss,
    rows)."""
    ref = ae.AutoencoderModel(model.dims, model.params.copy())
    params = ref.weights + ref.biases
    mom = [np.zeros_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    losses = []
    order = np.random.default_rng(config.seed).permutation(len(rows))
    for step, start in enumerate(range(0, len(rows), config.batch_size), start=1):
        batch = rows[order[start : start + config.batch_size]]
        loss, flat = backprop_one(ref, batch)
        losses.append((loss, len(batch)))
        grad = ae.AutoencoderModel(ref.dims, flat)
        for k, g in enumerate(grad.weights + grad.biases):
            mom[k] = ae.BETA1 * mom[k] + (1 - ae.BETA1) * g
            vel[k] = ae.BETA2 * vel[k] + (1 - ae.BETA2) * g * g
            m_hat = mom[k] / (1.0 - ae.BETA1**step)
            v_hat = vel[k] / (1.0 - ae.BETA2**step)
            params[k] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ae.ADAM_EPS)
    return ref, losses


def backprop_keeping_preactivations(model, batch):
    """A backprop that keeps every pre-activation z and reads each slope from
    z: the reference that the training step, which reads the slope from the
    layer output, must equal bit for bit. Returns (loss, gradients) of the
    one model on its (m, n) batch."""
    zs, acts = [], [batch]
    for layer in range(ae.N_LAYERS):
        z = acts[-1] @ model.weights[layer] + model.biases[layer]
        zs.append(z)
        acts.append(np.maximum(z, 0.0) if layer < ae.N_LAYERS - 1
                    else np.where(z > 0.0, z, ae.LEAKY_ALPHA * z))
    grads = ae.AutoencoderModel(model.dims, np.empty_like(model.params))
    diff = acts[-1] - batch
    m, n = batch.shape
    loss = np.add.reduce(diff**2, axis=(-2, -1)) / (m * n)
    delta = 2.0 * diff / (m * n)
    for layer in range(ae.N_LAYERS - 1, -1, -1):
        slope = (zs[layer] > 0.0 if layer < ae.N_LAYERS - 1
                 else np.where(zs[layer] > 0.0, 1.0, ae.LEAKY_ALPHA))
        delta = delta * slope
        np.matmul(acts[layer].T, delta, out=grads.weights[layer])
        np.add.reduce(delta, axis=0, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ model.weights[layer].T
    return loss, grads.params


def assert_each_equals_solo_training(models, configs, group, train_rows, val_rows):
    """Each result of ``train_group`` is what ``train`` returns for its model
    alone, or raises with the same message."""
    for model, config, result in zip(models, configs, group, strict=True):
        if isinstance(result, ae.TrainingDivergedError):
            with pytest.raises(ae.TrainingDivergedError) as solo:
                ae.train(model, train_rows, val_rows, config)
            assert str(solo.value) == str(result)
        else:
            solo_model, solo_report = ae.train(model, train_rows, val_rows, config)
            assert result[0].dims == model.dims
            assert np.array_equal(result[0].params, solo_model.params)
            assert result[1] == solo_report
            # the returned model is the best snapshot, not the last state
            val_mse = np.mean((forward_batch(result[0], val_rows) - val_rows) ** 2)
            assert float(val_mse) == result[1].final_val_mse


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

    def test_params_layout(self):
        model = ae.build(4, 15, 30, 15, seed=1)
        # layer by layer: the row-major weights, then the biases
        expected = np.concatenate(
            [a.ravel() for w, b in zip(model.weights, model.biases) for a in (w, b)]
        )
        assert model.params.dtype == np.float64
        assert np.array_equal(model.params, expected)
        for view in model.weights + model.biases:
            assert np.shares_memory(view, model.params)

    def test_params_size_must_fit_dims(self):
        with pytest.raises(ValueError, match="need 129 parameters"):
            ae.AutoencoderModel((4, 5, 5, 5, 4), np.zeros(130))

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
        for shape in [(5,), (3, 5), (2, 3, 4)]:
            with pytest.raises(ValueError, match="expected rows of length 4"):
                ae.forward(model, np.zeros(shape))

    def test_batch_matches_single(self):
        model = ae.build(4, 15, 30, 15, seed=2)
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 4))
        batched = forward_batch(model, rows)
        stacked = ae.forward(model, rows)
        for row, out, stacked_out in zip(rows, batched, stacked, strict=True):
            assert np.allclose(ae.forward(model, row), out, atol=1e-12)
            assert np.array_equal(ae.forward(model, row), stacked_out)

    @pytest.mark.parametrize("dims", [(4, 15, 30, 15), (28, 70, 90, 70), (19, 120, 165, 120)],
                             ids=["RNG", "MA", "PCA"])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 64), spread=st.floats(1e-3, 1e3))
    @settings(max_examples=15, deadline=None)
    def test_rows_keep_their_own_bits(self, dims, seed, m, spread):
        """At each pipeline's reference dims, every row of a matrix gets the
        bits that it gets alone."""
        rng = np.random.default_rng(seed)
        model = ae.build(*dims, seed=seed)
        rows = rng.uniform(-0.5, 1.5, size=(m, dims[0])) * spread
        expected = np.array([ae.forward(model, row) for row in rows])
        assert np.array_equal(ae.forward(model, rows), expected)


class TestTrain:
    @pytest.mark.parametrize("max_epochs, patience", [(0, 0), (-3, -3), (5, 0)])
    def test_config_rejects_epoch_counts_below_one(self, max_epochs, patience):
        # one field per message: the first one below 1, with its value
        name, value = ("max_epochs", max_epochs) if max_epochs < 1 else ("patience", patience)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            TrainConfig(max_epochs=max_epochs, patience=patience)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_config_rejects_learning_rate_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match=f"learning_rate must be finite and positive, got {lr}"):
            TrainConfig(learning_rate=lr)

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

    def test_adam_matches_per_layer_update(self):
        """One epoch of the fused update equals Adam applied layer by layer
        and tensor by tensor, bit for bit."""
        rows = np.random.default_rng(4).uniform(size=(20, 4))
        model = ae.build(4, 8, 12, 8, seed=4)
        config = TrainConfig(batch_size=6, learning_rate=1e-2, max_epochs=1, patience=1, seed=4)
        trained, _ = ae.train(model, rows, rows[:5], config)
        ref, _ = replay_first_epoch(model, rows, config)
        assert np.array_equal(trained.params, ref.params)

    def test_train_curve_is_row_weighted_batch_loss(self):
        """An epoch's train MSE is the mean of its batch losses, each taken
        before its update and weighted by its rows (the last batch of 20 rows
        at batch size 6 has 2), bit for bit."""
        rows = np.random.default_rng(4).uniform(size=(20, 4))
        model = ae.build(4, 8, 12, 8, seed=4)
        config = TrainConfig(batch_size=6, learning_rate=1e-2, max_epochs=1, patience=1, seed=4)
        _, report = ae.train(model, rows, rows[:5], config)
        _, losses = replay_first_epoch(model, rows, config)
        assert [n for _, n in losses] == [6, 6, 6, 2]
        total = 0.0
        for loss, n in losses:
            total += loss * n
        assert report.train_mse == [total / len(rows)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_group_matches_solo_training(self):
        """A stack trains each model exactly as ``train`` does alone, also after
        models ahead of it in the stack stop early or diverge."""
        rows = np.random.default_rng(4).uniform(size=(60, 4))
        train_rows, val_rows = rows[:48], rows[48:]
        # stops early worse than untrained, diverges mid-epoch, runs every
        # epoch, stops early
        lrs = (0.3, 1e40, 1e-3, 0.05)
        models = [ae.build(4, 8, 12, 8, seed=s) for s in range(len(lrs))]
        configs = [TrainConfig(batch_size=8, learning_rate=lr, max_epochs=12, patience=2,
                               seed=10 + s) for s, lr in enumerate(lrs)]
        group = ae.train_group(models, train_rows, val_rows, configs)

        worse, diverged, survivor, early = group
        assert early[1].stopped_epoch < survivor[1].stopped_epoch == 12
        assert isinstance(diverged, ae.TrainingDivergedError)
        assert str(diverged) == "non-finite loss at epoch 0, batch 1, lr 1e+40"
        assert isinstance(worse, ae.TrainingDivergedError)
        assert re.fullmatch(r"best validation MSE \S+ after \d+ epochs exceeds the untrained "
                            r"model's \S+, lr 0\.3", str(worse))
        assert_each_equals_solo_training(models, configs, group, train_rows, val_rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mixed_width_group_matches_solo_training(self):
        """Models of 2 E1 x 2 E2 widths (one with D1 != E1), given out of their
        dims' order, train as one stack exactly as each does alone: through
        a ragged last batch (22 rows at batch size 8), and after models stop
        early, diverge mid-epoch or end worse than untrained."""
        rows = np.random.default_rng(4).uniform(size=(30, 4))
        train_rows, val_rows = rows[:22], rows[22:]
        widths_and_lrs = [((8, 12, 8), 0.3), ((5, 9, 5), 1e-2), ((8, 9, 8), 1e-3),
                          ((5, 12, 6), 0.05), ((8, 9, 8), 1e40), ((5, 12, 6), 1e-3),
                          ((8, 12, 8), 0.05), ((5, 9, 5), 1e40)]
        models = [ae.build(4, *widths, seed=s) for s, (widths, _) in enumerate(widths_and_lrs)]
        configs = [TrainConfig(batch_size=8, learning_rate=lr, max_epochs=12, patience=2,
                               seed=10 + s) for s, (_, lr) in enumerate(widths_and_lrs)]
        group = ae.train_group(models, train_rows, val_rows, configs)

        messages = [str(r) for r in group if isinstance(r, ae.TrainingDivergedError)]
        assert "non-finite loss at epoch 0, batch 1, lr 1e+40" in messages
        assert any("exceeds the untrained model's" in m for m in messages)
        stopped = [r[1].stopped_epoch for r in group if not isinstance(r, ae.TrainingDivergedError)]
        assert min(stopped) < max(stopped) == 12
        assert_each_equals_solo_training(models, configs, group, train_rows, val_rows)

    def test_mixed_width_group_sharing_one_learning_rate_matches_solo_training(self):
        """A stack whose models share one learning rate multiplies by it as a
        float, not a per-parameter vector: each model still trains as it does
        alone, also once models that stopped early have left the stack."""
        rows = np.random.default_rng(4).uniform(size=(60, 4))
        train_rows, val_rows = rows[:27], rows[27:]
        widths = [(8, 12, 8), (5, 9, 5), (8, 9, 8), (5, 12, 6)]
        models = [ae.build(4, *w, seed=s) for s, w in enumerate(widths)]
        configs = [TrainConfig(batch_size=8, learning_rate=0.05, max_epochs=12, patience=2,
                               seed=10 + s) for s in range(len(widths))]
        group = ae.train_group(models, train_rows, val_rows, configs)

        stopped = [report.stopped_epoch for _, report in group]
        assert min(stopped) < max(stopped) == 12
        assert_each_equals_solo_training(models, configs, group, train_rows, val_rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stack, inf_row", [(3, 2), (2, 7), (3, 9)])
    def test_each_model_diverges_at_its_own_batch(self, stack, inf_row):
        """One inf training row makes each model's loss non-finite in the batch
        its own permutation puts that row in (22 rows at batch size 8 end in a
        batch of 6): the error names that batch of epoch 0, as ``train`` does
        for the model alone."""
        rows = np.random.default_rng(6).uniform(size=(30, 4))
        train_rows, val_rows = rows[:22], rows[22:]
        train_rows[inf_row] = np.inf
        models = [ae.build(4, 8, 12, 8, seed=s) for s in range(stack)]
        configs = [TrainConfig(batch_size=8, learning_rate=1e-3, max_epochs=3, patience=3,
                               seed=10 + s) for s in range(stack)]
        group = ae.train_group(models, train_rows, val_rows, configs)
        for model, config, result in zip(models, configs, group):
            order = np.random.default_rng(config.seed).permutation(len(train_rows))
            position = int(np.flatnonzero(order == inf_row)[0])
            assert isinstance(result, ae.TrainingDivergedError)
            assert str(result) == f"non-finite loss at epoch 0, batch {position // config.batch_size}, lr 0.001"
            with pytest.raises(ae.TrainingDivergedError) as solo:
                ae.train(model, train_rows, val_rows, config)
            assert str(solo.value) == str(result)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_loss_is_diverged(self):
        """At lr 1e300 the one batch of 48 rows at batch size 64 has a finite
        loss, taken before the update, and the update overflows the weights:
        the validation pass is what turns non-finite."""
        rows = np.random.default_rng(0).uniform(size=(60, 4))
        config = TrainConfig(batch_size=64, learning_rate=1e300, max_epochs=2, patience=2)
        with pytest.raises(ae.TrainingDivergedError) as exc:
            ae.train(ae.build(4, 8, 12, 8, seed=0), rows[:48], rows[48:], config)
        assert str(exc.value) == "non-finite validation loss at epoch 0, lr 1e+300"

    def test_worse_than_untrained_is_diverged(self):
        """A learning rate of 1e6 on a 1-pass, 4-sample nominal set keeps every
        loss finite, but its best validation MSE ends far above the untrained
        model's: training raises instead of returning that model."""
        mset = sim.generate_dataset(sim.scenario("nominal"), sim.default_grid(), passes=1,
                                    samples_per_cell=4, seed=3, scenario_name="nominal")
        train_set, val_set = ds.split(mset, 0.2, seed=0)
        raw = feat.extract_matrix(train_set.measurements, feat.Pipeline.RNG)
        scaler = feat.fit_scaler(raw)
        train_rows = feat.scale(scaler, raw)
        val_rows = feat.scale(scaler, feat.extract_matrix(val_set.measurements, feat.Pipeline.RNG))
        model = ae.build(4, 8, 12, 8, seed=0)
        untrained = float(np.mean((forward_batch(model, val_rows) - val_rows) ** 2))
        with pytest.raises(ae.TrainingDivergedError) as exc:
            ae.train(model, train_rows, val_rows, TrainConfig(learning_rate=1e6))
        match = re.fullmatch(r"best validation MSE (\S+) after (\d+) epochs exceeds the untrained "
                             r"model's (\S+), lr 1000000\.0", str(exc.value))
        assert match
        assert float(match[1]) > untrained
        # epoch 0 improves on inf, then patience epochs pass without an improvement
        assert TrainConfig.patience < int(match[2]) <= TrainConfig.max_epochs
        assert match[3] == f"{untrained:.6g}"

    @pytest.mark.parametrize(
        "dims, batch_size, train_shape, val_shape, message",
        [((4, 8, 12, 8), 4, (15, 4), (5, 4), "must share"),
         ((5, 8, 12, 8), 8, (15, 4), (5, 4), "must share"),
         ((4, 8, 12, 8), 8, (4,), (5, 4), r"must be \(m, 4\) matrices, got \(4,\) and \(5, 4\)$"),
         ((4, 8, 12, 8), 8, (15, 4), (5, 5), r"must be \(m, 4\) matrices, got \(15, 4\) and \(5, 5\)$")],
        ids=["batch-size", "dims", "1-D-rows", "row-width"],
    )
    def test_group_rejects_models_that_differ_in_shape(self, dims, batch_size, train_shape,
                                                      val_shape, message):
        """Models of one input width, configs of one batch size, and (m, N)
        train and validation rows, or a ValueError."""
        rng = np.random.default_rng(5)
        train_rows, val_rows = rng.uniform(size=train_shape), rng.uniform(size=val_shape)
        models = [ae.build(4, 8, 12, 8, seed=0), ae.build(*dims, seed=1)]
        configs = [TrainConfig(batch_size=8, max_epochs=2, patience=2),
                   TrainConfig(batch_size=batch_size, max_epochs=2, patience=2)]
        with pytest.raises(ValueError, match=message):
            ae.train_group(models, train_rows, val_rows, configs)
        if models[0].dims == models[1].dims and configs[0] == configs[1]:
            with pytest.raises(ValueError, match=message):  # and so does a stack of one
                ae.train(models[0], train_rows, val_rows, configs[0])

    def test_report_lengths_match_stopped_epoch(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(size=(20, 4))
        model = ae.build(4, 8, 12, 8, seed=0)
        _, report = ae.train(model, rows[:15], rows[15:],
                             TrainConfig(batch_size=4, learning_rate=1e-2,
                                         max_epochs=30, seed=0))
        assert len(report.train_mse) == len(report.val_mse) == report.stopped_epoch

    def test_memory_stays_within_the_training_buffers(self):
        """Training the MA reference net holds its parameter-sized vectors,
        one scratch vector and little else: validation writes into that
        scratch, not into copies of each model or fresh layer outputs."""
        n, e1, e2, d1, batch, m_val = 28, 70, 90, 70, 64, 400
        rng = np.random.default_rng(8)
        train_rows, val_rows = rng.uniform(size=(1600, n)), rng.uniform(size=(m_val, n))
        model = ae.build(n, e1, e2, d1, seed=8)
        config = TrainConfig(batch_size=batch, max_epochs=3, patience=3, seed=8)
        # the parameters, Adam's two moments, the gradients and Adam's step
        # buffer, and the best snapshot, with the one it replaces
        vectors = 7 * 8 * ae.param_count(model.dims)
        # the larger of a training batch's layer values plus its squared
        # errors, and one forward pass's two widest neighbouring layers on
        # the validation rows
        scratch = 8 * max(batch * (sum(model.dims) + n), m_val * (e2 + d1))
        slack = 128 * 2**10  # the batch, the epoch's orders, numpy's buffers
        tracemalloc.start()
        try:
            ae.train(model, train_rows, val_rows, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= vectors + scratch + slack


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        model = ae.build(4, 15, 30, 15, seed=7)
        rng = np.random.default_rng(7)
        for _ in range(5):
            # keep pre-activations away from the ReLU kinks
            x = rng.uniform(0.25, 0.75, size=4)
            assert gradient_check(model, x) < 1e-4

    @given(st.sampled_from([1, 3]), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.integers(1, 3), st.integers(1, 4), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_backprop_matches_reference_keeping_preactivations(
            self, stack, n, de1, de2, dd1, m, zero_biases, zero_row, data):
        """Reading each activation's slope from the layer output gives the
        gradients and losses of reading it from the pre-activation, bit for
        bit, for stacks of 1 and 3 and with pre-activations at exactly 0."""
        dims = (n, n + de1, n + de1 + de2, n + dd1, n)
        size = ae._Stack([dims]).size
        floats = st.floats(-4.0, 4.0)
        params = data.draw(hnp.arrays(np.float64, (stack, size), elements=floats))
        models = [ae.AutoencoderModel(dims, p) for p in params]
        if zero_biases:
            for model in models:
                for b in model.biases:
                    b[...] = 0.0
        batch = data.draw(hnp.arrays(np.float64, (stack, m, n), elements=floats))
        if zero_row:
            batch[:, 0] = 0.0
        layout = ae._Stack([dims] * stack)
        grads = np.empty(stack * size)
        scratch = np.empty(ae._Pass.floats(layout, m))
        loss = ae._Pass(layout, layout.pack(params), grads, batch, scratch).backprop()
        for slot, (model, rows) in enumerate(zip(models, batch)):
            ref_loss, ref_grads = backprop_keeping_preactivations(model, rows)
            assert loss[slot].tobytes() == ref_loss.tobytes()
            assert layout.unpack(grads, slot).tobytes() == ref_grads.tobytes()

    def test_zero_input_zero_bias_dead_path(self):
        model = ae.build(4, 8, 12, 8, seed=0)
        x = np.zeros(4)
        _, analytic = backprop_one(model, x)
        numeric = finite_difference_gradients(model, x)
        assert analytic.shape == numeric.shape == model.params.shape
        # per-layer weight views of each flat gradient
        analytic_w = ae.AutoencoderModel(model.dims, analytic).weights
        numeric_w = ae.AutoencoderModel(model.dims, numeric).weights
        for g_a, g_n in zip(analytic_w[1:], numeric_w[1:]):  # encoder and deeper
            assert np.allclose(g_a, 0.0, atol=1e-12)
            assert np.allclose(g_n, 0.0, atol=1e-8)

    def test_corrupted_gradient_detected(self):
        model = ae.build(4, 8, 12, 8, seed=1)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.25, 0.75, size=4)
        _, analytic = backprop_one(model, x)
        numeric = finite_difference_gradients(model, x)
        layer_2 = ae.AutoencoderModel(model.dims, analytic).weights[2]
        layer_2[...] = -layer_2  # writes through the view into analytic
        assert max_relative_error(analytic, numeric) > 1e-2


class TestPersistence:
    def test_bundle_roundtrip(self, tmp_path):
        model = ae.build(4, 8, 12, 8, seed=9)
        scaler = feat.fit_scaler(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]))
        path = tmp_path / "model.json"
        ae.save_bundle(path, model, feat.Pipeline.RNG, scaler, None, [0, 1, 2, 3])
        bundle = ae.load_bundle(path)
        loaded = bundle["model"]
        assert loaded.dims == model.dims
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
        assert bundle["pipeline"] is feat.Pipeline.RNG
        assert np.array_equal(bundle["scaler"].maxs, scaler.maxs)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 3), st.integers(1, 3),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_bundle_roundtrip_is_bit_exact(self, tmp_path_factory, n, de1, de2, dd1, data):
        model = ae.build(n, n + de1, n + de1 + de2, n + dd1, seed=0)
        values = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=model.params.size, max_size=model.params.size,
        ))
        model.params[...] = values
        scaler = feat.fit_scaler(np.vstack([np.zeros(n), np.arange(1.0, n + 1)]))
        first = tmp_path_factory.mktemp("bundle") / "model.json"
        ae.save_bundle(first, model, feat.Pipeline.RNG, scaler, None, list(range(n)))
        loaded = ae.load_bundle(first)["model"]
        second = first.with_name("again.json")
        ae.save_bundle(second, loaded, feat.Pipeline.RNG, scaler, None, list(range(n)))
        assert second.read_bytes() == first.read_bytes()
        assert loaded.dims == model.dims
        assert np.array_equal(loaded.params, model.params)

    @pytest.mark.parametrize(
        "key, layer, corrupt",
        [
            ("weights", 2, lambda w: np.asarray(w).T.tolist()),  # (8, 12) stored as (12, 8)
            ("weights", 4, lambda w: w[:-1]),                    # a row short
            ("biases", 1, lambda b: b + [0.0]),                  # one bias too many
            ("biases", 3, lambda b: None),                       # layer missing
        ],
        ids=["transposed", "row-short", "extra-bias", "missing-layer"],
    )
    def test_shapes_that_do_not_fit_dims_rejected(self, tmp_path, key, layer, corrupt):
        path = tmp_path / "model.json"
        scaler = feat.fit_scaler(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]))
        ae.save_bundle(path, ae.build(4, 8, 12, 8, seed=9), feat.Pipeline.RNG, scaler, None,
                       [0, 1, 2, 3])
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[key][layer] = corrupt(obj[key][layer])
        if obj[key][layer] is None:
            del obj[key][layer]
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="invalid model bundle"):
            ae.load_bundle(path)
