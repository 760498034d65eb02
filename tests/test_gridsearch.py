"""Hyperparameter sweep: enumeration, ranking, determinism, reporting."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from epsnode import autoencoder as ae
from epsnode import features as feat
from epsnode import gridsearch as gs
from epsnode.features import Pipeline


# Best combinations found on the original hardware data; kept as references
# (they must always be enumerable and trainable, not necessarily optimal on
# simulated data). (e1, e2, batch, lr)
REFERENCE_BEST: dict[Pipeline, tuple[int, int, int, float]] = {
    Pipeline.RNG: (15, 30, 32, 0.001),
    Pipeline.MA: (70, 90, 64, 0.001),
    Pipeline.PCA: (120, 165, 32, 0.001),
}


def tiny_rows(n_rows=30, n=4, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=(n_rows, n))
    return base[: n_rows - 8], base[n_rows - 8 :]


def small_space():
    return gs.SearchSpace((8, 15), (20, 30), (8,), (0.01,))


class TestEnumeration:
    def test_rng_table_has_54_candidates(self):
        candidates, skipped = gs.enumerate_candidates(gs.TABLE_SPACES[Pipeline.RNG], n=4)
        assert len(candidates) == 54
        assert skipped == []

    def test_ma_and_pca_tables(self):
        for pipeline, n in ((Pipeline.MA, 28), (Pipeline.PCA, 72)):
            candidates, skipped = gs.enumerate_candidates(gs.TABLE_SPACES[pipeline], n)
            assert len(candidates) == 5 * 5 * 3 * 2
            assert skipped == []

    def test_invalid_combos_excluded_with_reason(self):
        space = gs.SearchSpace((4, 15), (10, 15, 30), (16,), (0.01,))
        candidates, skipped = gs.enumerate_candidates(space, n=4)
        combos = {(c.e1, c.e2) for c in candidates}
        assert combos == {(15, 15), (15, 30)}
        reasons = {combo[:2]: reason for combo, reason in skipped}
        assert "N < N_E1" in reasons[(4, 10)]
        assert "N_E1 <= N_E2" in reasons[(15, 10)]

    def test_d1_tied_to_e1_and_indices_dense(self):
        candidates, _ = gs.enumerate_candidates(gs.TABLE_SPACES[Pipeline.RNG], n=4)
        assert all(c.d1 == c.e1 for c in candidates)
        assert [c.index for c in candidates] == list(range(len(candidates)))

    def test_enumeration_deterministic(self):
        a, _ = gs.enumerate_candidates(gs.TABLE_SPACES[Pipeline.MA], n=28)
        b, _ = gs.enumerate_candidates(gs.TABLE_SPACES[Pipeline.MA], n=28)
        assert a == b

    def test_reference_bests_enumerable(self):
        for pipeline, n in ((Pipeline.RNG, 4), (Pipeline.MA, 28), (Pipeline.PCA, 72)):
            candidates, _ = gs.enumerate_candidates(gs.TABLE_SPACES[pipeline], n)
            combos = {(c.e1, c.e2, c.batch_size, c.learning_rate) for c in candidates}
            assert REFERENCE_BEST[pipeline] in combos

    def test_empty_axis_rejected(self):
        space = gs.SearchSpace((15,), (), (16,), (0.01,))
        with pytest.raises(ValueError, match="e2_values"):
            gs.enumerate_candidates(space, n=4)


class TestTrialSeed:
    def test_reproducible(self):
        assert gs.trial_seed(7, 3) == gs.trial_seed(7, 3)

    def test_unique_across_trials_and_bases(self):
        seeds = {gs.trial_seed(base, idx) for base in range(3) for idx in range(54)}
        assert len(seeds) == 3 * 54


class TestRun:
    def test_total_order_and_ranking(self):
        train, val = tiny_rows()
        results, best = gs.run(small_space(), train, val, base_seed=1,
                               max_epochs=15, patience=15)
        assert len(results) == 4
        ok = [r for r in results if r.status == "ok"]
        mses = [r.val_mse for r in ok]
        assert mses == sorted(mses)
        assert best == ok[0].candidate
        # the order is total: every adjacent pair is strictly ordered by key
        keys = [gs._rank_key(r) for r in ok]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_parallelism_invariance(self):
        train, val = tiny_rows(seed=2)
        serial, best_s = gs.run(small_space(), train, val, base_seed=5,
                                max_epochs=10, patience=10, parallelism=1)
        parallel, best_p = gs.run(small_space(), train, val, base_seed=5,
                                  max_epochs=10, patience=10, parallelism=2)
        assert best_s == best_p
        assert [(r.candidate, r.status, r.val_mse) for r in serial] == \
               [(r.candidate, r.status, r.val_mse) for r in parallel]

    def test_parallelism_below_one_is_an_error(self):
        train, val = tiny_rows(seed=2)
        with pytest.raises(ValueError, match=r"^parallelism must be >= 1, got 0$"):
            gs.run(small_space(), train, val, parallelism=0)

    def test_each_trial_trained_alone_equals_its_result(self):
        train, val = tiny_rows(seed=2)
        results, _ = gs.run(small_space(), train, val, base_seed=5, max_epochs=10, patience=10)
        for r in results:
            model, config = gs.trial(r.candidate, train.shape[1], 5, 10, 10)
            _, report = ae.train(model, train, val, config)
            assert (config.seed, report.final_val_mse, report.stopped_epoch) == \
                   (r.seed, r.val_mse, r.stopped_epoch)

    def test_repeat_runs_identical(self):
        train, val = tiny_rows(seed=3)
        a, _ = gs.run(small_space(), train, val, base_seed=9, max_epochs=10, patience=10)
        b, _ = gs.run(small_space(), train, val, base_seed=9, max_epochs=10, patience=10)
        assert [(r.candidate, r.val_mse) for r in a] == [(r.candidate, r.val_mse) for r in b]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_trials_excluded_from_ranking(self):
        train, val = tiny_rows(seed=4)
        space = gs.SearchSpace((8, 15), (20, 30), (2,), (0.01, 1e40))
        results, best = gs.run(space, train, val, base_seed=0, max_epochs=10, patience=10)
        failed = [r for r in results if r.status == "failed"]
        assert failed, "absurd learning rate should diverge"
        assert all(r.val_mse is None for r in failed)
        ok = [r for r in results if r.status == "ok"]
        assert best == ok[0].candidate
        assert best.learning_rate == 0.01
        # failed trials sort after all successful ones
        first_failed = results.index(failed[0])
        assert all(r.status == "ok" for r in results[:first_failed])

    def test_trial_worse_than_untrained_fails(self):
        """A trial whose losses stay finite but whose best validation MSE ends
        above its untrained model's is failed, like a diverged one."""
        train, val = tiny_rows(seed=3)
        space = gs.SearchSpace((8,), (12,), (8,), (0.01, 1.0))
        results, best = gs.run(space, train, val, base_seed=0, max_epochs=10, patience=3)
        assert [(r.candidate.learning_rate, r.status) for r in results] == \
               [(0.01, "ok"), (1.0, "failed")]
        assert (results[1].val_mse, results[1].stopped_epoch) == (None, None)
        assert "exceeds the untrained model's" in results[1].message
        assert best.learning_rate == 0.01

    def test_no_valid_candidates_errors(self):
        train, val = tiny_rows()
        space = gs.SearchSpace((3,), (2,), (8,), (0.01,))
        with pytest.raises(ValueError):
            gs.run(space, train, val)


class TestReport:
    def test_write_report_files(self, tmp_path):
        train, val = tiny_rows(seed=5)
        results, _ = gs.run(small_space(), train, val, base_seed=2,
                            max_epochs=8, patience=8)
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        gs.write_report(results, json_path, csv_path)

        records = json.loads(json_path.read_text(encoding="utf-8"))
        assert [r["rank"] for r in records] == list(range(len(results)))
        assert records[0]["val_mse"] == results[0].val_mse

        with csv_path.open(encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "rank"
        assert len(rows) == len(results) + 1
        assert float(rows[1][7]) == pytest.approx(results[0].val_mse)
