"""Reconstruction-error scoring and error maps."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsnode import autoencoder as ae
from epsnode import dataset as ds
from epsnode import features as feat
from epsnode import novelty as nov

CIR = ds.CIR_LENGTH


def identity_model(n=4, e1=8, e2=12):
    """A hand-built net whose padded-identity weights reproduce any
    non-negative input exactly."""
    model = ae.build(n, e1, e2, e1, seed=0)
    for w in model.weights:
        w[:] = 0.0
        k = min(w.shape)
        w[:k, :k] = np.eye(k)
    return model


def small_mset(cells, samples_per_cell=2, seed=0, nx=3, ny=2):
    rng = np.random.default_rng(seed)
    grid = ds.GridMap(origin=(0.0, 0.0), nx=nx, ny=ny, cell_size=0.5)
    measurements = []
    for cell in cells:
        for _ in range(samples_per_cell):
            readings = tuple(
                ds.AnchorReading(a, float(rng.uniform(1.0, 7.0)), rng.random(CIR))
                for a in range(4)
            )
            measurements.append(ds.Measurement(cell, 0, readings))
    return ds.MeasurementSet("custom", grid, measurements, seed=seed)


def reference_score(model, scaler, pipeline, mset, pca=None):
    """Per-row oracle for ``nov.score``: extract, scale, reconstruct and take
    the norm of one measurement at a time, then average each cell. Returns
    the total map values and the (n_anchors, ny, nx) anchor values. A PCA
    row projects its concatenated CIRs as ``components.T @ (row - mean)``.

    The norm is numpy's sum over one 4-vector, as the per-row scorer took
    it; a correctly rounded ``math.fsum`` norm differs from it in the last
    bit for about one row in eight, so it cannot serve an exact comparison
    (``test_sample_totals_match_per_anchor_norm`` holds it to 1e-12)."""
    n_anchors = len(mset.measurements[0].per_anchor)
    totals, per_anchor = {}, {}
    for meas in mset.measurements:
        values = [r.range_m for r in meas.per_anchor]
        if pipeline is feat.Pipeline.MA:
            for r in meas.per_anchor:
                values.extend(feat.find_peaks(feat.moving_average(r.cir)))
        if pipeline is feat.Pipeline.PCA:
            row = np.concatenate([r.cir for r in meas.per_anchor])
            values.extend(pca.components.T @ (row - pca.mean))
        x = feat.scale(scaler, np.array(values))
        recon = ae.forward(model, x)
        errs = np.array([abs(float(recon[k]) - float(x[k])) for k in range(n_anchors)])
        totals.setdefault(meas.cell, []).append(float(np.sqrt(np.sum(errs * errs))))
        per_anchor.setdefault(meas.cell, []).append(errs)
    grid = mset.grid
    total_values = np.full((grid.ny, grid.nx), np.nan)
    anchor_values = np.full((n_anchors, grid.ny, grid.nx), np.nan)
    for (i, j), cell_totals in totals.items():
        total_values[j, i] = np.mean(cell_totals)
        anchor_values[:, j, i] = np.mean(per_anchor[(i, j)], axis=0)
    return total_values, anchor_values


def rows_of(mset, cell):
    return [k for k, m in enumerate(mset.measurements) if m.cell == cell]


class TestErrors:
    def test_anchor_error_examples(self):
        assert nov.anchor_error(2.5, 2.0) == pytest.approx(0.5)
        assert nov.anchor_error(1.3, 1.3) == 0.0
        assert nov.anchor_error(0.2, 0.7) == nov.anchor_error(0.7, 0.2) == pytest.approx(0.5)

    def test_total_error_examples(self):
        assert nov.total_error([3.0, 4.0]) == pytest.approx(5.0)
        assert nov.total_error([0.0, 0.0, 0.0]) == 0.0
        assert nov.total_error([1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0)
        assert nov.total_error([0.3, 0.4, 0.0, 0.0]) == pytest.approx(0.5)

    def test_total_error_rejects_negative(self):
        with pytest.raises(ValueError):
            nov.total_error([0.1, -0.2])

    @given(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_total_matches_independent_accumulation(self, es):
        expected = math.sqrt(math.fsum(e * e for e in reversed(es)))
        assert abs(nov.total_error(es) - expected) <= 1e-12 * max(1.0, expected)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8),
           st.integers(0, 7), st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_each_component(self, es, idx, bump):
        idx %= len(es)
        bumped = list(es)
        bumped[idx] += bump
        assert nov.total_error(bumped) > nov.total_error(es)

    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, es, rnd):
        shuffled = list(es)
        rnd.shuffle(shuffled)
        assert nov.total_error(shuffled) == pytest.approx(nov.total_error(es), abs=1e-12)


class TestScore:
    def scaler_for(self, mset):
        return feat.fit_scaler(feat.extract_matrix(mset.measurements, feat.Pipeline.RNG))

    def test_identity_model_scores_zero(self):
        mset = small_mset([(0, 0), (1, 0), (2, 1)])
        scaler = self.scaler_for(mset)
        emap, anchor_maps, errors = nov.score(
            identity_model(), scaler, feat.Pipeline.RNG, None, mset)
        present = ~np.isnan(emap.values)
        assert np.allclose(emap.values[present], 0.0, atol=1e-12)
        assert all(t == pytest.approx(0.0, abs=1e-12) for t in nov.total_error(errors))
        assert len(anchor_maps) == 4

    def test_missing_cells_are_nan_not_zero(self):
        mset = small_mset([(0, 0)])
        scaler = self.scaler_for(mset)
        emap, _, _ = nov.score(identity_model(), scaler, feat.Pipeline.RNG, None, mset)
        assert emap.counts[0, 0] == 2
        assert np.isnan(emap.values[1, 2])
        assert emap.counts[1, 2] == 0

    def test_cell_value_is_mean_of_sample_totals(self, trained_rng, preset_b_set):
        model, scaler, _, _ = trained_rng
        emap, _, errors = nov.score(model, scaler, feat.Pipeline.RNG, None, preset_b_set)
        cell = (6, 3)
        totals = nov.total_error(errors[rows_of(preset_b_set, cell)])
        assert emap.values[cell[1], cell[0]] == pytest.approx(np.mean(totals), abs=1e-12)
        assert emap.counts[cell[1], cell[0]] == len(totals)

    def test_sample_totals_match_per_anchor_norm(self, trained_rng, preset_c_set):
        model, scaler, _, _ = trained_rng
        _, _, errors = nov.score(model, scaler, feat.Pipeline.RNG, None, preset_c_set)
        assert errors.shape == (len(preset_c_set), 4)
        for per_anchor, total in zip(errors[:50], nov.total_error(errors[:50])):
            expected = math.sqrt(math.fsum(e * e for e in per_anchor))
            assert total == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "pipeline, trained", [(feat.Pipeline.RNG, "trained_rng"), (feat.Pipeline.MA, "trained_ma"),
                              (feat.Pipeline.PCA, "trained_pca")]
    )
    def test_maps_equal_per_row_oracle(self, request, preset_b_set, pipeline, trained):
        model, scaler, _, pca = request.getfixturevalue(trained)
        emap, anchor_maps, _ = nov.score(model, scaler, pipeline, pca, preset_b_set)
        total_values, anchor_values = reference_score(model, scaler, pipeline, preset_b_set, pca)
        assert np.array_equal(emap.values, total_values, equal_nan=True)
        for amap, expected in zip(anchor_maps, anchor_values, strict=True):
            assert np.array_equal(amap.values, expected, equal_nan=True)

    def test_aggregate_alternatives(self):
        mset = small_mset([(0, 0), (1, 1)], samples_per_cell=5, seed=3)
        scaler = self.scaler_for(mset)
        model = ae.build(4, 8, 12, 8, seed=1)
        mean_map, _, errors = nov.score(model, scaler, feat.Pipeline.RNG, None, mset)
        max_map, _, _ = nov.score(model, scaler, feat.Pipeline.RNG, None, mset,
                                  aggregate="max")
        med_map, _, _ = nov.score(model, scaler, feat.Pipeline.RNG, None, mset,
                                  aggregate="median")
        totals = nov.total_error(errors[rows_of(mset, (0, 0))])
        assert max_map.values[0, 0] == pytest.approx(max(totals))
        assert med_map.values[0, 0] == pytest.approx(np.median(totals))
        assert mean_map.values[0, 0] == pytest.approx(np.mean(totals))

    def test_scoring_is_pure(self):
        mset = small_mset([(0, 0), (2, 1)], seed=5)
        scaler = self.scaler_for(mset)
        model = ae.build(4, 8, 12, 8, seed=2)
        a, _, _ = nov.score(model, scaler, feat.Pipeline.RNG, None, mset)
        b, _, _ = nov.score(model, scaler, feat.Pipeline.RNG, None, mset)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_dimension_mismatch_errors(self):
        mset = small_mset([(0, 0)])
        scaler = self.scaler_for(mset)
        model = ae.build(6, 8, 12, 8, seed=0)
        with pytest.raises(ValueError):
            nov.score(model, scaler, feat.Pipeline.RNG, None, mset)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        grid = ds.GridMap(origin=(0.0, 0.0), nx=3, ny=2, cell_size=0.5)
        values = np.array([[0.1, np.nan, 0.3], [0.4, 0.5, np.nan]])
        counts = np.array([[2, 0, 1], [3, 1, 0]])
        emap = nov.ErrorMap(grid, values, counts)
        path = tmp_path / "map.csv"
        nov.write_error_map_csv(emap, path)
        loaded = nov.read_error_map_csv(path)
        assert loaded.grid == grid
        assert np.array_equal(loaded.values, values, equal_nan=True)
        assert np.array_equal(loaded.counts, counts)

    def test_header_format(self, tmp_path):
        grid = ds.GridMap(origin=(1.0, 1.25), nx=8, ny=5, cell_size=0.5)
        emap = nov.ErrorMap(grid, np.zeros((5, 8)), np.ones((5, 8), dtype=int))
        path = tmp_path / "map.csv"
        nov.write_error_map_csv(emap, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# grid=1.0,1.25,8,5,0.5")
        assert lines[1] == "i,j,value,count"

    HEAD = "# grid=0.0,0.0,2,2,0.5\ni,j,value,count\n"
    FULL = ["0,0,1.0,1", "1,0,2.0,1", "0,1,nan,0", "1,1,4.0,1"]

    @pytest.mark.parametrize(
        "rows, located",
        [
            (FULL[:3] + ["99,0,1.0,1"], ": line 6: invalid row: cell (99, 0) outside the 2x2 grid"),
            (FULL + ["0,0,1.0,1"], ": line 7: invalid row: duplicate cell (0, 0)"),
            (FULL[:3], ": invalid error map: 1 cells missing, first (1, 1)"),
            (["0,0,abc,1"] + FULL[1:], ": line 3: invalid row: could not convert string to float: 'abc'"),
            (["0,0,1.0,x"] + FULL[1:], ": line 3: invalid row: invalid literal for int() with base 10: 'x'"),
            (FULL[:2] + ["0,1,1.0"] + FULL[3:],
             ": line 5: invalid row: not enough values to unpack (expected 4, got 3)"),
            (["0,0,1.0,-7"] + FULL[1:], ": line 3: invalid row: count must be >= 0, got -7"),
            (FULL[:2] + ["0,1,1.0,0"] + FULL[3:],
             ": line 5: invalid row: a cell of count 0 takes the value nan, got 1.0"),
            (["0,0,nan,3"] + FULL[1:],
             ": line 3: invalid row: a cell of count 3 takes a finite value >= 0, got nan"),
            (FULL[:3] + ["1,1,inf,1"],
             ": line 6: invalid row: a cell of count 1 takes a finite value >= 0, got inf"),
            (FULL[:1] + ["1,0,-5,2"] + FULL[2:],
             ": line 4: invalid row: a cell of count 2 takes a finite value >= 0, got -5.0"),
            (FULL[:1] + ["1,0," + "1" * 200000 + ",1"] + FULL[2:],
             ": line 4: invalid row: field larger than field limit (131072)"),
            # int() and float() read these, but a row holds plain ASCII numbers
            (["0,0,1_0, 1"] + FULL[1:], ": line 3: invalid row: expected a plain ASCII number, got '1_0'"),
            (["0,0,1.0, 1"] + FULL[1:], ": line 3: invalid row: expected a plain ASCII integer, got ' 1'"),
            (FULL[:3] + ["\u0661,1,4.0,1"],
             ": line 6: invalid row: expected a plain ASCII integer, got '\u0661'"),
        ],
        ids=["cell-outside", "duplicate-cell", "cells-missing", "value-not-float", "count-not-int",
             "short-row", "count-negative", "count-0-with-value", "value-nan", "value-inf",
             "value-negative", "field-too-long", "value-underscore", "count-space", "cell-arabic-digit"],
    )
    def test_bad_rows_are_located(self, tmp_path, rows, located):
        path = tmp_path / "map.csv"
        path.write_text(self.HEAD + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ds.InputFileError) as raised:
            nov.read_error_map_csv(path)
        assert str(raised.value) == f"{path}{located}"

    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, nx, ny, data):
        n = nx * ny
        counts = np.array(
            data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)), dtype=int
        ).reshape(ny, nx)
        # a cell without samples holds nan, any other a finite value >= 0
        cells = st.floats(min_value=0.0, allow_infinity=False)
        values = np.array([data.draw(cells) if count else math.nan for count in counts.flat]).reshape(ny, nx)
        grid = ds.GridMap(origin=(0.0, 0.0), nx=nx, ny=ny, cell_size=0.5)
        path = tmp_path_factory.mktemp("csv") / "map.csv"
        nov.write_error_map_csv(nov.ErrorMap(grid, values, counts), path)
        loaded = nov.read_error_map_csv(path)
        assert loaded.values.tobytes() == values.tobytes()
        assert np.array_equal(loaded.counts, counts)
