"""Feature pipelines: moving average, peaks, PCA (thin SVD), scaling, extraction."""
from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from epsnode import dataset as ds
from epsnode import features as feat
from epsnode.features import Pipeline

CIR = ds.CIR_LENGTH


def make_measurement(rng, n_anchors=4):
    readings = tuple(
        ds.AnchorReading(a, float(rng.uniform(1.0, 7.0)), rng.random(CIR))
        for a in range(n_anchors)
    )
    return ds.Measurement((0, 0), 0, readings)


class TestMovingAverage:
    def test_two_period_mean(self):
        out = feat.moving_average([2.0, 4.0, 6.0, 8.0])
        assert np.allclose(out, [2.0, 3.0, 5.0, 7.0])

    def test_constant_fixed_point(self):
        x = np.full(10, 3.5)
        assert np.array_equal(feat.moving_average(x), x)

    def test_first_sample_passthrough(self):
        assert np.allclose(feat.moving_average([0.0, 1.0]), [0.0, 0.5])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_neighbourhood(self, xs):
        x = np.array(xs)
        y = feat.moving_average(x)
        lo = np.minimum(x[1:], x[:-1])
        hi = np.maximum(x[1:], x[:-1])
        assert np.all(y[1:] >= lo - 1e-9) and np.all(y[1:] <= hi + 1e-9)


def find_peaks_loop(signal, k):
    """The scan ``find_peaks`` replaced, kept as its oracle: the first k
    interior i with x[i] > x[i - 1] and x[i] >= x[i + 1], zero-padded."""
    x = np.asarray(signal, dtype=float)
    out = np.zeros(k)
    found = 0
    for i in range(1, len(x) - 1):
        if x[i] > x[i - 1] and x[i] >= x[i + 1]:
            out[found] = x[i]
            found += 1
            if found == k:
                break
    return out


class TestFindPeaks:
    # small integer levels make plateaus and ties common; NaN compares false
    @given(st.lists(st.one_of(st.integers(0, 3).map(float), st.floats()),
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop(self, xs):
        assert feat.find_peaks(xs).tobytes() == find_peaks_loop(xs, feat.MA_PEAKS).tobytes()

    def test_simple_peaks(self):
        # seven peaks, of which the first six are kept
        xs = [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0]
        assert np.array_equal(feat.find_peaks(xs), [1, 2, 3, 4, 5, 6])

    def test_monotone_has_no_interior_peaks(self):
        assert np.array_equal(feat.find_peaks(np.arange(10.0)), np.zeros(6))

    def test_plateau_first_sample_wins(self):
        assert np.array_equal(feat.find_peaks([0.0, 2.0, 2.0, 0.0]), [2.0, 0, 0, 0, 0, 0])

    def test_temporal_order_and_padding(self):
        out = feat.find_peaks([0, 5, 0, 1, 0])
        assert np.array_equal(out, [5.0, 1.0, 0.0, 0.0, 0.0, 0.0])


class TestPca:
    def test_collinear_rank_one(self):
        rows = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = feat.fit_pca(rows)
        assert model.components.shape[1] == 1
        assert model.explained_ratio[0] == pytest.approx(1.0)

    def test_symmetric_axes_need_two(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = feat.fit_pca(rows, variance_target=0.90)
        assert model.components.shape[1] == 2
        assert np.allclose(model.explained_ratio, [0.5, 0.5])

    @pytest.mark.parametrize("target", [math.nan, math.inf, 5.0, -1.0, 0.0])
    def test_rejects_variance_target_outside_unit_interval(self, target):
        rows = np.random.default_rng(5).normal(size=(50, 20))
        with pytest.raises(ValueError, match=rf"variance_target must be in \(0, 1\], got {target}"):
            feat.fit_pca(rows, target)

    def test_degenerate_data_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            feat.fit_pca(np.ones((5, 3)))

    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(20, 5))
        model = feat.fit_pca(rows)
        assert np.allclose(feat.apply_pca(model, rows.mean(axis=0)), 0.0, atol=1e-12)

    def test_collinear_reconstruction(self):
        rows = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
        model = feat.fit_pca(rows)
        for x in rows:
            z = feat.apply_pca(model, x)
            back = model.mean + model.components @ z
            assert np.allclose(back, x, atol=1e-9)

    def test_component_projections_are_unit_basis(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(50, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        model = feat.fit_pca(rows, variance_target=0.99)
        k = model.components.shape[1]
        for idx in range(k):
            proj = feat.apply_pca(model, model.mean + model.components[:, idx])
            assert np.allclose(proj, np.eye(k)[idx], atol=1e-8)

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 64), k=st.integers(1, 20),
           order=st.sampled_from("CF"))
    @settings(max_examples=30, deadline=None)
    def test_rows_keep_their_own_bits(self, seed, m, k, order):
        """On the PCA pipeline's 608-long rows (four 152-sample CIRs), every
        row of a matrix projects to the bits of the per-row product
        ``components.T @ (row - mean)``, with the components laid out as a
        fit (F) or a loaded bundle (C) holds them."""
        rng = np.random.default_rng(seed)
        d = 4 * CIR
        components = np.asarray(np.linalg.qr(rng.normal(size=(d, k)))[0], order=order)
        model = feat.PcaModel(rng.normal(size=d), components, np.full(k, 1.0 / k))
        rows = rng.normal(size=(m, d)) * rng.uniform(1e-3, 1e3)
        expected = np.array([model.components.T @ (row - model.mean) for row in rows])
        assert np.array_equal(feat.apply_pca(model, rows), expected)

    def test_wrong_row_length(self):
        model = feat.fit_pca(np.random.default_rng(0).normal(size=(20, 5)))
        for shape in [(4,), (3, 6), (2, 3, 5)]:
            with pytest.raises(ValueError, match="expected rows of length 5"):
                feat.apply_pca(model, np.zeros(shape))

    def test_explained_sorted_and_orthonormal(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(100, 8)) * np.linspace(3.0, 0.3, 8)
        model = feat.fit_pca(rows)
        r = model.explained_ratio
        assert np.all(r[:-1] >= r[1:] - 1e-12)
        assert np.sum(r) >= 0.90
        gram = model.components.T @ model.components
        assert np.allclose(gram, np.eye(len(r)), atol=1e-8)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(3)
        model = feat.fit_pca(rng.normal(size=(30, 5)))
        loaded = feat.arrays_from_json(feat.PcaModel, json.loads(json.dumps(feat.arrays_to_json(model))))
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.explained_ratio, model.explained_ratio)

    def test_component_signs_pinned(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
        comps = feat.fit_pca(rows, variance_target=0.99).components
        pivots = np.abs(comps).argmax(axis=0)
        assert np.all(comps[pivots, np.arange(comps.shape[1])] > 0)


class TestScaler:
    def test_linear_map(self):
        scaler = feat.fit_scaler(np.array([[0.0], [10.0]]))
        assert feat.scale(scaler, np.array([5.0]))[0] == pytest.approx(0.5)

    def test_no_clamping(self):
        scaler = feat.fit_scaler(np.array([[0.0], [10.0]]))
        assert feat.scale(scaler, np.array([20.0]))[0] == pytest.approx(2.0)

    def test_constant_feature_maps_to_zero(self):
        scaler = feat.fit_scaler(np.array([[7.0, 1.0], [7.0, 2.0]]))
        out = feat.scale(scaler, np.array([7.0, 1.5]))
        assert out[0] == 0.0 and out[1] == pytest.approx(0.5)

    def test_json_roundtrip(self, tmp_path):
        scaler = feat.fit_scaler(np.array([[0.0, -1.0], [2.0, 5.0]]))
        obj = feat.arrays_from_json(feat.Scaler, feat.arrays_to_json(scaler))
        assert np.allclose(obj.mins, scaler.mins) and np.allclose(obj.maxs, scaler.maxs)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_train_rows_land_in_unit_box(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(8, 3)) * 10
        scaler = feat.fit_scaler(rows)
        scaled = feat.scale(scaler, rows)
        assert np.all(scaled >= -1e-12) and np.all(scaled <= 1 + 1e-12)


@pytest.mark.parametrize("cls", [feat.Scaler, feat.PcaModel])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_json_round_trip_is_exact(cls, data):
    shapes = array_shapes(max_dims=2, max_side=6)
    obj = cls(*(data.draw(arrays(np.float64, shapes, elements=st.floats(allow_nan=False)))
                for _ in fields(cls)))
    loaded = feat.arrays_from_json(cls, json.loads(json.dumps(feat.arrays_to_json(obj))))
    assert all(np.array_equal(getattr(loaded, f.name), getattr(obj, f.name)) for f in fields(cls))


class TestExtraction:
    def test_rng_features_are_ranges(self):
        rng = np.random.default_rng(0)
        meas = make_measurement(rng)
        mat = feat.extract_matrix([meas], Pipeline.RNG)
        assert np.allclose(mat[0], [r.range_m for r in meas.per_anchor])
        # anchor k's range sits in column k
        assert all(mat[0, r.anchor_id] == r.range_m for r in meas.per_anchor)

    def test_ma_length(self):
        rng = np.random.default_rng(1)
        mat = feat.extract_matrix([make_measurement(rng)], Pipeline.MA)
        # per anchor its range and MA_PEAKS peaks
        assert feat.feature_length(Pipeline.MA, 4) == mat.shape[1] == 4 * (1 + feat.MA_PEAKS) == 28

    def test_ma_peaks_come_from_smoothed_cir(self):
        rng = np.random.default_rng(2)
        meas = make_measurement(rng)
        mat = feat.extract_matrix([meas], Pipeline.MA)
        smoothed = feat.moving_average(meas.per_anchor[0].cir)
        assert np.allclose(mat[0, 4:10], feat.find_peaks(smoothed))

    def test_pca_pipeline_length(self):
        rng = np.random.default_rng(3)
        mset = [make_measurement(rng) for _ in range(12)]
        cirs = feat.cir_matrix(mset)
        assert cirs.shape == (12, 4 * CIR)
        assert np.array_equal(cirs[0, CIR : 2 * CIR], mset[0].per_anchor[1].cir)
        pca = feat.fit_pca(cirs)
        k = pca.k
        mat = feat.extract_matrix(mset[:1], Pipeline.PCA, pca)
        assert mat.shape == (1, 4 + k)
        assert feat.feature_length(Pipeline.PCA, 4, pca) == 4 + k
        assert all(mat[0, r.anchor_id] == r.range_m for r in mset[0].per_anchor)

    def test_pca_pipeline_requires_model(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            feat.extract_matrix([make_measurement(rng)], Pipeline.PCA)

    def test_extract_matrix_shape(self):
        rng = np.random.default_rng(5)
        mset = [make_measurement(rng) for _ in range(6)]
        mat = feat.extract_matrix(mset, Pipeline.RNG)
        assert mat.shape == (6, 4)


def cir_matrix_by_list(measurements):
    """The list-built form ``cir_matrix`` replaced, kept as its oracle."""
    return np.array([np.concatenate([r.cir for r in m.per_anchor]) for m in measurements])


def ma_matrix_by_list(measurements):
    """The list-built MA matrix ``extract_matrix`` replaced, kept as its oracle."""
    ranges = np.array([[r.range_m for r in m.per_anchor] for m in measurements], dtype=float)
    peaks = np.array(
        [[feat.find_peaks(feat.moving_average(r.cir)) for r in m.per_anchor] for m in measurements]
    )
    return np.hstack([ranges, peaks.reshape(len(ranges), -1)])


@st.composite
def measurement_lists(draw):
    values = st.floats(-1e300, 1e300)
    n_anchors = draw(st.integers(1, 4))
    return [
        ds.Measurement((0, 0), 0, tuple(
            ds.AnchorReading(a, draw(values), draw(arrays(np.float64, CIR, elements=values)))
            for a in range(n_anchors)
        ))
        for _ in range(draw(st.integers(1, 5)))
    ]


@given(measurement_lists())
@settings(max_examples=40, deadline=None)
def test_matrices_filled_in_place_equal_list_built_ones(measurements):
    for got, want in [
        (feat.cir_matrix(measurements), cir_matrix_by_list(measurements)),
        (feat.extract_matrix(measurements, Pipeline.MA), ma_matrix_by_list(measurements)),
    ]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
