"""KDE densities and KL-divergence scoring."""
from __future__ import annotations

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epsnode import evaluation as ev
from epsnode import simulator as sim
from epsnode.dataset import GridMap
from epsnode.novelty import ErrorMap


def density_to_error_map(d: ev.DensityMap) -> ErrorMap:
    """View a density as an error map for CSV export."""
    return ErrorMap(
        grid=d.grid,
        values=d.p.copy(),
        counts=np.ones((d.grid.ny, d.grid.nx), dtype=int),
    )


def grid2x2():
    return GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.5)


def emap_from(values, grid=None):
    values = np.asarray(values, dtype=float)
    if grid is None:
        ny, nx = values.shape
        grid = GridMap(origin=(0.0, 0.0), nx=nx, ny=ny, cell_size=0.5)
    counts = np.where(np.isnan(values), 0, 1).astype(int)
    return ErrorMap(grid=grid, values=values, counts=counts)


def pairwise_kde(emap: ErrorMap, bandwidth: float) -> np.ndarray:
    """The (n, n) form ``kde`` had before its kernel was split per axis, kept as
    its oracle: the Gaussian of every pair of the n = nx * ny cell centers."""
    grid = emap.grid
    weights = np.nan_to_num(emap.values, nan=0.0).reshape(-1)
    centers = np.array([grid.cell_center(i, j) for i, j in grid.cells()])
    diff = centers[:, None, :] - centers[None, :, :]
    density = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * bandwidth**2)) @ weights
    return (density / density.sum()).reshape(grid.ny, grid.nx)


class TestDensityMap:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ev.DensityMap(grid2x2(), np.full((3, 2), 1 / 6))

    def test_rejects_negative(self):
        p = np.array([[0.6, 0.5], [-0.1, 0.0]])
        with pytest.raises(ValueError):
            ev.DensityMap(grid2x2(), p)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ev.DensityMap(grid2x2(), np.full((2, 2), 0.3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_values_not_finite(self, bad):
        # NaN passes both the sign and the sum check on its own
        with pytest.raises(ValueError, match=f"density values must be finite, got {bad}"):
            ev.DensityMap(grid2x2(), np.array([[bad, 0.5], [0.25, 0.25]]))


class TestKl:
    def test_self_divergence_is_zero(self):
        p = ev.DensityMap(grid2x2(), np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert ev.kl_divergence(p, p) <= 1e-12

    def test_two_cell_reference_values(self):
        grid = grid2x2()
        p = ev.DensityMap(grid, np.array([[0.5, 0.5], [0.0, 0.0]]))
        q = ev.DensityMap(grid, np.array([[0.25, 0.75], [0.0, 0.0]]))
        forward = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        backward = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
        assert ev.kl_divergence(p, q) == pytest.approx(0.1438, abs=1e-4)
        assert ev.kl_divergence(q, p) == pytest.approx(0.1308, abs=1e-4)
        assert ev.kl_divergence(p, q) == pytest.approx(forward, abs=1e-8)
        assert ev.kl_divergence(q, p) == pytest.approx(backward, abs=1e-8)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        grid = grid2x2()
        for _ in range(100):
            a = rng.random((2, 2)) + 1e-6
            b = rng.random((2, 2)) + 1e-6
            p = ev.DensityMap(grid, a / a.sum())
            q = ev.DensityMap(grid, b / b.sum())
            assert ev.kl_divergence(p, q) >= 0.0

    def test_rounding_residue_reads_zero(self):
        # at a bandwidth far wider than the grid both densities are uniform up
        # to rounding, and the raw sum of P log(P / Q) comes out at -1.29e-16
        grid = GridMap((3.5, 2.5), 6, 2, 0.25)
        emap = ErrorMap(grid, np.arange(1.0, 13.0).reshape(2, 6), np.ones((2, 6), dtype=int))
        truth = ev.ground_truth_density(sim.scenario("B"), grid, 5996)
        assert ev.kl_divergence(ev.kde(emap, 5996), truth, 1e-9) == 0.0

    def test_grid_mismatch_errors(self):
        p = ev.uniform_density(grid2x2())
        q = ev.uniform_density(GridMap(origin=(1.0, 0.0), nx=2, ny=2, cell_size=0.5))
        with pytest.raises(ValueError):
            ev.kl_divergence(p, q)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_eps_not_finite_and_positive(self, eps):
        p = ev.uniform_density(grid2x2())
        # the normal-float rule refuses these too: NaN fails every comparison
        with pytest.raises(ValueError, match=rf"eps must be a normal float below 1 .*, got {re.escape(str(eps))}$"):
            ev.kl_divergence(p, p, eps)

    @pytest.mark.parametrize("eps", [1.0, 1e308, 5e-324, 1e-310])
    def test_rejects_eps_not_a_normal_float_below_one(self, eps):
        p = ev.uniform_density(grid2x2())
        with pytest.raises(ValueError, match=rf"eps must be a normal float below 1 .*, got {re.escape(str(eps))}$"):
            ev.kl_divergence(p, p, eps)

    def test_smallest_normal_eps_keeps_the_ratio_finite(self):
        # a subnormal floor under a zero of Q overflows P / Q to inf
        grid = grid2x2()
        p = ev.uniform_density(grid)
        q = ev.DensityMap(grid, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert math.isfinite(ev.kl_divergence(p, q, float(np.finfo(float).tiny)))

    def test_asymmetric_in_general(self):
        grid = grid2x2()
        p = ev.DensityMap(grid, np.array([[0.7, 0.1], [0.1, 0.1]]))
        q = ev.uniform_density(grid)
        assert ev.kl_divergence(p, q) != pytest.approx(ev.kl_divergence(q, p), abs=1e-6)


class TestKde:
    def test_single_hot_cell_peaks_there_and_decays(self):
        values = np.zeros((3, 3))
        values[1, 1] = 1.0
        d = ev.kde(emap_from(values))
        assert d.p[1, 1] == d.p.max()
        assert d.p[0, 0] < d.p[0, 1] < d.p[1, 1]

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        values = rng.random((3, 3))
        grid = GridMap(origin=(0.0, 0.0), nx=3, ny=3, cell_size=0.5)
        bw = 0.4
        d = ev.kde(emap_from(values, grid), bandwidth=bw)
        expected = np.zeros((3, 3))
        for j in range(3):
            for i in range(3):
                x, y = grid.cell_center(i, j)
                acc = 0.0
                for jj in range(3):
                    for ii in range(3):
                        sx, sy = grid.cell_center(ii, jj)
                        sq = (x - sx) ** 2 + (y - sy) ** 2
                        acc += values[jj, ii] * math.exp(-sq / (2 * bw * bw))
                expected[j, i] = acc
        expected /= expected.sum()
        assert np.allclose(d.p, expected, atol=1e-12)

    def test_normalized(self):
        rng = np.random.default_rng(5)
        d = ev.kde(emap_from(rng.random((4, 5))))
        assert abs(d.p.sum() - 1.0) <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        values = rng.random((3, 4))
        a = ev.kde(emap_from(values))
        b = ev.kde(emap_from(values * 37.5))
        assert np.allclose(a.p, b.p, atol=1e-12)

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(2, 5)),
               elements=st.one_of(st.just(0.0), st.just(np.nan), st.floats(1e-100, 1e100))),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_property(self, values, c):
        # positive cells stay far from subnormals after scaling, so every
        # product keeps full precision
        assume(np.nansum(values) > 0)
        a = ev.kde(emap_from(values))
        b = ev.kde(emap_from(c * values))
        assert np.allclose(b.p, a.p, rtol=1e-12, atol=0.0)

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(2, 12)),
               elements=st.one_of(st.just(0.0), st.just(np.nan), st.floats(1e-3, 1e3))),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        st.floats(0.01, 2.0),
        st.floats(0.5, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle(self, values, origin, cell_size, cells_per_bandwidth):
        # a bandwidth of half a cell or more keeps every kernel value and every
        # weighted term of a 12x12 grid far above the subnormals, so both
        # forms keep full precision
        assume(np.nansum(values) > 0)
        ny, nx = values.shape
        emap = emap_from(values, GridMap(origin=origin, nx=nx, ny=ny, cell_size=cell_size))
        bandwidth = cell_size * cells_per_bandwidth
        expected = pairwise_kde(emap, bandwidth)
        assert np.allclose(ev.kde(emap, bandwidth).p, expected, rtol=1e-12, atol=0.0)

    def test_memory_grows_with_the_axes_not_the_cell_pairs(self):
        # 3000 cells: the pairwise form's (n, n, 2) offsets alone take 144 MB
        rng = np.random.default_rng(7)
        emap = emap_from(rng.random((50, 60)))
        tracemalloc.start()
        try:
            ev.kde(emap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_nan_cells_contribute_nothing(self):
        values = np.array([[1.0, np.nan], [np.nan, np.nan]])
        zeroed = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(ev.kde(emap_from(values)).p, ev.kde(emap_from(zeroed)).p)

    def test_all_zero_map_errors(self):
        with pytest.raises(ValueError, match="no density mass"):
            ev.kde(emap_from(np.zeros((2, 2))))

    def test_rejects_negative_values(self):
        values = np.array([[1.0, -0.5], [0.2, 0.1]])
        with pytest.raises(ValueError):
            ev.kde(emap_from(values))

    def test_rejects_bad_bandwidth(self):
        for bandwidth in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"bandwidth must be finite and positive, got {bandwidth}"):
                ev.kde(emap_from(np.ones((2, 2))), bandwidth=bandwidth)

    def test_rejects_bandwidth_whose_kernel_is_not_finite(self):
        # 2h² underflows to 0, so the kernel's diagonal is 0/0
        with pytest.raises(ValueError, match="bandwidth must be large enough for a finite kernel, got 1e-170"):
            ev.kde(emap_from(np.ones((2, 2))), bandwidth=1e-170)

    @pytest.mark.parametrize("bandwidth, kernel", [(1e-155, "identity"), (1e300, "ones")])
    def test_extreme_bandwidths_give_the_limit_kernels(self, bandwidth, kernel):
        # the exponent overflows to -inf off the diagonal, or 2h² to inf; neither warns
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ev.kde(emap_from(values), bandwidth=bandwidth).p
        expected = values / values.sum() if kernel == "identity" else np.full((2, 2), 0.25)
        np.testing.assert_array_equal(p, expected)

    def test_rejects_values_whose_density_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="error map values too large: their density sums to inf"):
                ev.kde(emap_from(np.full((2, 2), 1e308)))


class TestGroundTruth:
    def test_nominal_scenario_errors(self, grid):
        with pytest.raises(ValueError, match="no novelty"):
            ev.ground_truth_density(sim.scenario("nominal"), grid)

    def test_grid_far_from_every_obstacle_errors(self):
        # the kde of an all-zero indicator would blame an error map instead
        grid = GridMap.from_spec("1.0,1.25,2,2,0.5")
        with pytest.raises(ValueError, match=r"no cell of the grid 1\.0,1\.25,2,2,0\.5 lies within "
                           r"GROUND_TRUTH_RADIUS \(0\.75 m\) of the scenario's obstacles"):
            ev.ground_truth_density(sim.scenario("B"), grid)

    def test_mass_concentrates_near_obstacles(self, grid):
        for name in ("A", "B", "C"):
            env = sim.scenario(name)
            d = ev.ground_truth_density(env, grid)
            jmax, imax = np.unravel_index(np.argmax(d.p), d.p.shape)
            center = grid.cell_center(imax, jmax)
            dist = min(o.footprint.distance_to(center) for o in env.obstacles)
            assert dist <= 1.0
            # far corner carries much less mass than the hot spot
            far = max(
                ((j, i) for i, j in grid.cells()),
                key=lambda c: min(
                    o.footprint.distance_to(grid.cell_center(c[1], c[0]))
                    for o in env.obstacles
                ),
            )
            assert d.p[far] < 0.25 * d.p[jmax, imax]

    def test_uniform_beats_nothing(self, grid):
        # sanity: ground truth is farther from uniform than from itself
        env = sim.scenario("C")
        gt = ev.ground_truth_density(env, grid)
        unif = ev.uniform_density(grid)
        assert ev.kl_divergence(gt, gt) < ev.kl_divergence(unif, gt)


class TestConversions:
    def test_uniform_density(self, grid):
        d = ev.uniform_density(grid)
        assert np.allclose(d.p, 1.0 / grid.n_cells)

    def test_density_to_error_map_roundtrip(self, grid):
        env = sim.scenario("B")
        d = ev.ground_truth_density(env, grid)
        emap = density_to_error_map(d)
        assert np.allclose(emap.values, d.p)
        assert np.allclose(ev.kde(emap).p.sum(), 1.0)

    def test_kl_report_roundtrip(self, tmp_path):
        import json

        report = ev.KlReport("B", "rng", 0.5, 1e-9, 0.9, 2.3)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["kl_pred_vs_truth"] == 0.9
        assert loaded["scenario"] == "B"
