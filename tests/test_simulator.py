"""Channel simulator: geometry, CIR synthesis, range detection, datasets."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import crosses_exactly, msets_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from epsnode import simulator as sim
from epsnode.simulator import (
    Anchor,
    ChannelParams,
    Environment,
    Material,
    Obstacle,
    Rect,
)

C = sim.SPEED_OF_LIGHT


def make_env(room=Rect(0.0, 0.0, 12.0, 12.0), anchors=None, obstacles=()):
    if anchors is None:
        anchors = (
            Anchor(0, (0.0, 0.0)),
            Anchor(1, (12.0, 0.0)),
            Anchor(2, (12.0, 12.0)),
            Anchor(3, (0.0, 12.0)),
        )
    return Environment(room=room, anchors=anchors, obstacles=tuple(obstacles))


def received_cir(env, tag, anchor, params, rng_seed):
    """One sample's CIR as ``generate_dataset`` builds it: the traced
    template plus that sample's noise."""
    return sim.add_noise(sim.noise_free_cir(env, tag, anchor), params, np.random.default_rng(rng_seed))


def faces_of(rect, reflectivity):
    """The reflecting faces of ``rect``, written out: x == xmin, x == xmax,
    y == ymin, y == ymax."""
    return [
        sim._Face(0, rect.xmin, rect.ymin, rect.ymax, reflectivity),
        sim._Face(0, rect.xmax, rect.ymin, rect.ymax, reflectivity),
        sim._Face(1, rect.ymin, rect.xmin, rect.xmax, reflectivity),
        sim._Face(1, rect.ymax, rect.xmin, rect.xmax, reflectivity),
    ]


def in_window(path):
    return round(path.delay_ns / sim.SAMPLE_PERIOD_NS) <= sim.CIR_LENGTH - 1


def pulse_sum(paths):
    """Oracle for the noise-free CIR: one Gaussian pulse per path, added in
    path order."""
    samples = np.zeros(sim.CIR_LENGTH)
    bins = np.arange(sim.CIR_LENGTH, dtype=float)
    for path in paths:
        tau = path.delay_ns / sim.SAMPLE_PERIOD_NS
        samples += path.amplitude * np.exp(-((bins - tau) ** 2) / (2.0 * sim.PULSE_SIGMA**2))
    return samples


def in_window_sum(paths):
    return pulse_sum([p for p in paths if in_window(p)])


# coordinates on a quarter-metre lattice hit shared edges and corners often
coords = st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.floats(-3.0, 3.0))
points = st.tuples(coords, coords)


@st.composite
def rects(draw):
    xmin, xmax = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    ymin, ymax = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    return Rect(xmin, ymin, xmax, ymax)


class TestGeometry:
    def test_no_obstacles_is_los(self):
        env = make_env()
        assert sim._blocking_obstacles(env, (1.0, 1.0), (11.0, 11.0)) == []

    def test_piercing_obstacle_blocks(self):
        square = Obstacle.of(Rect(1.5, -0.5, 2.5, 0.5), Material.METAL)
        env = make_env(obstacles=[square])
        assert sim._blocking_obstacles(env, (0.0, 0.0), (4.0, 0.0)) == [square]

    def test_corner_graze_counts_as_los(self):
        square = Obstacle.of(Rect(2.0, 2.0, 3.0, 3.0), Material.METAL)
        env = make_env(obstacles=[square])
        # segment through the corner vertex (2, 2) only
        assert sim._blocking_obstacles(env, (1.0, 3.0), (3.0, 1.0)) == []

    def test_edge_slide_counts_as_los(self):
        square = Obstacle.of(Rect(2.0, 2.0, 3.0, 3.0), Material.METAL)
        env = make_env(obstacles=[square])
        assert sim._blocking_obstacles(env, (0.0, 2.0), (5.0, 2.0)) == []

    @given(points, points, rects())
    @settings(max_examples=300, deadline=None)
    def test_crossing_is_symmetric(self, a, b, rect):
        assert sim._segment_crosses_interior(a, b, rect) == sim._segment_crosses_interior(b, a, rect)

    @given(points, points, st.lists(rects(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_blocking_matches_exact_oracle(self, a, b, footprints):
        """Wherever growing or shrinking a footprint by 1e-9 m leaves the exact
        verdict as it is (the segment is not within 1e-9 m of tangent), the
        floating-point test blocks on that obstacle exactly when the exact
        slab test says the segment crosses it."""
        obstacles = [Obstacle.of(r, Material.WOOD) for r in footprints]
        blocked = sim._blocking_obstacles(make_env(obstacles=obstacles), a, b)
        near = Fraction(1, 10**9)
        for o in obstacles:
            verdicts = {crosses_exactly(a, b, o.footprint, m) for m in (-near, 0, near)}
            if len(verdicts) == 1:
                assert any(x is o for x in blocked) == verdicts.pop()

    def test_crossing_symmetric_for_sliver_obstacle(self):
        # from (0.25, 0) the crossing interval [1 - 5.5e-193, 1] rounds to
        # [1, 1]; without the endpoint ordering only one direction crossed
        sliver = Rect(0.0, -0.25, 1.3744338376567314e-193, 0.25)
        a, b = (0.0, 0.0), (0.25, 0.0)
        assert sim._segment_crosses_interior(a, b, sliver)
        assert sim._segment_crosses_interior(b, a, sliver)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_empty_room_has_direct_path_and_four_wall_reflections(self, tx, ty, ax, ay):
        room = Rect(-1.0, 0.5, 5.0, 4.5)
        width, height = room.xmax - room.xmin, room.ymax - room.ymin
        tag = (room.xmin + tx * width, room.ymin + ty * height)
        apos = (room.xmin + ax * width, room.ymin + ay * height)
        corners = ((room.xmin, room.ymin), (room.xmax, room.ymin), (room.xmax, room.ymax))
        env = Environment(room=room, anchors=(Anchor(0, apos),) + tuple(
            Anchor(k + 1, p) for k, p in enumerate(corners)))
        paths = sim.propagation_paths(env, tag, env.anchors[0])
        # the anchor mirrored in x == xmin, x == xmax, y == ymin, y == ymax
        images = [
            (2.0 * room.xmin - apos[0], apos[1]),
            (2.0 * room.xmax - apos[0], apos[1]),
            (apos[0], 2.0 * room.ymin - apos[1]),
            (apos[0], 2.0 * room.ymax - apos[1]),
        ]
        expected = [math.dist(tag, apos)] + [math.dist(tag, image) for image in images]
        assert [p.delay_ns for p in paths] == [d / C for d in expected]


class TestEnvironmentInvariants:
    def test_rejects_fewer_than_three_anchors(self):
        with pytest.raises(ValueError):
            make_env(anchors=(Anchor(0, (0.0, 0.0)), Anchor(1, (1.0, 0.0))))

    def test_rejects_noncontiguous_ids(self):
        anchors = (Anchor(0, (0.0, 0.0)), Anchor(1, (1.0, 0.0)), Anchor(3, (0.0, 1.0)))
        with pytest.raises(ValueError):
            make_env(anchors=anchors)

    def test_rejects_anchor_outside_room(self):
        anchors = (Anchor(0, (-1.0, 0.0)), Anchor(1, (1.0, 0.0)), Anchor(2, (0.0, 1.0)))
        with pytest.raises(ValueError):
            make_env(anchors=anchors)

    def test_obstacle_energy_budget(self):
        with pytest.raises(ValueError):
            Obstacle(Rect(0.0, 0.0, 1.0, 1.0), Material.METAL, reflectivity=0.7, transmissivity=0.5)

    @pytest.mark.parametrize("field", ["xmin", "ymin", "xmax", "ymax"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rect_rejects_coordinate_not_finite(self, field, value):
        coords = {"xmin": 0.0, "ymin": 0.0, "xmax": 1.0, "ymax": 1.0, field: value}
        with pytest.raises(ValueError, match=f"rectangle {field} must be finite, got {value}"):
            Rect(**coords)

    def test_degenerate_footprint(self):
        with pytest.raises(ValueError):
            Obstacle.of(Rect(1.0, 1.0, 1.0, 2.0), Material.WOOD)

    @pytest.mark.parametrize("value", [-1.0, 5.0, math.nan, math.inf])
    def test_rejects_wall_reflectivity_outside_unit_interval(self, value):
        named = rf"wall_reflectivity must be finite and in \[0, 1\], got {value}"
        with pytest.raises(ValueError, match=named):
            Environment(room=Rect(0.0, 0.0, 12.0, 12.0), anchors=make_env().anchors,
                        wall_reflectivity=value)

    @given(st.permutations(sim.scenario("C").anchors))
    @settings(max_examples=24, deadline=None)
    def test_anchors_stored_in_id_order(self, anchors):
        preset = sim.scenario("C")
        env = Environment(room=preset.room, anchors=anchors, obstacles=preset.obstacles)
        assert [a.id for a in env.anchors] == [0, 1, 2, 3]
        grid = sim.GridMap((1.0, 1.25), 2, 2, 0.5)
        assert msets_equal(sim.generate_dataset(env, grid, 1, 2, seed=3),
                           sim.generate_dataset(preset, grid, 1, 2, seed=3))

    @pytest.mark.parametrize("preset", sim.PRESET_NAMES)
    def test_faces_are_the_walls_then_each_obstacle(self, preset):
        env = sim.scenario(preset)
        expected = faces_of(env.room, env.wall_reflectivity)
        for o in env.obstacles:
            expected += faces_of(o.footprint, o.reflectivity)
        assert env.faces == tuple(expected)

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(range_jitter_sigma=-0.1)


class TestSynthesizeCir:
    def test_direct_pulse_bin(self):
        env = make_env()
        params = ChannelParams(noise_sigma=0.0)
        tag = (C, 0.0)  # exactly one sample period of travel
        cir = received_cir(env, tag, env.anchors[0], params, rng_seed=0)
        assert len(cir) == sim.CIR_LENGTH
        assert int(np.argmax(cir)) == 1

    def test_reflection_pulse_bin(self):
        # one close wall gives a 4.0 m image path; the other walls are remote
        half = 0.5 * math.sqrt(4.0**2 - 1.499**2)
        room = Rect(-20.0, -half, 25.0, half)
        anchors = (
            Anchor(0, (0.0, 0.0)),
            Anchor(1, (20.0, 0.0)),
            Anchor(2, (20.0, half)),
        )
        env = Environment(room=room, anchors=anchors, obstacles=())
        params = ChannelParams(noise_sigma=0.0)
        cir = received_cir(env, (1.499, 0.0), env.anchors[0], params, rng_seed=0)
        s = cir
        direct_bin = round(1.499 / C)
        assert int(np.argmax(s)) == direct_bin
        # image path 4.0 m -> 13.34 ns -> pulse centred in bin 13
        assert s[13] > s[12] and s[13] > s[14] > 0.0

    def test_seeded_determinism(self):
        env = make_env()
        params = ChannelParams()
        a = received_cir(env, (3.0, 4.0), env.anchors[1], params, rng_seed=7)
        b = received_cir(env, (3.0, 4.0), env.anchors[1], params, rng_seed=7)
        assert np.array_equal(a, b)

    def test_late_paths_dropped(self):
        env = make_env(room=Rect(0.0, 0.0, 60.0, 60.0),
                       anchors=(Anchor(0, (0.0, 10.0)), Anchor(1, (60.0, 0.0)),
                                Anchor(2, (30.0, 60.0))))
        params = ChannelParams(noise_sigma=0.0)
        tag = (42.0, 10.0)
        paths = sim.propagation_paths(env, tag, env.anchors[0])
        # the direct path lands at 140 ns; the floor reflection at 155 ns is
        # past the last bin, yet its pulse tail would still reach bin 151
        assert [in_window(p) for p in paths] == [True, False, False, False]
        assert round(paths[2].delay_ns) == 155
        cir = received_cir(env, tag, env.anchors[0], params, 0)
        assert np.array_equal(cir, in_window_sum(paths))
        assert not np.array_equal(cir, pulse_sum(paths))

    def test_tag_outside_room_errors(self):
        env = make_env()
        with pytest.raises(ValueError, match=r"tag \(12\.5, 6\.0\) outside room"):
            sim.noise_free_cir(env, (12.5, 6.0), env.anchors[0])


class TestEstimateRange:
    def test_direct_peak_bin_ten(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        samples = np.zeros(sim.CIR_LENGTH)
        samples[10] = 1.0
        assert sim.estimate_range(samples, params, np.random.default_rng(0)) == pytest.approx(2.998)

    def test_surviving_reflection_overestimates(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        samples = np.zeros(sim.CIR_LENGTH)
        samples[20] = 0.4
        assert sim.estimate_range(samples, params, np.random.default_rng(0)) == pytest.approx(5.996)

    def test_all_zero_cir_errors(self):
        params = ChannelParams()
        with pytest.raises(ValueError):
            sim.estimate_range(np.zeros(sim.CIR_LENGTH), params, np.random.default_rng(0))

    def test_leading_edge_beats_stronger_late_peak(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        samples = np.zeros(sim.CIR_LENGTH)
        samples[5] = 0.3
        samples[30] = 1.0
        assert sim.estimate_range(samples, params, np.random.default_rng(0)) == pytest.approx(5 * C)


class TestNlosBias:
    def test_metal_occlusion_biases_upward(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        env_clear = make_env()
        plate = Obstacle.of(Rect(5.9, -0.5, 6.1, 0.5), Material.METAL)
        env_blocked = make_env(obstacles=[plate])
        tag = (11.0, 0.0)
        anchor = env_clear.anchors[0]
        r_clear = sim.estimate_range(received_cir(env_clear, tag, anchor, params, 0), params,
                                     np.random.default_rng(0))
        r_blocked = sim.estimate_range(received_cir(env_blocked, tag, anchor, params, 0), params,
                                       np.random.default_rng(0))
        assert r_blocked > r_clear + 0.5

    def test_wood_excess_delay_never_shortens_range(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        grid = sim.default_grid()
        env = sim.scenario("C")
        nominal = sim.scenario("nominal")
        for i, j in grid.cells():
            tag = grid.cell_center(i, j)
            for anchor in env.anchors:
                r = sim.estimate_range(received_cir(env, tag, anchor, params, 0), params,
                                       np.random.default_rng(0))
                r0 = sim.estimate_range(received_cir(nominal, tag, anchor, params, 0), params,
                                        np.random.default_rng(0))
                assert r >= r0 - 1e-9


class TestScenarios:
    def test_preset_names(self):
        assert sim.PRESET_NAMES == ("nominal", "A", "B", "C")
        for name in ("nominal", "A", "B", "C"):
            env = sim.scenario(name)
            assert len(env.anchors) == 4
        assert sim.scenario("nominal").obstacles == ()
        assert len(sim.scenario("B").obstacles) == 2

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="nominal"):
            sim.scenario("D")

    def test_environment_roundtrip(self, tmp_path):
        env = sim.scenario("B")
        path = tmp_path / "env.json"
        sim.save_environment(env, path)
        loaded = sim.load_environment(path)
        assert loaded == env


class TestGenerateDataset:
    def test_counts(self, grid):
        mset = sim.generate_dataset(sim.scenario("nominal"), grid, passes=5,
                                    samples_per_cell=10, seed=1)
        assert len(mset.measurements) == 2000

    def test_determinism(self, grid):
        a = sim.generate_dataset(sim.scenario("A"), grid, passes=1, samples_per_cell=2, seed=9)
        b = sim.generate_dataset(sim.scenario("A"), grid, passes=1, samples_per_cell=2, seed=9)
        assert msets_equal(a, b)

    @pytest.mark.parametrize("preset, seed, passes, params", [
        pytest.param("nominal", 5, 1, ChannelParams(), id="nominal"),
        pytest.param("B", 5, 1, ChannelParams(), id="B"),
        pytest.param("C", 2**32 + 5, 2, ChannelParams(), id="seed-over-32-bits-two-passes"),
        pytest.param("A", 0, 1, ChannelParams(noise_sigma=0.0), id="noise-free"),
        pytest.param("nominal", 2**64, 1, ChannelParams(range_jitter_sigma=0.0), id="jitter-free"),
    ])
    def test_matches_per_sample_oracle(self, grid, preset, seed, passes, params):
        env = sim.scenario(preset)
        mset = sim.generate_dataset(env, grid, passes=passes, samples_per_cell=2, seed=seed,
                                    params=params)
        rows = iter(mset.measurements)
        for p in range(passes):
            for i, j in grid.cells():
                tag = grid.cell_center(i, j)
                for s in range(2):
                    m = next(rows)
                    assert (m.cell, m.pass_id) == ((i, j), p)
                    for anchor, reading in zip(env.anchors, m.per_anchor):
                        ss = np.random.SeedSequence((seed, p, i, j, s, anchor.id))
                        cir_seed, jitter_seed = ss.generate_state(2)
                        cir = in_window_sum(sim.propagation_paths(env, tag, anchor))
                        noise = np.random.default_rng(cir_seed)
                        cir += noise.normal(0.0, params.noise_sigma, sim.CIR_LENGTH)
                        assert np.array_equal(reading.cir, cir)
                        jitter = np.random.default_rng(jitter_seed)
                        assert reading.range_m == sim.estimate_range(cir, params, jitter)
        assert next(rows, None) is None

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9), st.sampled_from([2, 8]))
    @settings(max_examples=200, deadline=None)
    def test_seed_states_match_seed_sequence(self, row, n_words):
        states = sim._seed_states(np.array([row, row[::-1]], dtype=np.uint32), n_words)
        assert np.array_equal(states, [np.random.SeedSequence(row).generate_state(n_words),
                                       np.random.SeedSequence(row[::-1]).generate_state(n_words)])

    def test_negative_seed_rejected(self, grid):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sim.generate_dataset(sim.scenario("nominal"), grid, passes=1, samples_per_cell=1, seed=-1)

    def test_traces_each_cell_anchor_pair_once(self, grid, monkeypatch):
        calls = []
        trace = sim.propagation_paths

        def counted(*args):
            calls.append(args)
            return trace(*args)

        monkeypatch.setattr(sim, "propagation_paths", counted)
        sim.generate_dataset(sim.scenario("C"), grid, passes=2, samples_per_cell=3, seed=1)
        assert len(calls) == grid.n_cells * 4

    def test_noise_free_readings_own_their_cirs(self, grid):
        params = ChannelParams(noise_sigma=0.0)
        mset = sim.generate_dataset(sim.scenario("nominal"), grid, passes=1,
                                    samples_per_cell=2, seed=0, params=params)
        cirs = [r.cir for m in mset.measurements for r in m.per_anchor]
        assert len({id(c) for c in cirs}) == len(cirs)
        assert not any(c.base is not None for c in cirs)

    def test_refuses_pair_no_path_reaches(self, grid, monkeypatch):
        """A wall (transmissivity 0) over the center of cell (5, 2) leaves its
        templates all zero: the set is refused before any sample is drawn,
        naming the first such pair."""
        wall = Obstacle.of(Rect(3.5, 2.25, 4.0, 2.75), "wall")
        env = Environment(sim.scenario("nominal").room, sim.scenario("nominal").anchors, (wall,))
        drawn = []
        monkeypatch.setattr(sim, "add_noise", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"^no path reaches anchor 0 from cell \(5, 2\)$"):
            sim.generate_dataset(env, grid, passes=1, samples_per_cell=1, seed=0)
        assert drawn == []

    def test_rejects_bad_counts(self, grid):
        with pytest.raises(ValueError):
            sim.generate_dataset(sim.scenario("nominal"), grid, passes=0, samples_per_cell=1, seed=0)

    def test_preset_c_changes_only_affected_pairs(self, grid):
        """Zero-noise ranges differ from nominal only where the direct path's
        LoS status or the reflection set changed."""
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        nominal = sim.scenario("nominal")
        env = sim.scenario("C")
        for i, j in grid.cells():
            tag = grid.cell_center(i, j)
            for anchor in env.anchors:
                r = sim.estimate_range(received_cir(env, tag, anchor, params, 0), params,
                                       np.random.default_rng(0))
                r0 = sim.estimate_range(received_cir(nominal, tag, anchor, params, 0), params,
                                        np.random.default_rng(0))
                if abs(r - r0) > 1e-9:
                    same_los = not sim._blocking_obstacles(env, tag, anchor.position)
                    paths = sim.propagation_paths(env, tag, anchor)
                    paths0 = sim.propagation_paths(nominal, tag, anchor)
                    assert (not same_los) or paths != paths0
