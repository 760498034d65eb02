"""Channel simulator: geometry, CIR synthesis, range detection, datasets."""
from __future__ import annotations

import math

import numpy as np
import pytest

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


class TestGeometry:
    def test_no_obstacles_is_los(self):
        env = make_env()
        assert sim.line_of_sight(env, (1.0, 1.0), (11.0, 11.0))

    def test_piercing_obstacle_blocks(self):
        square = Obstacle.of(Rect(1.5, -0.5, 2.5, 0.5), Material.METAL)
        env = make_env(obstacles=[square])
        assert not sim.line_of_sight(env, (0.0, 0.0), (4.0, 0.0))

    def test_corner_graze_counts_as_los(self):
        square = Obstacle.of(Rect(2.0, 2.0, 3.0, 3.0), Material.METAL)
        env = make_env(obstacles=[square])
        # segment through the corner vertex (2, 2) only
        assert sim.line_of_sight(env, (1.0, 3.0), (3.0, 1.0))

    def test_edge_slide_counts_as_los(self):
        square = Obstacle.of(Rect(2.0, 2.0, 3.0, 3.0), Material.METAL)
        env = make_env(obstacles=[square])
        assert sim.line_of_sight(env, (0.0, 2.0), (5.0, 2.0))


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

    def test_degenerate_footprint(self):
        with pytest.raises(ValueError):
            Obstacle.of(Rect(1.0, 1.0, 1.0, 2.0), Material.WOOD)

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(detect_frac=1.5)
        with pytest.raises(ValueError):
            ChannelParams(sample_period=0.0)


class TestSynthesizeCir:
    def test_direct_pulse_bin(self):
        env = make_env()
        params = ChannelParams(noise_sigma=0.0)
        tag = (C, 0.0)  # exactly one sample period of travel
        cir = sim.synthesize_cir(env, tag, env.anchors[0], params, rng_seed=0)
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
        cir = sim.synthesize_cir(env, (1.499, 0.0), env.anchors[0], params, rng_seed=0)
        s = cir
        direct_bin = round(1.499 / C)
        assert int(np.argmax(s)) == direct_bin
        # image path 4.0 m -> 13.34 ns -> pulse centred in bin 13
        assert s[13] > s[12] and s[13] > s[14] > 0.0

    def test_seeded_determinism(self):
        env = make_env()
        params = ChannelParams()
        a = sim.synthesize_cir(env, (3.0, 4.0), env.anchors[1], params, rng_seed=7)
        b = sim.synthesize_cir(env, (3.0, 4.0), env.anchors[1], params, rng_seed=7)
        assert np.array_equal(a, b)

    def test_late_paths_reported_dropped(self):
        env = make_env(room=Rect(0.0, 0.0, 60.0, 60.0),
                       anchors=(Anchor(0, (0.0, 0.0)), Anchor(1, (60.0, 0.0)),
                                Anchor(2, (30.0, 60.0))))
        params = ChannelParams(noise_sigma=0.0)
        diag = {}
        sim.synthesize_cir(env, (55.0, 1.0), env.anchors[0], params, 0, diagnostics=diag)
        assert diag["dropped_paths"] >= 1


class TestEstimateRange:
    def test_direct_peak_bin_ten(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        samples = np.zeros(sim.CIR_LENGTH)
        samples[10] = 1.0
        assert sim.estimate_range(samples, params, 0) == pytest.approx(2.998)

    def test_surviving_reflection_overestimates(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        samples = np.zeros(sim.CIR_LENGTH)
        samples[20] = 0.4
        assert sim.estimate_range(samples, params, 0) == pytest.approx(5.996)

    def test_all_zero_cir_errors(self):
        params = ChannelParams()
        with pytest.raises(ValueError):
            sim.estimate_range(np.zeros(sim.CIR_LENGTH), params, 0)

    def test_leading_edge_beats_stronger_late_peak(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        samples = np.zeros(sim.CIR_LENGTH)
        samples[5] = 0.3
        samples[30] = 1.0
        assert sim.estimate_range(samples, params, 0) == pytest.approx(5 * C)


class TestNlosBias:
    def test_metal_occlusion_biases_upward(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        env_clear = make_env()
        plate = Obstacle.of(Rect(5.9, -0.5, 6.1, 0.5), Material.METAL)
        env_blocked = make_env(obstacles=[plate])
        tag = (11.0, 0.0)
        anchor = env_clear.anchors[0]
        r_clear = sim.estimate_range(sim.synthesize_cir(env_clear, tag, anchor, params, 0), params, 0)
        r_blocked = sim.estimate_range(sim.synthesize_cir(env_blocked, tag, anchor, params, 0), params, 0)
        assert r_blocked > r_clear + 0.5

    def test_wood_excess_delay_never_shortens_range(self):
        params = ChannelParams(noise_sigma=0.0, range_jitter_sigma=0.0)
        grid = sim.default_grid()
        env = sim.scenario("C")
        nominal = sim.scenario("nominal")
        for i, j in grid.cells():
            tag = grid.cell_center(i, j)
            for anchor in env.anchors_by_id():
                r = sim.estimate_range(sim.synthesize_cir(env, tag, anchor, params, 0), params, 0)
                r0 = sim.estimate_range(sim.synthesize_cir(nominal, tag, anchor, params, 0), params, 0)
                assert r >= r0 - 1e-9


class TestScenarios:
    def test_preset_names(self):
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
        from conftest import msets_equal

        a = sim.generate_dataset(sim.scenario("A"), grid, passes=1, samples_per_cell=2, seed=9)
        b = sim.generate_dataset(sim.scenario("A"), grid, passes=1, samples_per_cell=2, seed=9)
        assert msets_equal(a, b)

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
            for anchor in env.anchors_by_id():
                r = sim.estimate_range(sim.synthesize_cir(env, tag, anchor, params, 0), params, 0)
                r0 = sim.estimate_range(sim.synthesize_cir(nominal, tag, anchor, params, 0), params, 0)
                if abs(r - r0) > 1e-9:
                    same_los = sim.line_of_sight(env, tag, anchor.position)
                    paths = sim.propagation_paths(env, tag, anchor, params)
                    paths0 = sim.propagation_paths(nominal, tag, anchor, params)
                    assert (not same_los) or paths != paths0
