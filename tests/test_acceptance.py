"""Acceptance gate: the nine release criteria, one pass/fail line each.

Criteria 1-4 and 6 check the package against oracles that share none of
the code they check: math.fsum norms, central finite differences of the
forward pass (tests/conftest.py), numpy.linalg.eigh, closed-form KL values,
and obstacle-crossing counts from a slab test in exact rational arithmetic
(tests/conftest.py; the simulator's own crossing test is floating point).
Criteria 5 and 7 bound end-to-end ratios and KL margins, 8 compares two runs
byte for byte and 9 compares serial with parallel sweep rankings. Each test
records a single summary line before asserting, so the terminal report
always shows every criterion's status.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import (ACCEPT_SEED, SCORE_SEED, crosses_exactly, gradient_check, record_criterion,
                      train_pipeline)

from epsnode import autoencoder as ae
from epsnode import dataset as ds
from epsnode import evaluation as ev
from epsnode import features as feat
from epsnode import gridsearch as gs
from epsnode import novelty as nov
from epsnode import simulator as sim

BEST_ARCHITECTURES = ((4, 15, 30, 15), (28, 70, 90, 70), (72, 120, 165, 120))


def obstacle_distance(env, point):
    return min(o.footprint.distance_to(point) for o in env.obstacles)


def near_far_ratio(emap, env, near=0.5, far=1.5):
    """Mean cell error within `near` of an obstacle over mean beyond `far`."""
    grid = emap.grid
    near_vals, far_vals = [], []
    for i, j in grid.cells():
        d = obstacle_distance(env, grid.cell_center(i, j))
        if d <= near:
            near_vals.append(emap.values[j, i])
        elif d > far:
            far_vals.append(emap.values[j, i])
    return float(np.mean(near_vals) / np.mean(far_vals))


def score_fixture(trained, pipeline, mset):
    model, scaler, _, pca = trained
    return nov.score(model, scaler, pipeline, pca, mset)


def test_criterion_1_equation_fidelity():
    rng = np.random.default_rng(ACCEPT_SEED)
    start = time.perf_counter()
    max_dev = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        es = rng.uniform(0.0, 10.0, size=n)
        expected = math.sqrt(math.fsum(float(e) ** 2 for e in es))
        max_dev = max(max_dev, abs(nov.total_error(es) - expected))
    symmetric = all(
        nov.anchor_error(a, b) == nov.anchor_error(b, a) and nov.anchor_error(a, b) >= 0.0
        for a, b in rng.uniform(0.0, 10.0, size=(100, 2))
    )
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-12 and symmetric and elapsed < 1.0
    record_criterion(
        1, "equation fidelity", ok,
        f"max |total - fsum norm| = {max_dev:.2e}, symmetry {'exact' if symmetric else 'BROKEN'}, "
        f"{elapsed:.2f}s",
    )
    assert max_dev <= 1e-12
    assert symmetric
    assert elapsed < 1.0


def kink_free_input(model, seed, margin=1e-3):
    """Deterministically pick an input whose pre-activations all sit away
    from the ReLU kinks; there the network is piecewise linear, so central
    differences are exact up to roundoff."""
    rng = np.random.default_rng((model.n, seed))
    for _ in range(100):
        x = rng.uniform(0.25, 0.75, size=model.n)
        acts = x
        clear = True
        for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = acts @ w + b
            clear = clear and float(np.abs(z).min()) > margin
            acts = np.maximum(z, 0.0)
        if clear:
            return x
    raise AssertionError("no kink-free input found")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for n, e1, e2, d1 in BEST_ARCHITECTURES:
        for seed in range(10):
            model = ae.build(n, e1, e2, d1, seed=seed)
            x = kink_free_input(model, seed)
            worst = max(worst, gradient_check(model, x))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    record_criterion(
        2, "gradient correctness", ok,
        f"worst relative error {worst:.2e} over 3 architectures x 10 seeds, {elapsed:.1f}s",
    )
    assert worst < 1e-4
    assert elapsed < 60.0


def principal_angle(a, b):
    """Largest principal angle between the column spaces of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


def test_criterion_3_pca():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst_ortho = 0.0
    worst_angle = 0.0
    min_explained = 1.0
    for dim in range(4, 11):
        scales = np.linspace(3.0, 0.2, dim)
        rows = rng.normal(size=(80, dim)) * scales
        model = feat.fit_pca(rows, variance_target=0.90)
        k = model.components.shape[1]
        min_explained = min(min_explained, float(np.sum(model.explained_ratio)))
        gram = model.components.T @ model.components
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(k)).max()))
        # oracle: top-k eigenvectors of the covariance matrix via numpy
        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / (len(rows) - 1)
        vals, vecs = np.linalg.eigh(cov)
        reference = vecs[:, np.argsort(vals)[::-1][:k]]
        worst_angle = max(worst_angle, principal_angle(model.components, reference))
    elapsed = time.perf_counter() - start
    ok = min_explained >= 0.90 and worst_ortho <= 1e-8 and worst_angle < 1e-6 and elapsed < 10.0
    record_criterion(
        3, "PCA", ok,
        f"explained >= {min_explained:.3f}, orthonormality dev {worst_ortho:.1e}, "
        f"max principal angle {worst_angle:.1e} rad, {elapsed:.1f}s",
    )
    assert min_explained >= 0.90
    assert worst_ortho <= 1e-8
    assert worst_angle < 1e-6
    assert elapsed < 10.0


def test_criterion_4_kl_kde(grid):
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    g2 = ds.GridMap(origin=(0.0, 0.0), nx=2, ny=2, cell_size=0.5)

    p = ev.DensityMap(g2, np.array([[0.5, 0.5], [0.0, 0.0]]))
    q = ev.DensityMap(g2, np.array([[0.25, 0.75], [0.0, 0.0]]))
    self_div = ev.kl_divergence(p, p)
    forward = ev.kl_divergence(p, q)
    backward = ev.kl_divergence(q, p)

    min_div = math.inf
    for _ in range(100):
        a = rng.random((2, 2)) + 1e-6
        b = rng.random((2, 2)) + 1e-6
        min_div = min(min_div, ev.kl_divergence(
            ev.DensityMap(g2, a / a.sum()), ev.DensityMap(g2, b / b.sum())))

    sums = []
    for seed in range(10):
        values = np.random.default_rng(seed).random((grid.ny, grid.nx))
        emap = nov.ErrorMap(grid, values, np.ones((grid.ny, grid.nx), dtype=int))
        sums.append(float(ev.kde(emap).p.sum()))
    sums.append(float(ev.uniform_density(grid).p.sum()))
    for name in ("A", "B", "C"):
        sums.append(float(ev.ground_truth_density(sim.scenario(name), grid).p.sum()))
    sum_dev = max(abs(s - 1.0) for s in sums)
    elapsed = time.perf_counter() - start

    ok = (
        self_div <= 1e-12
        and min_div >= 0.0
        and abs(forward - 0.1438) <= 1e-4
        and abs(backward - 0.1308) <= 1e-4
        and sum_dev <= 1e-9
        and elapsed < 5.0
    )
    record_criterion(
        4, "KL/KDE", ok,
        f"D(p,p)={self_div:.1e}, min D={min_div:.1e}, two-cell {forward:.4f}/{backward:.4f}, "
        f"max |sum-1|={sum_dev:.1e}, {elapsed:.1f}s",
    )
    assert self_div <= 1e-12
    assert min_div >= 0.0
    assert forward == pytest.approx(0.1438, abs=1e-4)
    assert backward == pytest.approx(0.1308, abs=1e-4)
    assert sum_dev <= 1e-9
    assert elapsed < 5.0


@pytest.fixture(scope="session")
def scored_maps(trained_rng, trained_ma, trained_pca, preset_b_set, preset_c_set):
    """Error maps and per-sample errors for all three pipelines on both presets."""
    out = {}
    for pname, mset in (("B", preset_b_set), ("C", preset_c_set)):
        out[("RNG", pname)] = score_fixture(trained_rng, feat.Pipeline.RNG, mset)
        out[("MA", pname)] = score_fixture(trained_ma, feat.Pipeline.MA, mset)
        out[("PCA", pname)] = score_fixture(trained_pca, feat.Pipeline.PCA, mset)
    return out


def test_criterion_5_novelty_separation(scored_maps):
    start = time.perf_counter()
    ratios = {}
    for (pipe, preset), (emap, _, _) in scored_maps.items():
        ratios[(pipe, preset)] = near_far_ratio(emap, sim.scenario(preset))
    elapsed = time.perf_counter() - start
    ok = all(r >= 2.0 for r in ratios.values())
    detail = ", ".join(f"{p}/{s}={r:.2f}" for (p, s), r in sorted(ratios.items()))
    record_criterion(5, "novelty separation", ok, f"near/far ratios {detail} (>= 2.0)")
    for key, ratio in ratios.items():
        assert ratio >= 2.0, f"{key}: {ratio}"
    assert elapsed < 2 * 300.0


def test_criterion_6_per_anchor_attribution(grid, scored_maps):
    env = sim.scenario("B")
    plates = [o.footprint for o in env.obstacles if o.material is sim.Material.METAL]
    crossings = [
        sum(any(crosses_exactly(grid.cell_center(i, j), anchor.position, plate) for plate in plates)
            for i, j in grid.cells())
        for anchor in env.anchors
    ]
    oracle_top2 = {int(a) for a in np.argsort(crossings)[-2:]}

    combined = np.zeros(4)
    for pipe in ("RNG", "MA"):
        _, _, errors = scored_maps[(pipe, "B")]
        combined += np.mean(errors, axis=0)
    measured_top2 = {int(a) for a in np.argsort(combined)[-2:]}

    ok = measured_top2 == oracle_top2
    record_criterion(
        6, "per-anchor attribution", ok,
        f"crossing counts {crossings} -> oracle {sorted(oracle_top2)}, "
        f"mean errors {np.round(combined, 3).tolist()} -> measured {sorted(measured_top2)}",
    )
    assert measured_top2 == oracle_top2


def test_criterion_7_kl_informativeness(grid, scored_maps):
    margins = {}
    for (pipe, preset), (emap, _, _) in scored_maps.items():
        truth = ev.ground_truth_density(sim.scenario(preset), grid)
        pred_kl = ev.kl_divergence(ev.kde(emap), truth)
        unif_kl = ev.kl_divergence(ev.uniform_density(grid), truth)
        margins[(pipe, preset)] = (pred_kl, unif_kl)
    ok = all(pred <= 0.8 * unif for pred, unif in margins.values())
    detail = ", ".join(
        f"{p}/{s}: {pred:.2f} vs 0.8x{unif:.2f}" for (p, s), (pred, unif) in sorted(margins.items())
    )
    record_criterion(7, "KL informativeness", ok, detail)
    for key, (pred, unif) in margins.items():
        assert pred <= 0.8 * unif, f"{key}: {pred} > 0.8 * {unif}"


def test_criterion_8_determinism(tmp_path, nominal_split, scored_maps,
                                 preset_b_set, preset_c_set, grid):
    def full_run(tag, train_set, val_set, b_set, c_set):
        paths = {}
        rng = train_pipeline(feat.Pipeline.RNG, (15, 30), 32, train_set, val_set)
        ma = train_pipeline(feat.Pipeline.MA, (70, 90), 64, train_set, val_set)
        pca = train_pipeline(feat.Pipeline.PCA, (120, 165), 32, train_set, val_set)
        for pipe_name, trained, pipeline in (("RNG", rng, feat.Pipeline.RNG),
                                             ("MA", ma, feat.Pipeline.MA),
                                             ("PCA", pca, feat.Pipeline.PCA)):
            for preset, mset in (("B", b_set), ("C", c_set)):
                emap, _, _ = score_fixture(trained, pipeline, mset)
                path = tmp_path / f"{tag}_{pipe_name}_{preset}.csv"
                nov.write_error_map_csv(emap, path)
                paths[(pipe_name, preset)] = path
        return paths

    # run 1 reuses this session's datasets; run 2 regenerates everything
    # from the same seeds
    train_set, val_set = nominal_split
    first = full_run("a", train_set, val_set, preset_b_set, preset_c_set)

    nominal2 = sim.generate_dataset(
        sim.scenario("nominal"), grid, passes=5, samples_per_cell=10,
        seed=ACCEPT_SEED, scenario_name="nominal")
    train2, val2 = ds.split(nominal2, 0.2, seed=ACCEPT_SEED)
    b2 = sim.generate_dataset(sim.scenario("B"), grid, passes=1,
                              samples_per_cell=10, seed=SCORE_SEED, scenario_name="B")
    c2 = sim.generate_dataset(sim.scenario("C"), grid, passes=1,
                              samples_per_cell=10, seed=SCORE_SEED, scenario_name="C")
    second = full_run("b", train2, val2, b2, c2)

    identical = all(first[key].read_bytes() == second[key].read_bytes() for key in first)
    record_criterion(
        8, "determinism", identical,
        "repeated full run produced byte-identical ErrorMap CSVs"
        if identical else "CSV outputs differ between repeated runs",
    )
    assert identical


def test_criterion_9_gridsearch_scale(nominal_split):
    train_set, val_set = nominal_split
    raw = feat.extract_matrix(train_set.measurements, feat.Pipeline.RNG)
    scaler = feat.fit_scaler(raw)
    rows_train = feat.scale(scaler, raw)
    rows_val = feat.scale(scaler, feat.extract_matrix(val_set.measurements, feat.Pipeline.RNG))

    space = gs.TABLE_SPACES[feat.Pipeline.RNG]
    candidates, skipped = gs.enumerate_candidates(space, rows_train.shape[1])

    start = time.perf_counter()
    serial, best_serial = gs.run(space, rows_train, rows_val,
                                 parallelism=1, base_seed=ACCEPT_SEED)
    serial_elapsed = time.perf_counter() - start
    parallel, best_parallel = gs.run(space, rows_train, rows_val,
                                     parallelism=8, base_seed=ACCEPT_SEED)

    ranking = [(r.candidate, r.status, r.val_mse) for r in serial]
    same = ranking == [(r.candidate, r.status, r.val_mse) for r in parallel]
    keys = [gs._rank_key(r) for r in serial if r.status == "ok"]
    total_order = all(a < b for a, b in zip(keys, keys[1:]))

    ok = (
        len(candidates) == 54
        and not skipped
        and serial_elapsed < 1800.0
        and total_order
        and same
        and best_serial == best_parallel
    )
    record_criterion(
        9, "grid-search scale", ok,
        f"54 trials in {serial_elapsed:.0f}s serial, total order, "
        f"parallelism 1 vs 8 rankings {'identical' if same else 'DIFFER'}",
    )
    assert len(candidates) == 54 and not skipped
    assert serial_elapsed < 1800.0
    assert total_order
    assert same
    assert best_serial == best_parallel
