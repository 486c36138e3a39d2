"""Acceptance gate: ten end-to-end checks with pinned tolerances and time
budgets, one printed verdict per criterion (run with -s to see them).

Each check has its own oracle: adaptive quadrature for the kernel, dense
sampling for the hull extrema, a literal ungrouped row assembly, LP solves
for the inner adversary, and Monte Carlo rollouts for the certificates. The
row assembly and the LP iteration are shared with the unit tests
(oracles.py).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from nndm_synth.fixtures import (
    directional_dynamics,
    random_network,
    reach_avoid_2d,
    vehicle_3d,
)
from nndm_synth.geometry import HyperRect, build_grid, whitening_transform
from nndm_synth.imdp import robust_value_iteration
from nndm_synth.networks import evaluate
from nndm_synth.pipeline import (
    apply_refinement,
    build_abstraction,
    gap_stats,
    run_pipeline,
    synthesize,
)
from nndm_synth.refinement import RefinementConfig, refine_round
from nndm_synth.relaxation import LinearBounds
from nndm_synth.transitions import _entries, _intervals, extremal_means, gaussian_box_mass, transition_rows

from oracles import jacobi_lp_values, naive_row, plain_mdp_values, random_product, relax_box


def _report(num: int, ok: bool, note: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {note}")
    assert ok, f"criterion {num}: {note}"


# -- 1: kernel vs adaptive quadrature -----------------------------------------


def test_criterion_1_kernel_matches_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(1000):
        n = 1 + i % 3
        z = rng.normal(0.0, 2.0, n)
        if i % 7 == 0:
            z = z + rng.choice([-8.0, 8.0], size=n)  # exercise the tail branch
        lo = z + rng.uniform(-4.0, 1.0, n)
        hi = lo + rng.uniform(0.05, 4.0, n)
        got = float(gaussian_box_mass(z, lo, hi))
        want = 1.0
        for zi, li, ui in zip(z, lo, hi):
            val, _ = quad(norm.pdf, li - zi, ui - zi, epsabs=1e-13, epsrel=1e-13)
            want *= val
        worst = max(worst, abs(got - want))
    dt = time.perf_counter() - t0
    _report(1, worst < 1e-8 and dt < 10.0,
            f"max |error| {worst:.2e} over 1000 instances in {dt:.1f}s (budget 1e-8, 10s)")


# -- 2: vertex minimum equals dense minimum over the hull ---------------------


def test_criterion_2_vertex_minimum_is_hull_minimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(4, 9))
        verts = rng.normal(0.0, 1.3, (m, 2))
        t_lo = rng.uniform(-2.5, 0.5, 2)
        target = HyperRect(t_lo, t_lo + rng.uniform(0.3, 2.5, 2))
        # the lower bound the row kernel ships for this hull and target; a
        # vertex set is the corner-box set whose boxes are its points
        lows, highs = target.lo[None], target.hi[None]
        lower, _ = _entries(verts[None], verts[None], _intervals(lows, highs), target)
        got = float(lower[0, 1])  # column 0: out of the domain, here the target itself
        # 10^4 points covering conv(H): all vertices, then convex combinations
        # drawn both near the boundary and uniformly inside
        w_edge = rng.dirichlet(0.3 * np.ones(m), size=5000 - m)
        w_bulk = rng.dirichlet(np.ones(m), size=5000)
        pts = np.vstack([verts, w_edge @ verts, w_bulk @ verts])
        dense = float(gaussian_box_mass(pts, target.lo, target.hi).min())
        worst = max(worst, got - dense)  # dense includes the vertices, so >= 0
    dt = time.perf_counter() - t0
    _report(2, worst <= 1e-6 and dt < 60.0,
            f"max (vertex min - dense min) {worst:.2e} over 200 instances in {dt:.1f}s "
            f"(budget 1e-6, 60s)")


# -- 3: extremal means dominate the exact hull extrema ------------------------


def test_criterion_3_extremal_means_dominate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_slack = np.inf
    for i in range(1000):
        n = 1 + i % 3
        hull_lo = rng.uniform(-2.0, 0.5, n)
        hull_hi = hull_lo + rng.uniform(0.1, 2.5, n)
        t_lo = rng.uniform(-3.0, 1.0, n)
        t_hi = t_lo + rng.uniform(0.1, 2.0, n)
        z_min, z_max = extremal_means(hull_lo, hull_hi, t_lo, t_hi)
        pts = 45 if n < 3 else 13
        axes = [np.linspace(hull_lo[l], hull_hi[l], pts) for l in range(n)]
        zz = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        vals = gaussian_box_mass(zz, t_lo, t_hi)
        hi_slack = float(gaussian_box_mass(z_max, t_lo, t_hi) - vals.max())
        lo_slack = float(vals.min() - gaussian_box_mass(z_min, t_lo, t_hi))
        worst_slack = min(worst_slack, hi_slack, lo_slack)
    dt = time.perf_counter() - t0
    _report(3, worst_slack >= -1e-12 and dt < 60.0,
            f"min dominance slack {worst_slack:.2e} over 1000 instances in {dt:.1f}s "
            f"(budget -1e-12, 60s)")


# -- 4: grouped rows bit-identical to per-target assembly ----------------------


def test_criterion_4_grouping_equivalence():
    t0 = time.perf_counter()
    nd = directional_dynamics(
        2, 20, 3,
        {"east": (0.5, 0.0), "north": (0.0, 0.5), "west": (-0.5, 0.0)},
        seed=3, contraction=0.6,
    )
    transform = whitening_transform(0.2 * np.eye(2))
    grid = build_grid(HyperRect([-2.0, -2.0], [2.0, 2.0]), transform, (10, 10))
    assert grid.num_cells == 100
    mismatches = 0
    for action in nd.actions:
        # all 100 rows of the action in one stack, as the pipeline builds them,
        # from envelopes each relaxed alone
        envs = LinearBounds.concat(
            relax_box(nd, action, transform, grid.cell(source))[None] for source in range(grid.num_cells)
        )
        rows = transition_rows(grid, np.arange(grid.num_cells), (action,), envs)
        for source, (b, row) in enumerate(zip(envs, rows.values())):
            targets, lo, up, rem = naive_row(grid, source, action, b)
            same = (
                np.array_equal(row.targets, targets)
                and np.array_equal(row.lower, lo)
                and np.array_equal(row.upper, up)
                and rows.rem[source] == rem
            )
            mismatches += 0 if same else 1
    dt = time.perf_counter() - t0
    _report(4, mismatches == 0 and dt < 30.0,
            f"{mismatches} mismatching rows of 300 (10x10 grid, 3 actions) in {dt:.1f}s "
            f"(budget bit-identical, 30s)")


# -- 5: relaxation soundness at the 5x100 scale --------------------------------


def test_criterion_5_relaxation_soundness():
    t0 = time.perf_counter()
    transform = whitening_transform(0.2 * np.eye(2))
    regions = [
        HyperRect([-2.0, -2.0], [0.0, 0.0]),
        HyperRect([0.0, 0.0], [2.0, 2.0]),
        HyperRect([-1.0, -1.0], [1.0, 1.0]),
        HyperRect([-3.0, -0.5], [3.0, 0.5]),
    ]
    rng = np.random.default_rng(505)
    worst = -np.inf
    checked = 0
    for k, act in enumerate(("relu", "tanh", "sigmoid")):
        nd = random_network(2, 100, 5, activation=act, seed=50 + k)
        for region in regions:
            b = relax_box(nd, "a0", transform, region)
            z = rng.uniform(region.lo, region.hi, size=(100_000, 2))
            x = z @ transform.inverse.T
            w = evaluate(nd, "a0", x) @ transform.matrix.T
            lo = z @ b.A_lo.T + b.b_lo
            hi = z @ b.A_hi.T + b.b_hi
            worst = max(worst, float(np.max(lo - w)), float(np.max(w - hi)))
            checked += 1
    dt = time.perf_counter() - t0
    _report(5, worst <= 1e-9 and dt < 300.0,
            f"max envelope violation {worst:.2e} over {checked} (region, action) pairs "
            f"x 1e5 samples, 5x100 relu/tanh/sigmoid, in {dt:.1f}s (budget 1e-9, 300s)")


# -- 6: robust value iteration vs LP oracle ------------------------------------


def test_criterion_6_value_iteration_vs_lp_oracle():
    t0 = time.perf_counter()
    worst_lp = 0.0
    for seed in (61, 67):
        prod = random_product(seed, n_live=14)
        got = robust_value_iteration(prod, tol=1e-10, max_sweeps=5000)
        assert got.converged
        want = jacobi_lp_values(prod, sweeps=400, tol=1e-11)
        worst_lp = max(worst_lp, float(np.max(np.abs(got.values - want))))

    worst_deg = 0.0
    for seed in (71, 73):
        prod = random_product(seed, n_live=14, degenerate=True)
        got = robust_value_iteration(prod, tol=1e-10, max_sweeps=5000)
        worst_deg = max(worst_deg, float(np.max(np.abs(got.values - plain_mdp_values(prod, 3000)))))
    dt = time.perf_counter() - t0
    _report(6, worst_lp < 1e-6 and worst_deg < 2e-6 and dt < 60.0,
            f"max |VI - LP oracle| {worst_lp:.2e} (budget 1e-6), degenerate "
            f"{worst_deg:.2e} (budget 2e-6), 16-state IMDPs, in {dt:.1f}s")


# -- 7 and 8 share the 2D fixture ----------------------------------------------


@pytest.fixture(scope="module")
def fixture_2d():
    return reach_avoid_2d()


@pytest.fixture(scope="module")
def run_2d(fixture_2d):
    nd, config = fixture_2d
    return run_pipeline(config, nd=nd, monte_carlo=True)


def test_criterion_7_monte_carlo_consistency(run_2d):
    v = run_2d.validation
    flagged = v["num_inconsistent"]
    ok = (
        flagged == 0
        and v["trials"] == 10_000
        and len(v["cells"]) == 20
        and run_2d.timings["total"] < 900.0
    )
    run = sum(rec["trials"] for rec in v["cells"])
    early = sum(rec["decided"] == "early" for rec in v["cells"])
    _report(7, ok,
            f"{flagged} of {len(v['cells'])} start cells with a Clopper-Pearson interval disjoint "
            f"from [p_lower, p_upper] (per cell {1 - v['alpha']:.0%} over all its checkpoints), "
            f"{run} trials run of at most {v['trials']} each, {early} cells decided early, "
            f"pipeline {run_2d.timings['total']:.1f}s (budget 0 flagged, 900s)")


def test_criterion_8_refinement_shrinks_the_gap(fixture_2d, run_2d):
    t0 = time.perf_counter()
    nd, config = fixture_2d
    base_mean, _ = gap_stats(run_2d.abstraction.grid, run_2d.p_lower, run_2d.p_upper)

    ab = build_abstraction(nd, config)
    synth = synthesize(ab, config.dfa)
    n0 = ab.grid.num_cells
    rc = RefinementConfig(per_round=int(np.ceil(0.05 * n0)), rounds=5)
    domain_vol = float(np.prod(ab.grid.domain.hi - ab.grid.domain.lo))
    invariants_ok = True
    for _ in range(5):
        outcome = refine_round(ab.grid, ab.imdp, synth.p_lower, synth.p_upper, rc, ab.bounds)
        if not outcome.splits:
            break
        apply_refinement(ab, outcome)
        synth = synthesize(ab, config.dfa)
        # partition invariant: volumes add up and every center finds its cell
        lows, highs = ab.grid.boxes()
        vols = float(np.prod(highs - lows, axis=1).sum())
        owners = ab.grid.locate(0.5 * (lows + highs))
        invariants_ok &= abs(vols - domain_vol) <= 1e-9 * domain_vol
        invariants_ok &= bool(np.array_equal(owners, np.arange(ab.grid.num_cells)))
        invariants_ok &= bool(np.all(synth.p_lower <= synth.p_upper + 1e-12))
        try:
            ab.imdp.validate()
        except ValueError:
            invariants_ok = False
    refined_mean, _ = gap_stats(ab.grid, synth.p_lower, synth.p_upper)
    dt = time.perf_counter() - t0
    _report(8, refined_mean < base_mean and invariants_ok and dt < 900.0,
            f"volume-weighted mean gap {base_mean:.4f} -> {refined_mean:.4f} after 5 rounds "
            f"({rc.per_round} splits/round), invariants {'held' if invariants_ok else 'BROKEN'}, "
            f"in {dt:.1f}s (budget strict decrease, 900s)")


# -- 9: 3D scalability smoke ----------------------------------------------------


def test_criterion_9_three_dimensional_scale():
    t0 = time.perf_counter()
    nd, config = vehicle_3d()
    config = replace(config, threads=4)
    ab = build_abstraction(nd, config)
    synth = synthesize(ab, config.dfa, config.vi_tolerance, config.vi_max_sweeps)
    dt = time.perf_counter() - t0
    ok = (
        dt < 1800.0
        and ab.grid.num_cells >= 1500
        and len(nd.actions) == 7
        and nd.dim == 3
        and synth.lower.converged
        and synth.upper.converged
    )
    _report(9, ok,
            f"{ab.grid.num_cells} cells, 7 actions, 4x50 networks: abstraction + synthesis "
            f"in {dt:.1f}s, VI sweeps {synth.lower.sweeps}+{synth.upper.sweeps} "
            f"(budget >= 1500 cells, 1800s)")


# -- 10: bitwise determinism across thread counts -------------------------------


def test_criterion_10_thread_determinism(fixture_2d, tmp_path):
    t0 = time.perf_counter()
    nd, config = fixture_2d
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        run_pipeline(replace(config, threads=threads), nd=nd, outdir=str(out))
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("regions.csv", "strategy.json", "refinement.jsonl")
        }
    dt = time.perf_counter() - t0
    same = all(outputs[1][k] == outputs[8][k] for k in outputs[1])
    _report(10, same and dt < 1800.0,
            f"regions.csv/strategy.json/refinement.jsonl byte-identical at threads 1 vs 8 "
            f"in {dt:.1f}s (budget identical, 1800s)")
