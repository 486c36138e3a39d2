"""Transition probability bounds: Gaussian box masses, extremal means over
hulls, and full row assembly.

Oracles here are independent of the code under test: adaptive quadrature for
the kernel, dense grids and random convex combinations for the hull minimum,
and a literal per-cell reimplementation for the row assembly.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from nndm_synth.fixtures import reach_avoid_2d
from nndm_synth.geometry import (
    HyperRect,
    Polytope,
    build_grid,
    post_image_hull,
    rect_hull,
    whitening_transform,
)
from nndm_synth.relaxation import relax
from nndm_synth.transitions import (
    KernelTarget,
    extremal_means,
    gaussian_box_mass,
    min_mass_over_hull,
    transition_row,
    row_entries_for_targets,
    _PRUNE,
)


def mass_by_quadrature(z, lo, hi):
    """Adaptive quadrature of the standard normal pdf over [lo-z, hi-z]."""
    total = 1.0
    for zi, li, hi_i in zip(z, lo, hi):
        val, _ = quad(norm.pdf, li - zi, hi_i - zi, epsabs=1e-12, epsrel=1e-12)
        total *= val
    return total


class TestGaussianBoxMass:
    def test_against_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            z = rng.normal(0, 2, n)
            lo = z + rng.uniform(-4, 1, n)
            hi = lo + rng.uniform(0.05, 4, n)
            got = gaussian_box_mass(z, lo, hi)
            want = mass_by_quadrature(z, lo, hi)
            assert got == pytest.approx(want, abs=1e-10)

    def test_far_tails_positive_and_monotone(self):
        # the erfc branch keeps tail masses positive where erf would cancel
        lo, hi = np.array([10.0]), np.array([11.0])
        vals = [float(gaussian_box_mass(np.array([z]), lo, hi)) for z in (0.0, 2.0, 4.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] < vals[1] < vals[2]
        sym = float(gaussian_box_mass(np.array([0.0]), -np.array([11.0]), -np.array([10.0])))
        assert sym == pytest.approx(vals[0], rel=1e-12)

    def test_branch_seam_continuity(self):
        lo, hi = np.array([0.0]), np.array([1.0])
        # mean positions straddling the |arg| = 4 branch switch
        for z in (1.0 + 4.0 * np.sqrt(2.0) - 1e-9, 1.0 + 4.0 * np.sqrt(2.0) + 1e-9):
            got = float(gaussian_box_mass(np.array([z]), lo, hi))
            want = norm.cdf(1.0 - z) - norm.cdf(0.0 - z)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_whole_line_and_degenerate(self):
        assert gaussian_box_mass(np.zeros(1), np.array([-40.0]), np.array([40.0])) == 1.0
        assert gaussian_box_mass(np.zeros(1), np.array([1.0]), np.array([1.0])) == 0.0

    def test_batch_broadcasting(self):
        z = np.zeros((5, 2))
        lo = np.tile(np.array([-1.0, -1.0]), (5, 1))
        hi = np.tile(np.array([1.0, 1.0]), (5, 1))
        out = gaussian_box_mass(z, lo, hi)
        assert out.shape == (5,)
        assert np.allclose(out, out[0])


class TestExtremalMeans:
    def test_dominance_dense_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            hull_lo = rng.uniform(-2, 0, 2)
            hull_hi = hull_lo + rng.uniform(0.1, 2.5, 2)
            t_lo = rng.uniform(-3, 1, 2)
            t_hi = t_lo + rng.uniform(0.1, 2, 2)
            z_min, z_max = extremal_means(hull_lo, hull_hi, t_lo, t_hi)
            g1 = np.linspace(hull_lo[0], hull_hi[0], 41)
            g2 = np.linspace(hull_lo[1], hull_hi[1], 41)
            zz = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
            vals = gaussian_box_mass(zz, t_lo, t_hi)
            assert gaussian_box_mass(z_max, t_lo, t_hi) >= vals.max() - 1e-12
            assert gaussian_box_mass(z_min, t_lo, t_hi) <= vals.min() + 1e-12

    def test_tie_picks_lower_endpoint(self):
        z_min, _ = extremal_means(np.array([-1.0]), np.array([1.0]),
                                  np.array([-0.5]), np.array([0.5]))
        assert z_min[0] == -1.0

    def test_interior_center_is_argmax(self):
        z_min, z_max = extremal_means(np.array([0.0]), np.array([4.0]),
                                      np.array([1.0]), np.array([2.0]))
        assert z_max[0] == 1.5
        assert z_min[0] == 4.0  # farther end from center 1.5

    def test_batched_targets(self):
        hull_lo, hull_hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        t_lo = np.array([[2.0, -3.0], [0.2, 0.2]])
        t_hi = np.array([[3.0, -2.0], [0.4, 0.4]])
        z_min, z_max = extremal_means(hull_lo, hull_hi, t_lo, t_hi)
        assert z_max[0].tolist() == [1.0, 0.0]   # clipped to the near corner
        assert z_min[0].tolist() == [0.0, 1.0]   # farthest corner
        assert np.allclose(z_max[1], [0.3, 0.3])


class TestHullExtrema:
    def _random_poly(self, rng, m=6):
        pts = rng.normal(0, 1.2, (m, 2))
        return Polytope(vertices=pts)

    def test_min_is_exact_on_dense_samples(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            poly = self._random_poly(rng)
            target = KernelTarget.from_rect(
                HyperRect(rng.uniform(-2, 0, 2), rng.uniform(0.5, 2.5, 2))
            )
            got = min_mass_over_hull(poly, target)
            w = rng.dirichlet(np.ones(poly.vertices.shape[0]), size=4000)
            inside = w @ poly.vertices
            vals = gaussian_box_mass(inside, target.lo, target.hi)
            # log-concavity: interior points can never undercut the vertex min
            assert vals.min() >= got - 1e-12

    def test_single_vertex(self):
        poly = Polytope(vertices=np.array([[0.3, -0.4]]))
        target = KernelTarget.from_rect(HyperRect([-1.0, -1.0], [1.0, 1.0]))
        want = float(gaussian_box_mass(poly.vertices[0], target.lo, target.hi))
        assert min_mass_over_hull(poly, target) == pytest.approx(want, rel=1e-12)


class TestTransitionRow:
    def _row_inputs(self, grid_counts=(6, 6), cell=14, action="east", seed=7):
        nd, config = reach_avoid_2d(seed=seed)
        t = whitening_transform(config.covariance)
        grid = build_grid(config.domain, t, grid_counts, config.regions)
        bounds = relax(nd, action, t, grid.cells[cell])
        return grid, cell, action, bounds

    def test_row_invariants(self):
        grid, cell, action, bounds = self._row_inputs()
        row = transition_row(grid, cell, action, bounds)
        assert np.all(row.lower >= 0) and np.all(row.upper <= 1)
        assert np.all(row.lower <= row.upper)
        assert np.all(row.upper >= _PRUNE)
        assert np.all(np.diff(row.targets) > 0)
        assert 0.0 <= row.unsafe_lower <= row.unsafe_upper <= 1.0
        lo_sum = row.lower.sum() + row.unsafe_lower
        up_sum = row.upper.sum() + row.unsafe_upper
        assert lo_sum <= 1.0 + 1e-8 <= up_sum + 2e-8

    def test_true_distribution_inside_bounds(self):
        # sample means inside the hull; the true row for each mean must fall
        # inside [lower, upper] for every target cell
        grid, cell, action, bounds = self._row_inputs()
        row = transition_row(grid, cell, action, bounds)
        poly = post_image_hull(bounds, grid.cells[cell])
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(poly.vertices.shape[0]), size=200)
        means = w @ poly.vertices
        lows, highs = grid.boxes()
        lo_map = {int(t): float(p) for t, p in zip(row.targets, row.lower)}
        up_map = {int(t): float(p) for t, p in zip(row.targets, row.upper)}
        for z in means:
            masses = gaussian_box_mass(z, lows, highs)
            for q in range(grid.num_cells):
                assert masses[q] >= lo_map.get(q, 0.0) - 1e-12
                assert masses[q] <= up_map.get(q, _PRUNE) + 1e-12
            out = 1.0 - gaussian_box_mass(z, grid.domain.lo, grid.domain.hi)
            assert row.unsafe_lower - 1e-12 <= out <= row.unsafe_upper + 1e-12

    def test_grouped_matches_naive_bitwise(self):
        grid, cell, action, bounds = self._row_inputs()
        row = transition_row(grid, cell, action, bounds)
        poly = post_image_hull(bounds, grid.cells[cell])
        hull = rect_hull(poly)
        lows, highs = grid.boxes()
        # literal per-cell assembly, no grouping
        naive_lo = np.empty(grid.num_cells)
        naive_up = np.empty(grid.num_cells)
        for q in range(grid.num_cells):
            z_min, z_max = extremal_means(hull.lo, hull.hi, lows[q], highs[q])
            naive_up[q] = gaussian_box_mass(z_max, lows[q], highs[q])
            overlap = np.all(highs[q] >= hull.lo) and np.all(lows[q] <= hull.hi)
            if overlap:
                naive_lo[q] = gaussian_box_mass(poly.vertices, lows[q], highs[q]).min()
            else:
                naive_lo[q] = gaussian_box_mass(z_min, lows[q], highs[q])
        naive_lo = np.minimum(naive_lo, naive_up)
        keep = naive_up >= _PRUNE
        targets = np.flatnonzero(keep)
        naive_lo = np.where(naive_lo[keep] >= _PRUNE, naive_lo[keep], 0.0)
        naive_up = naive_up[keep]
        assert np.array_equal(row.targets, targets)
        assert np.array_equal(row.lower, naive_lo)
        assert np.array_equal(row.upper, naive_up)

    def test_hull_inside_domain_has_tiny_unsafe_lower(self):
        grid, cell, action, bounds = self._row_inputs(cell=21)
        row = transition_row(grid, cell, action, bounds)
        hull = row.hull
        inside = np.all(hull.lo >= grid.domain.lo) and np.all(hull.hi <= grid.domain.hi)
        assert inside
        # some mean in the hull keeps all mass far from the boundary only if
        # the hull is deep inside; either way lower <= upper holds
        assert row.unsafe_lower <= row.unsafe_upper

    def test_entries_refresh_matches_row(self):
        grid, cell, action, bounds = self._row_inputs()
        row = transition_row(grid, cell, action, bounds)
        # pick retained targets that do not meet the hull rectangle
        lows, highs = grid.boxes()
        hull = row.hull
        off_hull = [
            int(t) for t in row.targets
            if not (np.all(highs[t] >= hull.lo) and np.all(lows[t] <= hull.hi))
        ]
        assert off_hull, "fixture should produce off-hull targets"
        ids = np.array(off_hull, dtype=np.int64)
        lo_new, up_new = row_entries_for_targets(row, grid, ids)
        pos = np.searchsorted(row.targets, ids)
        assert np.array_equal(lo_new, row.lower[pos])
        assert np.array_equal(up_new, row.upper[pos])
