"""Transition probability bounds: erf and erfc, Gaussian box masses,
extremal means over hulls, and full row assembly.

Oracles here are independent of the code under test: scipy, and mpmath at 40
digits where installed, for erf and erfc, adaptive quadrature for the kernel,
dense grids and random convex combinations for the hull minimum,
gaussian_box_mass on all 4^n hull vertices for the corner-box minimum, and a
literal per-cell reimplementation for the row assembly (naive_row in
oracles.py, shared with criterion 4).
"""

import re

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm

from nndm_synth import transitions
from nndm_synth.fixtures import reach_avoid_2d, vehicle_3d
from nndm_synth.geometry import (
    UNSAFE_ID,
    HyperRect,
    build_grid,
    post_image_boxes,
    whitening_transform,
)
from nndm_synth.imdp import Row, RowStore
from nndm_synth.networks import Activation, DenseLayer, NeuralDynamics
from nndm_synth.pipeline import build_abstraction
from nndm_synth.relaxation import LinearBounds, relax_cells
from nndm_synth.transitions import (
    InternalConsistencyError,
    extremal_means,
    gaussian_box_mass,
    transition_rows,
    _corner_box_min,
    _corner_table,
    _entries,
    _erf_erfc,
    _erf_terms,
    _intervals,
    _prune,
    _CHUNK_ENTRIES,
    _PRUNE,
)

from oracles import from_rows, mk_row, naive_entries, naive_row, post_image_hulls, relax_box


def transition_row(grid, source, action, bounds):
    """One row from one envelope, built as a stack of one."""
    return transition_rows(grid, [source], (action,), bounds[None])[(0, 0)]


def unsafe_interval(row):
    """The row's out-of-domain interval: its UNSAFE_ID entry, (0, 0) if none."""
    out = row.targets == UNSAFE_ID
    return float(row.lower[out].sum()), float(row.upper[out].sum())


def vertex_lower(vertices, target):
    """Lower bound _entries ships for one vertex set against one box: the
    corner-box set whose boxes are the vertices."""
    lows, highs = target.lo[None], target.hi[None]
    lower, _ = _entries(vertices[None], vertices[None], _intervals(lows, highs), target)
    return float(lower[0, 1])  # column 0: out of the domain, here the target itself


def mass_by_quadrature(z, lo, hi):
    """Adaptive quadrature of the standard normal pdf over [lo-z, hi-z]."""
    total = 1.0
    for zi, li, hi_i in zip(z, lo, hi):
        val, _ = quad(norm.pdf, li - zi, hi_i - zi, epsabs=1e-12, epsrel=1e-12)
        total *= val
    return total


def erf_and_erfc(x):
    """erf(x) and erfc(x) from _erf_erfc, which gives erfc(|x|)."""
    erf, erfc_abs = _erf_erfc(x)
    return erf, np.where(x < 0.0, 2.0 - erfc_abs, erfc_abs)


class TestErf:
    """The Cephes erf and erfc against scipy's and mpmath's, and at special
    values."""

    def test_against_scipy(self):
        # scipy.special evaluates the same approximations, with the C
        # library's exp where these use numpy's: erf within 1 ulp and erfc
        # within 4 were measured on [-30, 30], and the bounds leave room for
        # another numpy's exp
        rng = np.random.default_rng(30)
        for lo, hi, which, ulps in ((-6.0, 6.0, 0, 2), (-3.0, 26.5, 1, 8)):
            x = np.concatenate([np.linspace(lo, hi, 20001), rng.uniform(lo, hi, 20000), [-1.0, 1.0, 8.0]])
            x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])  # both sides of each seam
            got = erf_and_erfc(x)[which]
            want = (special.erf, special.erfc)[which](x)
            assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))
        # where |x| < 1 erf is scipy's bit for bit
        x = rng.uniform(-1.0, 1.0, 20000)
        assert np.array_equal(_erf_erfc(x)[0].view(np.int64), special.erf(x).view(np.int64))

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        with mpmath.workdps(40):
            x = np.concatenate([np.linspace(-6.0, 6.0, 2401), rng.uniform(-6.0, 6.0, 600), [-1.0, 1.0]])
            x = np.concatenate([x, np.nextafter(x, np.inf)])  # both sides of the |x| = 1 seam
            want = np.array([float(mpmath.erf(v)) for v in x])
            got, _ = erf_and_erfc(x)
            nonzero = want != 0.0
            assert np.all(got[~nonzero] == 0.0)
            assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= 4e-16
            x = np.concatenate([np.linspace(-3.0, 26.5, 2951), rng.uniform(-3.0, 26.5, 600)])
            want = np.array([float(mpmath.erfc(v)) for v in x])
            _, got = erf_and_erfc(x)
            assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        erf, erfc_abs = _erf_erfc(x)
        assert erf[:4].tolist() == [0.0, 0.0, 1.0, -1.0] and np.signbit(erf[:2]).tolist() == [False, True]
        assert erfc_abs[:4].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert np.isnan(erf[4]) and np.isnan(erfc_abs[4])
        _, erfc = erf_and_erfc(x[:4])
        assert erfc.tolist() == [1.0, 1.0, 0.0, 2.0]
        # erfc leaves the doubles at sqrt(MAXLOG) = 26.6417...: exactly 0 past it
        tail = np.concatenate([np.linspace(26.65, 40.0, 100), [1e3, 1e154, 1e200, 1e308]])
        erf, erfc_abs = _erf_erfc(np.concatenate([tail, -tail]))
        assert np.all(erfc_abs == 0.0) and np.all(np.abs(erf) == 1.0)
        assert _erf_erfc(np.array([26.6]))[1][0] > 0.0

    @pytest.mark.filterwarnings("error")
    def test_no_warning_for_finite_input(self):
        mags = np.concatenate([np.logspace(-320, 308, 600), [5e-324, np.finfo(float).max]])
        x = np.concatenate([mags, -mags])
        erf, erfc = erf_and_erfc(x)
        assert np.all(np.isfinite(erf)) and np.all(np.isfinite(erfc))
        assert np.all((np.abs(erf) <= 1.0) & (erfc >= 0.0) & (erfc <= 2.0))


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


def _random_envelopes(rng, n, count, point=False):
    """`count` random envelopes on random cells in n dimensions, a quarter of
    the cells flat in their first dimension. With `point`, lower and upper
    envelope coincide, so every corner box has zero width."""
    A_lo, b_lo = rng.normal(0.0, 0.7, (count, n, n)), rng.normal(0.0, 1.0, (count, n))
    if point:
        A_hi, b_hi = A_lo, b_lo
    else:
        A_hi = A_lo + rng.uniform(-0.3, 0.3, (count, n, n))
        b_hi = b_lo + rng.uniform(0.0, 0.6, (count, n))
    lo = rng.uniform(-1.0, 0.0, (count, n))
    hi = lo + rng.uniform(0.0, 1.2, (count, n))
    hi[::4, 0] = lo[::4, 0]
    return LinearBounds(A_lo, b_lo, A_hi, b_hi), lo, hi


def _oracle_targets(rng, rect_lo, rect_hi, kind):
    """One target box per rectangle [rect_lo, rect_hi] (P, n), of a kind:
    overlapping it, far off it in some dimensions (erf arguments past the
    |a| >= 4 erfc switch), with an edge about 4 sqrt(2) inside it (corners on
    both sides of the switch), touching it only at an edge, or flat."""
    P, n = rect_lo.shape
    width = rect_hi - rect_lo
    t_lo = rect_lo + rng.uniform(-0.5, 1.0, (P, n)) * width - rng.uniform(0.0, 1.0, (P, n))
    t_hi = t_lo + rng.uniform(0.2, 2.0, (P, n))
    d = rng.integers(0, n, P)
    i = np.arange(P)
    if kind == "far":
        side = rng.integers(0, 2, (P, n)) == 1
        far = rng.uniform(6.0, 10.0, (P, n))
        t_lo = np.where(side, rect_hi + far, rect_lo - far - 1.0)
        t_hi = t_lo + 1.0
    elif kind == "straddle":
        t_lo[i, d] = rect_lo[i, d] + 4.0 * np.sqrt(2.0) + 0.5 * width[i, d]
        t_hi[i, d] = t_lo[i, d] + 1.0
    elif kind == "edge":
        t_lo, t_hi = rect_lo - 0.1, rect_hi + 0.1
        below = rng.integers(0, 2, P) == 1
        t_hi[i, d] = np.where(below, rect_lo[i, d], rect_hi[i, d] + 1.0)
        t_lo[i, d] = np.where(below, rect_lo[i, d] - 1.0, rect_hi[i, d])
    elif kind == "flat":
        t_hi[i, d] = t_lo[i, d]
    return t_lo, t_hi


_TARGET_KINDS = ("overlap", "far", "straddle", "edge", "flat")


class TestCornerBoxMinimum:
    """The corner-box minimum against gaussian_box_mass on every one of the
    4^n post-image hull vertices, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", _TARGET_KINDS)
    @pytest.mark.parametrize("point", [False, True])
    def test_equals_vertex_minimum_bitwise(self, n, kind, point):
        rng = np.random.default_rng([n, _TARGET_KINDS.index(kind), point])
        bounds, lo, hi = _random_envelopes(rng, n, 40, point)
        box_lo, box_hi = post_image_boxes(bounds, lo, hi)
        if point:
            assert np.array_equal(box_lo, box_hi)
        rect_lo, rect_hi = box_lo.min(axis=1), box_hi.max(axis=1)
        t_lo, t_hi = _oracle_targets(rng, rect_lo, rect_hi, kind)
        pairs = np.arange(len(bounds))
        intervals = _intervals(t_lo, t_hi)
        slot, side_args = _corner_table(box_lo, box_hi, intervals, pairs, pairs)
        got = _corner_box_min(_erf_terms(side_args)[0], slot, intervals, pairs, pairs)
        corners = post_image_hulls(bounds, lo, hi)
        want = np.array([gaussian_box_mass(corners[p], t_lo[p], t_hi[p]).min() for p in range(len(bounds))])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if kind in ("far", "straddle"):
            a = (corners - t_lo[:, None]) / np.sqrt(2.0)
            b = (corners - t_hi[:, None]) / np.sqrt(2.0)
            tails = (a <= -4.0) | (b >= 4.0)
            assert tails.any(), "fixture should reach past the erfc switch"
            if kind == "straddle":
                assert (~tails).any(), "fixture should keep corners before the switch"
        # the row kernel ships this minimum wherever the target meets the
        # rectangle, an edge included
        meets = np.all((t_hi >= rect_lo) & (t_lo <= rect_hi), axis=1)
        if kind == "edge":
            assert meets.all(), "fixture should touch every rectangle"
        for p in np.flatnonzero(meets):
            target = HyperRect(t_lo[p], t_hi[p])
            lower, upper = _entries(box_lo[p : p + 1], box_hi[p : p + 1],
                                    _intervals(t_lo[p : p + 1], t_hi[p : p + 1]), target)
            assert lower[0, 1] == min(want[p], upper[0, 1])  # _entries does not prune


class TestHullExtrema:
    def test_min_is_exact_on_dense_samples(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            verts = rng.normal(0, 1.2, (6, 2))
            target = HyperRect(rng.uniform(-2, 0, 2), rng.uniform(0.5, 2.5, 2))
            got = vertex_lower(verts, target)
            w = rng.dirichlet(np.ones(verts.shape[0]), size=4000)
            inside = w @ verts
            vals = gaussian_box_mass(inside, target.lo, target.hi)
            # log-concavity: interior points can never undercut the vertex min
            assert vals.min() >= got - 1e-12

    def test_single_vertex(self):
        verts = np.array([[0.3, -0.4]])
        target = HyperRect([-1.0, -1.0], [1.0, 1.0])
        want = float(gaussian_box_mass(verts[0], target.lo, target.hi))
        assert vertex_lower(verts, target) == pytest.approx(want, rel=1e-12)


class TestTransitionRow:
    def _row_inputs(self, grid_counts=(6, 6), cell=14, action="east", seed=7):
        nd, config = reach_avoid_2d(seed=seed)
        t = whitening_transform(config.covariance)
        grid = build_grid(config.domain, t, grid_counts, config.regions)
        bounds = relax_box(nd, action, t, grid.cell(cell))
        return grid, cell, action, bounds

    def test_row_invariants(self):
        grid, cell, action, bounds = self._row_inputs()
        row = transition_row(grid, cell, action, bounds)
        assert np.all(row.lower >= 0) and np.all(row.upper <= 1)
        assert np.all(row.lower <= row.upper)
        assert np.all(row.upper >= _PRUNE)
        assert np.all(np.diff(row.targets) > 0) and row.targets[0] == UNSAFE_ID
        ul, uu = unsafe_interval(row)
        assert 0.0 <= ul <= uu <= 1.0
        lo_sum = row.lower.sum()
        up_sum = row.upper.sum()
        assert lo_sum <= 1.0 + 1e-8 <= up_sum + 2e-8

    def test_true_distribution_inside_bounds(self):
        # sample means inside the hull; the true row for each mean must fall
        # inside [lower, upper] for every target cell, and the pruned cells'
        # mass inside the row's remainder
        grid, cell, action, bounds = self._row_inputs()
        rows = transition_rows(grid, [cell], (action,), bounds[None])
        row = rows[(0, 0)]
        verts = post_image_hulls(bounds[None], grid.lo[cell][None], grid.hi[cell][None])[0]
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(verts.shape[0]), size=200)
        means = w @ verts
        lows, highs = grid.boxes()
        lo_map = {int(t): float(p) for t, p in zip(row.targets, row.lower)}
        up_map = {int(t): float(p) for t, p in zip(row.targets, row.upper)}
        pruned = np.setdiff1d(np.arange(grid.num_cells), row.targets)
        assert pruned.size and rows.rem[0] > 0.0, "fixture should prune cells"
        for z in means:
            masses = gaussian_box_mass(z, lows, highs)
            for q in range(grid.num_cells):
                assert masses[q] >= lo_map.get(q, 0.0) - 1e-12
                assert masses[q] <= up_map.get(q, _PRUNE) + 1e-12
            assert masses[pruned].sum() <= rows.rem[0] + 1e-12
            out = 1.0 - gaussian_box_mass(z, grid.domain.lo, grid.domain.hi)
            ul, uu = unsafe_interval(row)
            assert ul - 1e-12 <= out <= uu + 1e-12

    def test_grouped_matches_naive_bitwise(self):
        grid, cell, action, bounds = self._row_inputs()
        rows = transition_rows(grid, [cell], (action,), bounds[None])
        # literal per-target assembly, no grouping, out-of-domain entry included
        *want, rem = naive_row(grid, cell, action, bounds)
        _assert_same_row(rows[(0, 0)], Row(*want))
        assert rows.rem[0] == rem > 0.0

    def test_hull_inside_domain_has_tiny_unsafe_lower(self):
        grid, cell, action, bounds = self._row_inputs(cell=21)
        row = transition_row(grid, cell, action, bounds)
        box_lo, box_hi = post_image_boxes(bounds[None], grid.lo[cell][None], grid.hi[cell][None])
        inside = np.all(box_lo >= grid.domain.lo) and np.all(box_hi <= grid.domain.hi)
        assert inside
        # some mean in the hull keeps all mass far from the boundary only if
        # the hull is deep inside; either way lower <= upper holds
        ul, uu = unsafe_interval(row)
        assert ul <= uu

    def test_entries_refresh_matches_row(self):
        # two rows in one stacked _entries call, at targets on and off each
        # row's rectangle, equal their rows alone bit for bit, in float64,
        # before the store rounds them outward
        inputs = [self._row_inputs(cell=c) for c in (14, 21)]
        grid = inputs[0][0]
        cells = np.array([c for _, c, _, _ in inputs])
        stack = LinearBounds.concat(b[None] for _, _, _, b in inputs)
        box_lo, box_hi = post_image_boxes(stack, grid.lo[cells], grid.hi[cells])
        rect_lo, rect_hi = box_lo.min(axis=1), box_hi.max(axis=1)
        lows, highs = grid.boxes()
        ids = np.arange(1, grid.num_cells, 3)
        lower, upper = _entries(box_lo, box_hi, _intervals(lows[ids], highs[ids]), grid.domain)
        assert lower.shape == upper.shape == (2, 1 + ids.size)  # column 0: out of the domain
        assert (upper[:, 1:] < _PRUNE).any(), "fixture should have targets to prune"
        _prune(lower[:, 1:], upper[:, 1:])
        meets = np.all((highs[ids] >= rect_lo[:, None]) & (lows[ids] <= rect_hi[:, None]), axis=2)
        assert meets.any(axis=1).all(), "fixture should put targets on each rectangle"
        assert (upper[:, 1:][~meets] > 0).any(), "fixture should keep targets off the rectangles"
        for r, (g, c, a, b) in enumerate(inputs):
            targets, lo, up, _ = naive_entries(g, c, a, b)
            full_lo = np.zeros(grid.num_cells + 1)  # last: UNSAFE_ID
            full_up = np.zeros(grid.num_cells + 1)
            full_lo[targets] = lo
            full_up[targets] = up
            assert np.array_equal(lower[r], full_lo[np.r_[UNSAFE_ID, ids]])
            assert np.array_equal(upper[r], full_up[np.r_[UNSAFE_ID, ids]])


def _refined_2d():
    """reach_avoid_2d on a 6x6 grid with a few cells split, so the
    per-dimension intervals are non-uniform and partly nested."""
    nd, config = reach_avoid_2d()
    grid = build_grid(config.domain, whitening_transform(config.covariance), (6, 6), config.regions)
    for cell, dim in ((14, 0), (14, 1), (3, 0), (grid.num_cells - 1, 1), (20, 0)):
        grid.split_cell(cell, dim)
    return nd, grid


def _far_tails_2d():
    """A contracting linear map on a domain wide against the unit noise: the
    kept targets reach past both |erf argument| >= 4 switches."""
    nd = NeuralDynamics(dim=2, actions=("stay",), networks={
        "stay": (DenseLayer(0.1 * np.eye(2), np.zeros(2), Activation.LINEAR),)})
    grid = build_grid(HyperRect([-10.0, -1.0], [10.0, 1.0]), whitening_transform(np.eye(2)), (40, 2))
    return nd, grid


def _stack(nd, grid, action, sources):
    envs = relax_cells(nd, (action,), grid.transform, grid.lo[sources], grid.hi[sources])
    return envs, transition_rows(grid, sources, (action,), envs)


def _assert_same_row(got, want):
    assert np.array_equal(got.targets, want.targets)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)


class TestStackedRows:
    """transition_rows against criterion 4's literal per-cell naive_row,
    bit for bit."""

    def _assert_matches_naive(self, nd, grid, action, sources):
        envs, rows = _stack(nd, grid, action, sources)
        assert len(rows) == len(sources)
        assert list(rows) == [(i, 0) for i in range(len(sources))]  # row i is sources[i]'s
        for source, b, row, rem in zip(sources, envs, rows.values(), rows.rem):
            *want, want_rem = naive_row(grid, int(source), action, b)
            _assert_same_row(row, Row(*want))
            assert rem == want_rem
        return rows

    def test_refined_2d_grid(self):
        nd, grid = _refined_2d()
        widths = np.unique(grid.hi - grid.lo, axis=0)
        assert len(widths) > 3, "fixture should have non-uniform cells"
        for action in ("east", "north"):
            self._assert_matches_naive(nd, grid, action, np.arange(grid.num_cells))

    def test_small_3d_grid(self):
        nd, config = vehicle_3d(grid=(4, 3, 3))
        grid = build_grid(config.domain, whitening_transform(config.covariance),
                          config.grid, config.regions)
        for action in nd.actions[:2]:
            self._assert_matches_naive(nd, grid, action, np.arange(grid.num_cells))

    def test_whole_store_matches_naive_bitwise(self):
        # every row of every action, as build_abstraction stacks them, against
        # the literal per-target rows laid out as a store: bytes equal
        nd, config = vehicle_3d(grid=(5, 4, 3))
        grid = build_grid(config.domain, whitening_transform(config.covariance),
                          config.grid, config.regions)
        A = len(nd.actions)
        cells = np.arange(grid.num_cells)
        envs = relax_cells(nd, nd.actions, grid.transform, grid.lo, grid.hi)
        rows = transition_rows(grid, cells, nd.actions, envs)
        assert len(rows) == grid.num_cells * A == 840  # region cuts: 120 cells
        naive = [naive_row(grid, r // A, nd.actions[r % A], b) for r, b in enumerate(envs)]
        indptr = np.concatenate([[0], np.cumsum([len(t) for t, _, _, _ in naive])])
        col, lo, up = (np.concatenate(parts) for parts in list(zip(*naive))[:3])
        rem = np.array([r for _, _, _, r in naive])
        for got, want in ((rows.indptr, indptr), (rows.col, col), (rows.lo, lo), (rows.up, up),
                          (rows.rem, rem)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_targets_in_both_erfc_tails(self):
        # a target past an erfc switch has upper bound below _PRUNE, so it
        # leaves its row and the remainder, checked bitwise against the
        # naive row, carries its bits
        nd, grid = _far_tails_2d()
        sources = np.arange(grid.num_cells)
        rows = self._assert_matches_naive(nd, grid, "stay", sources)
        envs = relax_cells(nd, ("stay",), grid.transform, grid.lo, grid.hi)
        box_lo, box_hi = post_image_boxes(envs, grid.lo[sources], grid.hi[sources])
        rect_lo, rect_hi = box_lo.min(axis=1), box_hi.max(axis=1)
        left = right = 0
        for source, row in zip(sources, rows.values()):
            t = np.setdiff1d(np.arange(grid.num_cells), row.targets)  # the pruned cells
            # nearest-mean erf arguments (z - lo)/sqrt2 <= -4 and (z - hi)/sqrt2 >= 4
            left += np.any((rect_hi[source] - grid.lo[t]) / np.sqrt(2.0) <= -4.0)
            right += np.any((rect_lo[source] - grid.hi[t]) / np.sqrt(2.0) >= 4.0)
        assert left > 0 and right > 0, "fixture should prune targets in both tails"
        assert np.all(rows.rem > 0.0)

    def test_row_count_not_a_multiple_of_the_chunk(self):
        nd, grid = _refined_2d()
        step = _CHUNK_ENTRIES // (grid.num_cells + 1)  # rows per chunk against every cell
        sources = np.arange(step + 5) % grid.num_cells
        assert len(sources) % step != 0 and len(sources) > step
        self._assert_matches_naive(nd, grid, "west", sources)

    def test_rows_independent_of_their_stack(self):
        nd, grid = _refined_2d()
        sources = np.arange(grid.num_cells)
        envs, rows = _stack(nd, grid, "east", sources)
        # each row alone, and the stack reversed, so every row gets other
        # neighbours and another chunk position
        rev = list(transition_rows(grid, sources[::-1], ("east",), envs[::-1]).values())[::-1]
        for s, (row, other) in enumerate(zip(rows.values(), rev)):
            _assert_same_row(transition_rows(grid, [s], ("east",), envs[s : s + 1])[(0, 0)], row)
            _assert_same_row(other, row)


    def test_actions_interleaved_in_one_stack(self):
        # rows of several actions in one stack, keyed (i, a) in (cell, action)
        # order as the abstraction stores them, equal each action's own stack
        nd, grid = _refined_2d()
        cells = np.arange(0, grid.num_cells, 3)
        per_action = [_stack(nd, grid, action, cells) for action in nd.actions]
        A = len(nd.actions)
        # envelope i * A + a is envelope i of action a's stack
        bounds = LinearBounds.concat(envs[i : i + 1] for i in range(cells.size) for envs, _ in per_action)
        rows = transition_rows(grid, cells, nd.actions, bounds)
        assert list(rows) == [(i, a) for i in range(cells.size) for a in range(A)]
        assert np.array_equal(rows.first, np.arange(cells.size) * A)
        for i in range(cells.size):
            for a, (_, alone) in enumerate(per_action):
                _assert_same_row(rows[(i, a)], alone[(i, 0)])


class TestOutwardCast:
    """The store's float32 bounds against the naive oracle's float64 ones
    (naive_entries): each rounded outward, to the adjacent float32."""

    def test_bounds_round_outward_and_tight(self):
        nd, grid = _refined_2d()
        A = len(nd.actions)
        envs = relax_cells(nd, nd.actions, grid.transform, grid.lo, grid.hi)
        rows = transition_rows(grid, np.arange(grid.num_cells), nd.actions, envs)
        naive = [naive_entries(grid, r // A, nd.actions[r % A], b) for r, b in enumerate(envs)]
        col, lo, up = (np.concatenate(parts) for parts in list(zip(*naive))[:3])
        assert rows.col.dtype == np.int32 and rows.lo.dtype == rows.up.dtype == np.float32
        assert np.array_equal(rows.col, col)
        # outward: lower bounds never rise, upper bounds never fall
        assert np.all(rows.lo <= lo) and np.all(rows.up >= up)
        # tight: the next float32 inward lies past the float64 bound
        assert np.all(np.nextafter(rows.lo, np.float32(np.inf)) > lo)
        assert np.all(np.nextafter(rows.up, np.float32(-np.inf)) < up)
        assert np.all(rows.lo[lo == 0.0] == 0.0) and np.all(rows.up[up == 0.0] == 0.0)
        assert (lo == 0.0).any(), "fixture should have zero lower bounds"
        # the cast to nearest went the wrong way often enough to be stepped back
        assert np.any(rows.lo != lo.astype(np.float32)) and np.any(rows.up != up.astype(np.float32))

    def test_row_rule_sums_a_float32_store_in_float64(self):
        # 1000 entries of float32(0.001) and the float32 below it: their
        # exact sum is 1, but a float32 running sum ends 1.2e-7 above it,
        # beyond _FEAS_TOL; the rule sums in float64 and accepts the row
        a = np.float32(0.001)
        x = np.r_[np.full(592, a), np.full(408, np.nextafter(a, np.float32(0.0)))].astype(np.float32)
        assert x.sum(dtype=float) == 1.0
        assert float(np.add.reduceat(x, [0])[0]) > 1.0 + 1e-8
        store = RowStore([0], 1, [x.size], np.arange(x.size, dtype=np.int32), x, x.copy())
        assert store.first_violation(x.size) is None


class TestCheckSums:
    """The sum rule of RowStore.first_violation, the row rule that
    transition_rows runs on every store (TestRowRule: the error it raises)."""

    def _check_one(self, row, rem=0.0):
        """The rule on a store of this one row with remainder `rem`."""
        packed = from_rows({(0, 0): row}, 1, 1)
        store = RowStore(packed.first, 1, np.diff(packed.indptr), packed.col, packed.lo, packed.up,
                         rem=[rem])
        return store.first_violation(2)

    def test_feasible_row_passes(self):
        assert self._check_one(mk_row([0, 1], [0.2, 0.3], [0.6, 0.5], uu=0.1)) is None

    def test_remainder_counts_in_the_upper_sum(self):
        # upper sums to 0.9; a remainder of 0.1 makes up the rest
        row = mk_row([0, 1], [0.1, 0.1], [0.4, 0.4], 0.0, 0.1)
        assert self._check_one(row, rem=0.1) is None
        key, what = self._check_one(row, rem=0.05)
        assert key == (0, 0)
        assert re.match(r"infeasible sums \(lower 0.2, upper with remainder 0.95", what)

    @pytest.mark.parametrize("lower, upper, ul, uu", [
        ([0.6, 0.3], [0.7, 0.4], 0.2, 0.2),   # lower sum 1.1
        ([0.1, 0.1], [0.4, 0.4], 0.0, 0.1),   # upper sum 0.9
    ])
    def test_infeasible_sums_raise(self, lower, upper, ul, uu):
        key, what = self._check_one(mk_row([0, 1], lower, upper, ul, uu))
        assert key == (0, 0) and what.startswith("infeasible sums")

    def test_names_the_bad_row_of_a_stack(self):
        # one check over the whole stack still names the one bad row in its
        # middle, not the stack's first row
        good = mk_row([0, 1], [0.2, 0.3], [0.6, 0.5], uu=0.1)
        bad = mk_row([0, 1], [0.6, 0.3], [0.7, 0.4], 0.2, 0.2)
        stack = from_rows({(i, 0): bad if i == 2 else good for i in range(5)}, 5, 1)
        key, what = stack.first_violation(2)
        assert key == (2, 0) and what.startswith("infeasible sums")
        # in a (cell, action) store, the row of cell 1 under its second action
        store = from_rows({(c, a): bad if (c, a) == (1, 1) else good
                           for c in range(3) for a in range(2)}, 3, 2)
        key, what = store.first_violation(2)
        assert key == (1, 1) and what.startswith("infeasible sums")
        # states without rows are skipped when a row is named
        sparse = from_rows({(0, 0): good, (0, 1): good, (3, 0): good, (3, 1): bad}, 5, 2)
        assert sparse.first_violation(2)[0] == (3, 1)
        assert from_rows({(i, 0): good for i in range(5)}, 5, 1).first_violation(2) is None


class TestRowRule:
    """transition_rows checks every store it builds by the row rule and
    names a bad row by its cell and action name, whatever the stack's
    cells: a kernel fault injected after _prune is caught."""

    @staticmethod
    def _corrupt(monkeypatch, row, how):
        """Make _prune's first call break row `row` of its chunk: "exceeds"
        lifts one kept lower bound above its upper bound, "sums" raises
        every kept lower bound to its upper bound."""
        prune = transitions._prune
        calls = []

        def corrupted(lower, upper):
            dropped = prune(lower, upper)
            if not calls:
                kept = np.flatnonzero(upper[row] > 0.0)
                if how == "exceeds":
                    lower[row, kept[0]] = upper[row, kept[0]] + 1e-3
                else:
                    lower[row, kept] = upper[row, kept]
            calls.append(1)
            return dropped

        monkeypatch.setattr(transitions, "_prune", corrupted)

    @pytest.mark.parametrize("actions, row, name", [
        (("east",), 2, "12, east"),
        (("east", "north"), 3, "11, north"),
    ])
    @pytest.mark.parametrize("how, what", [
        ("exceeds", "lower bound exceeds upper bound"),
        ("sums", r"infeasible sums \(lower "),
    ])
    def test_names_the_cell_and_action(self, monkeypatch, actions, row, name, how, what):
        nd, grid = _refined_2d()
        cells = np.arange(10, 15)
        envs = relax_cells(nd, actions, grid.transform, grid.lo[cells], grid.hi[cells])
        transition_rows(grid, cells, actions, envs)  # sound as built
        self._corrupt(monkeypatch, row, how)
        with pytest.raises(InternalConsistencyError, match=rf"^row \({name}\): {what}"):
            transition_rows(grid, cells, actions, envs)

    def test_build_abstraction_fails_loudly(self, monkeypatch):
        nd, config = reach_avoid_2d(grid=(4, 4))
        self._corrupt(monkeypatch, 2, "exceeds")  # the row of cell 0 under its third action
        with pytest.raises(InternalConsistencyError, match=r"^row \(0, west\): lower bound exceeds upper bound"):
            build_abstraction(nd, config)
