"""Geometry layer: rectangles, whitening, post-image hulls, labeled grids."""

import itertools
import pickle

import numpy as np
import pytest
from scipy.optimize import linprog

from nndm_synth.geometry import (
    HyperRect,
    RegionGrid,
    _corner_masks,
    build_grid,
    post_image_boxes,
    transform_box,
    whitening_transform,
)
from nndm_synth.relaxation import LinearBounds

from oracles import locate_by_search, post_image_hulls


def in_convex_hull(point, vertices, tol=1e-9):
    """LP feasibility: point = sum w_i v_i, w >= 0, sum w = 1."""
    m = vertices.shape[0]
    A_eq = np.vstack([vertices.T, np.ones(m)])
    b_eq = np.append(point, 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m, method="highs")
    if res.status == 0:
        return True
    # retry with a tolerance band in case the point sits exactly on a face
    A_ub = np.vstack([A_eq, -A_eq])
    b_ub = np.concatenate([b_eq + tol, -(b_eq - tol)])
    res = linprog(np.zeros(m), A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * m, method="highs")
    return res.status == 0


class TestHyperRect:
    def test_basic_properties(self):
        r = HyperRect([0.0, -1.0], [2.0, 3.0])
        assert r.dim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperRect([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            HyperRect([2.0], [1.0])
        with pytest.raises(ValueError):
            HyperRect([np.nan], [1.0])

    def test_vertices_binary_order(self):
        r = HyperRect([0.0, 0.0], [1.0, 2.0])
        v = r.vertices()
        # last dimension toggles fastest
        expect = np.array([[0, 0], [0, 2], [1, 0], [1, 2]], dtype=float)
        assert np.array_equal(v, expect)

    def test_vertices_count_3d(self):
        r = HyperRect([0, 0, 0], [1, 1, 1])
        assert r.vertices().shape == (8, 3)



class TestWhitening:
    def test_identity(self):
        t = whitening_transform(np.eye(3))
        assert np.allclose(t.matrix, np.eye(3))
        assert np.allclose(t.inverse, np.eye(3))

    def test_isotropic(self):
        t = whitening_transform(0.25 * np.eye(2))
        assert np.allclose(t.matrix, 2.0 * np.eye(2))

    def test_diagonal_possibly_permuted(self):
        # eigh may reorder axes; the defining property must hold regardless
        cov = np.diag([4.0, 1.0])
        t = whitening_transform(cov)
        assert np.allclose(t.matrix @ cov @ t.matrix.T, np.eye(2), atol=1e-12)
        assert np.allclose(t.matrix @ t.inverse, np.eye(2), atol=1e-12)

    def test_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(1, 5)
            a = rng.normal(size=(n, n))
            cov = a @ a.T + 0.1 * np.eye(n)
            t = whitening_transform(cov)
            assert np.allclose(t.matrix @ cov @ t.matrix.T, np.eye(n), atol=1e-9)
            assert np.allclose(t.inverse @ t.matrix, np.eye(n), atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            whitening_transform(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            whitening_transform(np.diag([1.0, 0.0]))  # singular
        with pytest.raises(ValueError):
            whitening_transform(np.diag([1.0, -1.0]))  # indefinite
        with pytest.raises(ValueError):
            whitening_transform(np.ones((2, 3)))


class TestTransformBox:
    def test_diagonal_exact(self):
        t = whitening_transform(np.diag([0.25, 4.0]))
        box = HyperRect([-1.0, -2.0], [1.0, 2.0])
        img = transform_box(t, box, exact=True)
        verts = box.vertices() @ t.matrix.T
        assert np.allclose(img.lo, verts.min(axis=0))
        assert np.allclose(img.hi, verts.max(axis=0))

    def test_permutation_exact_is_the_per_axis_image(self):
        # eigh orders the eigenvalues, so the third axis becomes z0: the
        # hull of the vertex images is bitwise the per-axis c * lo, c * hi
        t = whitening_transform(np.diag([0.1, 0.1, 0.01]))
        col = np.argmax(np.abs(t.matrix), axis=1)
        assert col.tolist() == [2, 1, 0], "fixture should permute the axes"
        c = t.matrix[np.arange(3), col]
        box = HyperRect([-1.0, 0.5, -0.3], [2.0, 1.5, 0.0])
        img = transform_box(t, box, exact=True)
        ends = np.stack([c * box.lo[col], c * box.hi[col]])
        assert img.lo.tobytes() == ends.min(axis=0).tobytes()
        assert img.hi.tobytes() == ends.max(axis=0).tobytes()

    def test_rotation_hull(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        cov = rot @ np.diag([1.0, 4.0]) @ rot.T
        t = whitening_transform(cov)
        box = HyperRect([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="require a diagonal noise covariance"):
            transform_box(t, box, exact=True)
        hull = transform_box(t, box)
        verts = box.vertices() @ t.matrix.T
        assert np.all(verts >= hull.lo - 1e-12) and np.all(verts <= hull.hi + 1e-12)


class TestPostImageHull:
    def test_linear_map_exact(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.8]])
        b = np.array([1.0, -0.5])
        bounds = LinearBounds(A_lo=A, b_lo=b, A_hi=A, b_hi=b)
        cell = HyperRect([0.0, 0.0], [1.0, 1.0])
        verts = post_image_hulls(bounds[None], cell.lo[None], cell.hi[None])[0]
        images = cell.vertices() @ A.T + b
        # every true corner image is among the candidates
        for p in images:
            assert np.min(np.max(np.abs(verts - p), axis=1)) < 1e-12

    def test_contains_sampled_images(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.normal(size=(2, 2)) * 0.5
            b = rng.normal(size=2)
            slack = rng.uniform(0.01, 0.2, size=2)
            cell = HyperRect(rng.uniform(-1, 0, 2), rng.uniform(0.5, 1.5, 2))
            bounds = LinearBounds(A_lo=A, b_lo=b - slack, A_hi=A, b_hi=b + slack)
            verts = post_image_hulls(bounds[None], cell.lo[None], cell.hi[None])[0]
            z = rng.uniform(cell.lo, cell.hi, (50, 2))
            # any selection between the two affine maps is a possible image
            w = rng.uniform(0, 1, (50, 2))
            img = z @ A.T + (b - slack) + w * (2 * slack)
            assert np.all(img >= verts.min(axis=0) - 1e-9) and np.all(img <= verts.max(axis=0) + 1e-9)
            for p in img[:10]:
                assert in_convex_hull(p, verts)


    def test_stacked_matches_literal_per_cell_bitwise(self):
        # literal per-cell construction: corners of each corner's image box
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            lo = rng.uniform(-2, 0, (7, n))
            hi = lo + rng.uniform(0.1, 1.0, (7, n))
            bounds = LinearBounds.concat(
                LinearBounds(A_lo=rng.normal(size=(n, n)), b_lo=rng.normal(size=n),
                             A_hi=rng.normal(size=(n, n)), b_hi=rng.normal(size=n))[None]
                for r in range(7)
            )
            got = post_image_hulls(bounds, lo, hi)
            assert got.shape == (7, 4**n, n)
            for r, b in enumerate(bounds):
                corners = HyperRect(lo[r], hi[r]).vertices()
                los, his = b.lower(corners), b.upper(corners)
                box_lo, box_hi = np.minimum(los, his), np.maximum(los, his)
                want = np.array([np.where(m, h, l) for l, h in zip(box_lo, box_hi)
                                 for m in _corner_masks(n)])
                assert np.array_equal(got[r], want)
                assert np.array_equal(post_image_hulls(b[None], lo[r][None], hi[r][None])[0], want)

    def test_rejects_non_finite_envelope(self):
        cell = HyperRect([0.0, 0.0], [1.0, 1.0])
        A = np.eye(2)
        bounds = LinearBounds(A_lo=A, b_lo=np.array([np.inf, 0.0]), A_hi=A, b_hi=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            post_image_boxes(bounds[None], cell.lo[None], cell.hi[None])


class TestRegionGrid:
    def _grid(self, counts=(4, 4)):
        t = whitening_transform(np.eye(2))
        domain = HyperRect([-2.0, -2.0], [2.0, 2.0])
        regions = [("goal", HyperRect([0.5, 0.5], [1.5, 1.5]))]
        return build_grid(domain, t, counts, regions)

    def test_counts_and_region_cuts(self):
        grid = self._grid()
        # region bounds 0.5/1.5 are not on the 4x4 lattice, so two cuts per dim
        assert grid.num_cells == 6 * 6
        lows, highs = grid.boxes()
        vol = float(np.prod(highs - lows, axis=1).sum())
        assert vol == pytest.approx(16.0)

    def test_region_is_union_of_cells(self):
        grid = self._grid()
        cells = [grid.cell(i) for i in range(grid.num_cells)]
        goal_vol = sum(np.prod(c.hi - c.lo) for c, labs in zip(cells, grid.labels) if "goal" in labs)
        assert goal_vol == pytest.approx(1.0)
        for c, labs in zip(cells, grid.labels):
            inside = np.all(c.lo >= 0.5 - 1e-12) and np.all(c.hi <= 1.5 + 1e-12)
            assert ("goal" in labs) == bool(inside)

    def test_locate_centers_and_boundaries(self):
        grid = self._grid()
        lows, highs = grid.boxes()
        centers = 0.5 * (lows + highs)
        found = grid.locate(centers)
        assert np.array_equal(found, np.arange(grid.num_cells))
        # interior boundary point resolves to the upper cell
        j = int(grid.locate(np.array([[0.5, 0.0]]))[0])
        assert grid.cell(j).lo[0] == pytest.approx(0.5)
        # outside
        assert grid.locate(np.array([[2.5, 0.0], [0.0, -2.01]])).tolist() == [-1, -1]

    def test_locate_after_split(self):
        grid = self._grid()
        target = int(grid.locate(np.array([[-1.9, -1.9]]))[0])
        new_id = grid.split_cell(target, 0)
        assert new_id == grid.num_cells - 1
        assert grid.labels[new_id] == grid.labels[target]
        lo_pt = 0.5 * (grid.lo[target] + grid.hi[target])
        hi_pt = 0.5 * (grid.lo[new_id] + grid.hi[new_id])
        assert int(grid.locate(lo_pt[None])[0]) == target
        assert int(grid.locate(hi_pt[None])[0]) == new_id

    def test_locate_matches_box_test_on_refined_grid(self):
        grid = self._grid()
        for cell, dim in ((0, 0), (0, 1), (14, 1), (grid.num_cells - 1, 0)):
            grid.split_cell(cell, dim)
        lows, highs = grid.boxes()
        lo, hi = grid.domain.lo, grid.domain.hi
        # every cut plane (domain bounds included), cell middles, outside, NaN
        axes = []
        for l in range(grid.dim):
            cuts = np.unique(np.concatenate([lows[:, l], highs[:, l]]))
            mids = 0.5 * (cuts[:-1] + cuts[1:])
            axes.append(np.concatenate([cuts, mids, [lo[l] - 0.1, hi[l] + 0.1, np.nan]]))
        pts = np.array(list(itertools.product(*axes)))

        def brute(p):
            if np.any(np.isnan(p)) or np.any(p < lo) or np.any(p > hi):
                return -1
            # closed boxes; a point on an interior face belongs to the upper cell
            owns = np.all((lows <= p) & ((p < highs) | (highs == hi)), axis=1)
            assert np.count_nonzero(owns) == 1
            return int(np.flatnonzero(owns)[0])

        assert grid.locate(pts).tolist() == [brute(p) for p in pts]
        assert grid.locate(pts[0]) == brute(pts[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bucket_locate_is_the_binary_search(self, seed):
        # grids refined by split_cell, one cell split 20 times in a row so
        # that one bucket holds several edges; the points are every cut and
        # 1 ulp either side of it, the domain bounds, cell middles, random
        # points in and around the domain, +-inf, NaN and huge finite values
        rng = np.random.default_rng(seed)
        grid = self._grid(counts=(5, 3))
        for _ in range(30):
            grid.split_cell(int(rng.integers(grid.num_cells)), int(rng.integers(2)))
        cell = int(rng.integers(grid.num_cells))
        for k in range(20):
            grid.split_cell(cell, k % 2)
        tables, _, _ = grid._build_raster()
        assert max(t.scan for t in tables) > 1
        axes = []
        for t in tables:
            cuts = np.append(t.edges[:-1], np.nextafter(t.edges[-1], -np.inf))  # the last is the bound
            near = np.concatenate([cuts, np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf)])
            axes.append(np.concatenate([near, 0.5 * (cuts[:-1] + cuts[1:]), rng.uniform(-2.5, 2.5, 50),
                                        [np.inf, -np.inf, np.nan, 1e308, -1e308]]))
            # each dimension's position is bitwise np.searchsorted's
            assert np.array_equal(t.position(axes[-1]), np.searchsorted(t.edges, axes[-1], side="right"))
        pts = np.array(list(itertools.product(*axes)))
        assert np.array_equal(grid.locate(pts), locate_by_search(grid, pts))
        for p in pts[rng.choice(len(pts), 20)]:
            assert grid.locate(p) == locate_by_search(grid, p)[0]

    def test_unpickled_grid_locates_as_the_original(self):
        # the point-location cache stays out of the pickle and is rebuilt
        rng = np.random.default_rng(4)
        grid = self._grid(counts=(5, 3))
        for _ in range(12):
            grid.split_cell(int(rng.integers(grid.num_cells)), int(rng.integers(2)))
        pts = np.concatenate([rng.uniform(-2.5, 2.5, (500, 2)), grid.lo, grid.hi, [[np.nan, 0.0]]])
        want = grid.locate(pts)
        assert grid._raster is not None
        copy = pickle.loads(pickle.dumps(grid))
        assert copy._raster is None and "_raster" not in grid.__getstate__()
        assert np.array_equal(copy.locate(pts), want)
        assert np.array_equal(copy.lo, grid.lo) and copy.labels == grid.labels
        assert copy.split_cell(0, 1) == grid.num_cells  # the copy is a working grid

    def test_cells_follow_product_order(self):
        # literal per-cell loop over the cut planes as the reference
        t = whitening_transform(np.diag([0.25, 4.0, 1.0]))
        domain = HyperRect([-2.0, -2.0, 0.0], [2.0, 2.0, 1.0])
        regions = [("a", HyperRect([0.5, -1.0, 0.0], [1.5, 2.0, 0.5])),
                   ("b", HyperRect([-1.3, -2.0, 0.2], [1.5, 0.7, 1.0]))]
        grid = build_grid(domain, t, [3, 4, 2], regions)
        cuts = [np.unique(np.concatenate([grid.lo[:, l], grid.hi[:, l]])) for l in range(3)]
        regions_t = [(label, transform_box(t, box, exact=True)) for label, box in regions]
        for i, idx in enumerate(itertools.product(*(range(len(c) - 1) for c in cuts))):
            lo = np.array([cuts[l][idx[l]] for l in range(3)])
            hi = np.array([cuts[l][idx[l] + 1] for l in range(3)])
            center = 0.5 * (lo + hi)
            labels = {label for label, b in regions_t
                      if np.all(center >= b.lo) and np.all(center <= b.hi)}
            assert np.array_equal(grid.lo[i], lo) and np.array_equal(grid.hi[i], hi)
            assert grid.labels[i] == labels
        assert i == grid.num_cells - 1

    def test_original_rect_roundtrip(self):
        # each cell's original-coordinate hull is its corners mapped back,
        # min and max; under a diagonal covariance it is the cell's own
        # preimage, so whitening it again gives the cell
        t = whitening_transform(np.diag([0.25, 4.0]))
        domain = HyperRect([-2.0, -2.0], [2.0, 2.0])
        grid = build_grid(domain, t, [2, 2])
        lo, hi = grid.original_bounds()
        assert lo.shape == hi.shape == (grid.num_cells, 2)
        for i in range(grid.num_cells):
            verts = grid.cell(i).vertices() @ t.inverse.T
            assert np.array_equal(lo[i], verts.min(axis=0)) and np.array_equal(hi[i], verts.max(axis=0))
            back = HyperRect(lo[i], hi[i]).vertices() @ t.matrix.T
            assert np.allclose(back.min(axis=0), grid.cell(i).lo, atol=1e-12)
            assert np.allclose(back.max(axis=0), grid.cell(i).hi, atol=1e-12)

    def test_split_cell_cuts_at_the_midpoint(self):
        t = whitening_transform(np.eye(3))
        grid = build_grid(HyperRect([0.0, -1.0, 2.0], [2.0, 1.0, 3.0]), t, [1, 1, 1])
        lo, hi = grid.boxes()
        assert grid.split_cell(0, 1) == 1  # the low child keeps id 0
        assert np.array_equal(grid.lo, [[0.0, -1.0, 2.0], [0.0, 0.0, 2.0]])
        assert np.array_equal(grid.hi, [[2.0, 0.0, 3.0], [2.0, 1.0, 3.0]])
        assert grid.labels == [frozenset(), frozenset()]
        # the arrays handed out before the split are untouched
        assert np.array_equal(lo, [[0.0, -1.0, 2.0]]) and np.array_equal(hi, [[2.0, 1.0, 3.0]])
        assert grid.split_cell(1, 0) == 2
        assert np.array_equal(grid.hi[1], [1.0, 1.0, 3.0]) and np.array_equal(grid.lo[2], [1.0, 0.0, 2.0])
        for cell, dim in ((3, 0), (-1, 0), (0, 3), (0, -1)):
            with pytest.raises(ValueError, match=f"no cell {cell} or dimension {dim}"):
                grid.split_cell(cell, dim)

    def test_split_cell_refuses_a_cut_that_is_not_interior(self):
        # between two adjacent floats the midpoint rounds onto a bound
        top = np.nextafter(1.0, 2.0)
        grid = RegionGrid(lo=[[0.0, 1.0]], hi=[[1.0, top]], labels=[frozenset()],
                          domain=HyperRect([0.0, 1.0], [1.0, top]), transform=whitening_transform(np.eye(2)))
        with pytest.raises(ValueError, match="cell 0 is too narrow to split in dimension 1"):
            grid.split_cell(0, 1)
        assert grid.num_cells == 1 and grid.split_cell(0, 0) == 1

    def test_build_grid_validation(self):
        t = whitening_transform(np.eye(2))
        domain = HyperRect([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            build_grid(domain, t, [2])
        with pytest.raises(ValueError):
            build_grid(domain, t, [2, 0])
        with pytest.raises(ValueError):
            build_grid(domain, t, [2, 2], [("bad", HyperRect([0.0], [0.5]))])
        with pytest.raises(ValueError):
            # region sticking out of the domain
            build_grid(domain, t, [2, 2], [("bad", HyperRect([0.5, 0.5], [1.5, 1.5]))])

    def test_regions_under_a_rotated_covariance_rejected(self):
        # the whitened image of a region would not be a box, so no union of
        # cells could be exactly the region; the domain alone takes the hull
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        t = whitening_transform(rot @ np.diag([1.0, 4.0]) @ rot.T)
        domain = HyperRect([-2.0, -2.0], [2.0, 2.0])
        assert build_grid(domain, t, [4, 4]).num_cells == 16
        with pytest.raises(ValueError, match="require a diagonal noise covariance"):
            build_grid(domain, t, [4, 4], [("goal", HyperRect([0.5, 0.5], [1.5, 1.5]))])

    def test_zero_width_domain_rejected(self):
        t = whitening_transform(np.eye(2))
        with pytest.raises(ValueError, match="domain has zero width in dimension 1"):
            build_grid(HyperRect([-2.0, 1.0], [2.0, 1.0]), t, [4, 4])

    def test_region_covering_no_cell_rejected(self):
        t = whitening_transform(np.eye(2))
        domain = HyperRect([-2.0, -2.0], [2.0, 2.0])
        for box in (HyperRect([0.5, 0.5], [0.5, 1.5]), HyperRect([0.5, 0.5], [0.5 + 1e-14, 1.5])):
            with pytest.raises(ValueError, match="region 'goal' covers no cell"):
                build_grid(domain, t, [4, 4], [("goal", box)])
