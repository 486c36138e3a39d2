"""Axis-aligned geometry for the abstraction: whitening transforms,
hyperrectangles, labeled grids, and post-image corner boxes.

All grid geometry lives in whitened coordinates (noise covariance mapped to
the identity). For reporting, RegionGrid.original_bounds gives every cell's
preimage hull in the original state space in one array pass, by the same
corner-hull rule that transform_box applies to one box.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from .relaxation import LinearBounds

# Target id of the virtual, absorbing out-of-domain state: never a cell of a
# RegionGrid, but an ordinary row target otherwise (first in a row, as ids
# increase). Every table indexed by a target has num_cells + 1 entries, and
# UNSAFE_ID selects the last one.
UNSAFE_ID = -1

# Raster point-location tables above this many entries are refused; grids at
# that size would have failed long before lookup becomes the bottleneck.
_MAX_RASTER_CELLS = 50_000_000

# Buckets per edge of a dimension's point-location table (RegionGrid.locate):
# more buckets hold fewer edges each, so fewer scan steps per query.
_BUCKETS_PER_EDGE = 4

_SYMMETRY_TOL = 1e-9  # asymmetry a covariance may show, relative to max(1, its largest entry)


@functools.lru_cache(maxsize=None)
def _corner_masks(n: int) -> np.ndarray:
    """(2^n, n) read-only table: row k holds the bits of k, first dimension
    most significant, so rows run lo-first with the first dimension slowest
    (itertools.product order). One table per dimension count."""
    masks = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
    masks.flags.writeable = False
    return masks


@dataclass(frozen=True, eq=False)
class HyperRect:
    """Axis-aligned box [lo, hi], closed on both sides. The bounds are
    read-only copies, so the box stays the one that was checked."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lo, dtype=float))
        hi = np.atleast_1d(np.array(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"bounds must be 1-d arrays of equal length, got {lo.shape} and {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError(f"empty box: lo={lo}, hi={hi}")
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __reduce__(self):  # an unpickled box is built, so copied and checked
        return HyperRect, (self.lo, self.hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def vertices(self) -> np.ndarray:
        """All 2^n corners, binary-counting order (lo first)."""
        return np.where(_corner_masks(self.dim), self.hi, self.lo)


@dataclass(frozen=True, eq=False)
class Transform:
    """Invertible linear change of coordinates z = matrix @ x."""

    matrix: np.ndarray
    inverse: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _corner_hull(lo: np.ndarray, hi: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular hulls of the boxes [lo[i], hi[i]] (each (N, n)) mapped by
    `matrix`: per box, the elementwise min and max of its 2^n corners'
    images, each (N, n)."""
    imgs = np.where(_corner_masks(lo.shape[1]), hi[:, None, :], lo[:, None, :]) @ matrix.T
    return imgs.min(axis=1), imgs.max(axis=1)


def whitening_transform(covariance: np.ndarray) -> Transform:
    """Build T such that T @ cov @ T.T = I, via the eigendecomposition of the
    noise covariance. In the whitened coordinates the process noise is a
    standard normal.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > _SYMMETRY_TOL * scale:
        raise ValueError("covariance must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.any(eigvals <= 0):
        raise ValueError(f"covariance must be positive definite, eigenvalues {eigvals}")
    matrix = (eigvecs / np.sqrt(eigvals)).T  # diag(1/sqrt(lam)) @ V.T
    inverse = eigvecs * np.sqrt(eigvals)     # V @ diag(sqrt(lam))
    return Transform(matrix=matrix, inverse=inverse)


def post_image_boxes(bounds: "LinearBounds", lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner boxes (box_lo, box_hi), each (R, 2^n, n): for corner v = k of
    the cell [lo[r], hi[r]] (_corner_masks order), box k of row r spans
    lower(v) and upper(v) of the envelope bounds[r], elementwise, so it holds
    every image of v.

    The convex hull of the boxes' corners (4^n points, box by box; the
    tests enumerate them in tests/oracles.py) contains the image of the
    whole cell. The envelopes are applied in one stacked np.matmul; each row
    is bitwise what its envelope gives on its cell alone.
    """
    n = lo.shape[1]
    verts = np.where(_corner_masks(n), hi[:, None, :], lo[:, None, :])  # (R, 2^n, n)
    los = np.matmul(verts, bounds.A_lo.transpose(0, 2, 1)) + bounds.b_lo[:, None, :]
    his = np.matmul(verts, bounds.A_hi.transpose(0, 2, 1)) + bounds.b_hi[:, None, :]
    box_lo = np.minimum(los, his)
    box_hi = np.maximum(los, his)
    if box_lo.size == 0 or not (np.all(np.isfinite(box_lo)) and np.all(np.isfinite(box_hi))):
        raise ValueError("post-image vertices must be finite and non-empty")
    return box_lo, box_hi


def transform_box(transform: Transform, box: HyperRect, exact: bool = False) -> HyperRect:
    """Rectangular hull of the images of the box's vertices. With exact=True
    the matrix must map axes to axes, so that the hull is the box's image:
    in every row, each entry other than the largest in magnitude is at most
    1e-9 times it, and a matrix that rotates is refused."""
    if exact:
        a = np.abs(transform.matrix)
        if np.any(np.count_nonzero(a > 1e-9 * a.max(axis=1, keepdims=True), axis=1) > 1):
            raise ValueError(
                "transform does not map axis-aligned boxes to axis-aligned boxes; "
                "regions of interest require a diagonal noise covariance"
            )
    lo, hi = _corner_hull(box.lo[None], box.hi[None], transform.matrix)
    return HyperRect(lo[0], hi[0])


@dataclass
class RegionGrid:
    """Partition of the whitened domain into labeled axis-aligned cells.

    Cell i is the box [lo[i], hi[i]]; `lo` and `hi` have shape
    (num_cells, dim). Refinement splits reuse the parent index for one child
    and append the other, so indices of untouched cells are stable across
    rounds. Splits replace the arrays instead of writing into them, so what
    boxes() and cell() handed out stays a valid snapshot. The out-of-domain
    state is virtual (UNSAFE_ID, no geometry stored).
    """

    lo: np.ndarray
    hi: np.ndarray
    labels: list[frozenset[str]]
    domain: HyperRect
    transform: Transform
    _raster: tuple[list[_Buckets], np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.ndim != 2 or self.lo.shape != self.hi.shape:
            raise ValueError(
                f"cell bounds must be two (cells, dim) arrays, got {self.lo.shape} and {self.hi.shape}"
            )
        if len(self.labels) != self.lo.shape[0]:
            raise ValueError("one label set per cell required")

    def __getstate__(self):  # the point-location cache is rebuilt on the first locate
        return {k: v for k, v in vars(self).items() if k != "_raster"}

    def __setstate__(self, state):
        vars(self).update(state, _raster=None)

    @property
    def num_cells(self) -> int:
        return self.lo.shape[0]

    @property
    def dim(self) -> int:
        return self.domain.dim

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """All cell bounds: (lows, highs), each (num_cells, dim)."""
        return self.lo, self.hi

    def cell(self, i: int) -> HyperRect:
        """Cell i as a box."""
        return HyperRect(self.lo[i], self.hi[i])

    def original_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (num_cells, dim): every cell's rectangular hull of
        its preimage in original coordinates (exact whenever the transform
        maps axes to axes)."""
        return _corner_hull(self.lo, self.hi, self.transform.inverse)

    def split_cell(self, i: int, dim: int) -> int:
        """Split cell i at the midpoint of `dim`. The low child keeps index
        i, the high child is appended; returns the new index. A cell whose
        midpoint is not strictly inside it is too narrow and is refused."""
        if not (0 <= i < self.num_cells and 0 <= dim < self.dim):
            raise ValueError(f"no cell {i} or dimension {dim} in a {self.dim}-d grid of {self.num_cells} cells")
        cut = 0.5 * (self.lo[i, dim] + self.hi[i, dim])
        if not self.lo[i, dim] < cut < self.hi[i, dim]:
            raise ValueError(f"cell {i} is too narrow to split in dimension {dim}")
        lo, hi = np.vstack([self.lo, self.lo[i]]), np.vstack([self.hi, self.hi[i]])
        lo[-1, dim] = hi[i, dim] = cut
        self.lo, self.hi = lo, hi
        self.labels.append(self.labels[i])
        self._raster = None
        return self.num_cells - 1

    # -- point location -----------------------------------------------------

    def _build_raster(self) -> tuple[list[_Buckets], np.ndarray, np.ndarray]:
        """Point-location tables: per dimension the bucket table of the
        edges a coordinate is located among, the strides of the padded
        raster, and the flat raster of owning cell ids. The raster has one
        UNSAFE_ID layer on each side of every dimension: position 0 is below
        the domain, the last is above it (or NaN). The cells tile the domain,
        so the first and last cut of each dimension are the domain's bounds."""
        cuts = []
        for l in range(self.dim):
            c = np.sort(np.concatenate([self.lo[:, l], self.hi[:, l]]))
            cuts.append(c[np.append(True, c[1:] != c[:-1])])  # a plain np.unique imports numpy.ma (numpy 2.4)
        shape = tuple(len(c) + 1 for c in cuts)
        if np.prod(shape) > _MAX_RASTER_CELLS:
            raise RuntimeError(f"point-location raster too large: {shape}")
        # cell i owns the raster block between its bounds' positions in the cuts
        start = np.stack([np.searchsorted(c, self.lo[:, l]) for l, c in enumerate(cuts)], axis=1) + 1
        stop = np.stack([np.searchsorted(c, self.hi[:, l]) for l, c in enumerate(cuts)], axis=1) + 1
        owner = np.full(shape, UNSAFE_ID, dtype=np.int64)
        for i in range(self.num_cells):
            owner[tuple(map(slice, start[i], stop[i]))] = i
        # located as a side="right" search: a point on the upper domain bound
        # still counts as inside, anything above it lands past the last edge
        axes = [_Buckets(np.append(c[:-1], np.nextafter(c[-1], np.inf))) for c in cuts]
        strides = np.array(owner.strides) // owner.itemsize
        return axes, strides, owner.ravel()

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Cell index containing each whitened point; UNSAFE_ID when
        outside the domain (or NaN). Interior boundaries resolve to the upper
        cell. One bucket lookup per dimension (_Buckets.position) builds a
        flat raster index."""
        if self._raster is None:
            self._raster = self._build_raster()
        axes, strides, owner = self._raster
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        flat = axes[0].position(pts[:, 0]) * strides[0]
        for l in range(1, self.dim):
            flat += axes[l].position(pts[:, l]) * strides[l]
        found = owner[flat]
        return found if np.asarray(points).ndim > 1 else found[0]


class _Buckets:
    """The sorted edges e of one dimension and a uniform table of
    _BUCKETS_PER_EDGE * E buckets over [e[0], e[-1]] that locates a
    coordinate among them: position(x) is bitwise
    np.searchsorted(e, x, side="right") (NaN past every edge), without a
    binary search. cnt[j] counts the edges whose bucket is below j, and
    `scan` is the most edges one bucket holds."""

    def __init__(self, edges: np.ndarray):
        self.edges = edges
        self.lo, self.hi, self.top = edges[0], edges[-1], _BUCKETS_PER_EDGE * edges.size - 1
        self.scale = (self.top + 1) / (self.hi - self.lo)
        per_bucket = np.bincount(self.bucket(edges), minlength=self.top + 1)
        self.cnt = np.zeros(self.top + 2, dtype=np.int64)
        np.cumsum(per_bucket, out=self.cnt[1:])
        self.scan = int(per_bucket.max())

    def bucket(self, x: np.ndarray) -> np.ndarray:
        """Each x's bucket, by one rule for edges and queries alike. It is
        monotone in x, so an edge in a lower bucket lies below x and one in
        a higher bucket above it. x is clipped to [lo, hi] first, so no
        product overflows, and fmax/fmin send NaN to bucket 0 unwarned."""
        t = np.fmax(x, self.lo)
        np.fmin(t, self.hi, out=t)
        t -= self.lo
        t *= self.scale
        np.fmin(t, self.top, out=t)
        return t.astype(np.int64)

    def position(self, x: np.ndarray) -> np.ndarray:
        """How many edges are at most x, for each x (E where x is NaN): the
        edges below x's bucket, plus a scan over the edges in it."""
        b = self.bucket(x)
        p, end = self.cnt[b], self.cnt[b + 1]
        for _ in range(self.scan):  # p < end masks the clipped read at p = E
            p += (p < end) & (self.edges.take(p, mode="clip") <= x)
        p[np.isnan(x)] = self.edges.size
        return p


def _insert_cuts(base: np.ndarray, extra: Iterable[float], lo: float, hi: float) -> np.ndarray:
    vals = np.concatenate([base, np.fromiter(extra, dtype=float)])
    vals = vals[(vals >= lo) & (vals <= hi)]
    vals = np.sort(vals)  # a plain np.unique imports numpy.ma (numpy 2.4)
    # collapse equal cuts, and cuts closer than snapping noise, so no
    # degenerate cells appear
    keep = [vals[0]]
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    keep[0], keep[-1] = lo, hi
    return np.asarray(keep)


def build_grid(
    domain: HyperRect,
    transform: Transform,
    counts: Sequence[int],
    regions: Sequence[tuple[str, HyperRect]] = (),
) -> RegionGrid:
    """Uniform grid over the whitened image of `domain`, with the boundaries
    of every labeled region inserted as extra cut planes so each region is
    exactly a union of cells.

    `domain` and the region boxes are in original coordinates; the grid is
    built in whitened coordinates, and counts[l] cuts whitened axis l: for a
    diagonal covariance, the original axis of the l-th smallest variance
    (whitening_transform sorts the eigenvalues), not original axis l. A domain of zero width in some dimension,
    or a region that covers no cell (zero width, or narrower than the cut
    tolerance), is an error.
    """
    counts = list(counts)
    if len(counts) != domain.dim or any(c < 1 for c in counts):
        raise ValueError(f"need one positive cell count per dimension, got {counts}")
    for label, box in regions:
        if box.dim != domain.dim:
            raise ValueError(f"region {label!r} has dimension {box.dim}, domain has {domain.dim}")
        if np.any(box.lo < domain.lo) or np.any(box.hi > domain.hi):
            raise ValueError(f"region {label!r} is not contained in the domain")

    domain_t = transform_box(transform, domain, exact=False)
    regions_t = [(label, transform_box(transform, box, exact=True)) for label, box in regions]

    cuts = []
    for l in range(domain.dim):
        base = np.linspace(domain_t.lo[l], domain_t.hi[l], counts[l] + 1)
        extra = [b.lo[l] for _, b in regions_t] + [b.hi[l] for _, b in regions_t]
        cuts.append(_insert_cuts(base, extra, domain_t.lo[l], domain_t.hi[l]))
        if cuts[-1].size < 2:
            raise ValueError(f"the domain has zero width in dimension {l}")

    # cells in itertools.product order over the per-dimension intervals
    lo = np.stack([m.ravel() for m in np.meshgrid(*(c[:-1] for c in cuts), indexing="ij")], axis=1)
    hi = np.stack([m.ravel() for m in np.meshgrid(*(c[1:] for c in cuts), indexing="ij")], axis=1)
    center = 0.5 * (lo + hi)
    inside = [
        (label, np.all((center >= b.lo) & (center <= b.hi), axis=1)) for label, b in regions_t
    ]
    for label, m in inside:
        if not m.any():
            raise ValueError(f"region {label!r} covers no cell: it has (nearly) zero width")
    labels = [frozenset(label for label, m in inside if m[i]) for i in range(lo.shape[0])]
    return RegionGrid(lo=lo, hi=hi, labels=labels, domain=domain_t, transform=transform)
