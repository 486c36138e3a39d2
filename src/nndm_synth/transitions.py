"""Interval transition probabilities between grid cells.

In whitened coordinates the one-step successor of x is N(m, I) with mean
m = T f_a(T^{-1} x); the probability of landing in an axis box is a product
of one-dimensional erf differences. Bounding the mean over a cell's
post-image hull therefore bounds the whole transition row, and the extremal
means over the hull's rectangle have a nearest/farthest closed form per
dimension.

The kernel is separable: a target's term in dimension d depends only on its
interval in d, and a grid has few distinct intervals per dimension. So the
rows of one action are built as one stack. Per dimension, each row's erf
terms for its nearest and farthest mean are tabulated over the distinct
target intervals, gathered into the (rows, targets) layout and multiplied
in dimension order, exactly as `gaussian_box_mass` multiplies them. The
vertex minimum then runs only on the (row, target) pairs whose target meets
the row's rectangle. Refinement refreshes rows through the same kernel.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy.special import erf, erfc

from .geometry import UNSAFE_ID, RegionGrid, post_image_hulls
from .imdp import RowStore
from .relaxation import LinearBounds

_SQRT2 = float(np.sqrt(2.0))
_PRUNE = 1e-12      # row entries with upper bound below this are dropped
_FEAS_TOL = 1e-8    # slack for the sum-feasibility sanity check
# Rows per stacked kernel pass. Keeps the temporaries near 1 MiB on grids of
# about a thousand cells (16-32 rows ran fastest); the value changes no result.
_CHUNK_ROWS = 16


class InternalConsistencyError(RuntimeError):
    """A computed row violates an identity that sound bounds must satisfy;
    indicates a bug rather than bad input."""


def _erf_terms(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-dimension factor 2 P(z + N(0, 1) in [lo, hi]), elementwise. Far
    tails switch to erfc so the erf difference does not cancel."""
    a = (z - lo) / _SQRT2
    b = (z - hi) / _SQRT2
    term = erf(a) - erf(b)
    right = b >= 4.0
    if np.any(right):
        term = np.where(right, erfc(b) - erfc(a), term)
    left = a <= -4.0
    if np.any(left):
        term = np.where(left, erfc(-a) - erfc(-b), term)
    return term


def gaussian_box_mass(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """P(N(z, I) lands in [lo, hi]) as a product over dimensions.

    Broadcasts over leading axes; the trailing axis is the state dimension.
    """
    z, lo, hi = np.broadcast_arrays(np.asarray(z, dtype=float), lo, hi)
    mass = np.prod(_erf_terms(z, lo, hi), axis=-1) / (2.0 ** z.shape[-1])
    return np.clip(mass, 0.0, 1.0)


def extremal_means(
    hull_lo: np.ndarray,
    hull_hi: np.ndarray,
    target_lo: np.ndarray,
    target_hi: np.ndarray,
):
    """Mean positions inside [hull_lo, hull_hi] minimizing / maximizing the
    mass in the target box, separable per dimension: the maximizing mean is
    the target center clipped into the hull interval, the minimizing mean is
    the hull endpoint farther from the center (ties pick the lower endpoint).
    Broadcasts over batched targets."""
    center = 0.5 * (np.asarray(target_lo, dtype=float) + target_hi)
    z_max = np.clip(center, hull_lo, hull_hi)
    z_min = np.where(np.abs(hull_lo - center) >= np.abs(hull_hi - center), hull_lo, hull_hi)
    return z_min, z_max


def _check_sums(rows: RowStore, cells, actions: Sequence[str]) -> None:
    """Sound bounds admit a distribution: in every row, lower sums to at most
    1 and upper to at least 1. Row (s, a) is named (cells[s], actions[a])."""
    lo_sum, up_sum = rows.sums()
    bad = np.flatnonzero((lo_sum > 1.0 + _FEAS_TOL) | (up_sum < 1.0 - _FEAS_TOL))
    if bad.size:
        r = int(bad[0])
        s, a = list(rows)[r]  # the key of row r
        raise InternalConsistencyError(
            f"row ({cells[s]}, {actions[a]}): bound sums infeasible "
            f"(lower {lo_sum[r]}, upper {up_sum[r]})"
        )


def _intervals(lows: np.ndarray, highs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per dimension: the distinct target intervals (lo, hi), each (K,), and
    every target's index into them, (C,). Intervals are told apart by their
    bits, so a gathered term is exactly the term of the target's own bounds."""
    out = []
    for d in range(lows.shape[1]):
        pairs = np.stack([lows[:, d], highs[:, d]], axis=1)
        _, first, inv = np.unique(pairs.view(np.int64), axis=0, return_index=True, return_inverse=True)
        out.append((pairs[first, 0], pairs[first, 1], inv.reshape(-1)))
    return out


def _entries(
    vertices: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    intervals: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of shape (R, C) for R rows, each given by its candidate
    mean vertices (R, M, n), against C target boxes [lows, highs] (C, n)
    whose per-dimension intervals are `intervals` (see _intervals). Upper
    bounds use the nearest mean, lower bounds the farthest one, tightened to
    the minimum over the row's vertices on the (row, target) pairs whose
    target meets the row's rectangle. Entries below _PRUNE come back as 0; a
    row stores only targets with positive upper. Each row's entries are
    bitwise those of gaussian_box_mass on that row alone."""
    rect_lo, rect_hi = vertices.min(axis=1), vertices.max(axis=1)
    for d, (ilo, ihi, inv) in enumerate(intervals):
        r_lo, r_hi = rect_lo[:, d, None], rect_hi[:, d, None]
        z_min, z_max = extremal_means(r_lo, r_hi, ilo, ihi)       # (R, K)
        up = _erf_terms(z_max, ilo, ihi)[:, inv]
        lo = _erf_terms(z_min, ilo, ihi)[:, inv]
        meet = ((ihi >= r_lo) & (ilo <= r_hi))[:, inv]
        if d == 0:
            upper, lower, meets = up, lo, meet
        else:  # dimension order, as np.prod multiplies in gaussian_box_mass
            upper *= up
            lower *= lo
            meets &= meet
    scale = 2.0 ** vertices.shape[2]
    upper = np.clip(upper / scale, 0.0, 1.0)
    lower = np.clip(lower / scale, 0.0, 1.0)

    r, c = np.nonzero(meets)
    if r.size:
        # vertex enumeration is exact for the lower bound over the hull
        vals = gaussian_box_mass(vertices[r], lows[c, None, :], highs[c, None, :])
        lower[r, c] = vals.min(axis=1)

    lower = np.minimum(lower, upper)
    upper = np.where(upper >= _PRUNE, upper, 0.0)
    lower = np.where(lower >= _PRUNE, lower, 0.0)
    return lower, upper


def _stacked_entries(
    grid: RegionGrid,
    sources: np.ndarray,
    bounds: LinearBounds,
    lows: np.ndarray,
    highs: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Rows (sources[i], bounds[i]) against the targets [lows, highs], in
    chunks of about _CHUNK_ROWS full rows' entries (_CHUNK_ROWS rows against
    every cell, more against fewer targets): yields (first row, vertices,
    lower, upper) per chunk, with the chunk's post-image vertex sets and its
    _entries. The target intervals are found once for the whole stack."""
    intervals = _intervals(lows, highs)
    step = max(_CHUNK_ROWS, _CHUNK_ROWS * (grid.num_cells + 1) // (len(lows) + 1))
    for s in range(0, len(sources), step):
        src = sources[s : s + step]
        verts = post_image_hulls(bounds[s : s + step], grid.lo[src], grid.hi[src])
        yield s, verts, *_entries(verts, lows, highs, intervals)


def transition_rows(
    grid: RegionGrid,
    cells: np.ndarray,
    actions: Sequence[str],
    bounds: LinearBounds,
) -> RowStore:
    """Sound transition rows of every action in `actions` on `cells`, as a
    store whose row (i, a) is that of cells[i] under actions[a], with
    envelope bounds[i * len(actions) + a]: every target cell is bounded over
    the source's post-image hull (see _entries) and those with positive
    upper bound are kept. The leftover interval is the out-of-domain mass,
    kept as target UNSAFE_ID when its upper bound is positive. Each row is
    bitwise what a stack of that row alone gives."""
    cells = np.asarray(cells, dtype=np.int64)
    sources = cells.repeat(len(actions))
    dom = grid.domain
    # the entries go in buffers with room for dense rows, of which only the
    # pages written are touched; chunk arrays die young and leave no holes
    sizes = np.empty(sources.size, dtype=np.int64)
    room = sources.size * (grid.num_cells + 1)
    col, lo, up = np.empty(room, dtype=np.int64), np.empty(room), np.empty(room)
    end = 0
    for s, verts, lower, upper in _stacked_entries(grid, sources, bounds, grid.lo, grid.hi):
        dz_min, dz_max = extremal_means(verts.min(axis=1), verts.max(axis=1), dom.lo, dom.hi)
        out_lo = np.clip(1.0 - gaussian_box_mass(dz_max, dom.lo, dom.hi), 0.0, 1.0)
        out_up = np.clip(1.0 - gaussian_box_mass(dz_min, dom.lo, dom.hi), 0.0, 1.0)
        # column 0 is UNSAFE_ID, column q + 1 is cell q
        lower = np.column_stack([out_lo, lower])
        upper = np.column_stack([out_up, upper])
        r, c = np.nonzero(upper)
        sizes[s : s + len(verts)] = np.bincount(r, minlength=len(verts))
        k = slice(end, end + r.size)
        col[k], lo[k], up[k] = c + UNSAFE_ID, lower[r, c], upper[r, c]
        end = k.stop
    for buf in (col, lo, up):
        buf.resize(end, refcheck=False)  # in place: a view would pin the rest
    A = len(actions)
    rows = RowStore(np.arange(cells.size) * A, A, sizes, col, lo, up)
    _check_sums(rows, cells, actions)
    return rows


def refresh_rows(
    grid: RegionGrid,
    rows: RowStore,
    clean: np.ndarray,
    bounds: LinearBounds,
    cell_ids: np.ndarray,
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """What to splice into `rows`, a store of every cell's rows, to recompute
    the entries at `cell_ids` of the rows flagged in `clean` from their
    envelopes, the stack `bounds` indexed like `rows`: the mask of the
    entries that go (those at cell_ids, and all of every other row's) and
    the fresh entries with positive upper, as (row, target, lower, upper)
    arrays. After RowStore.splice each clean row equals what transition_rows
    builds on the current grid. Refinement flags the rows whose source was
    not split and passes the split cells' ids."""
    changed = np.zeros(grid.num_cells + 1, dtype=bool)  # last: UNSAFE_ID
    changed[cell_ids] = True
    refreshed = np.flatnonzero(clean)
    fresh = []
    for s, _, lower, upper in _stacked_entries(
        grid, refreshed // rows.num_actions, bounds[clean], grid.lo[cell_ids], grid.hi[cell_ids]
    ):
        r, k = np.nonzero(upper > 0.0)
        fresh.append((refreshed[s + r], cell_ids[k], lower[r, k], upper[r, k]))
    return changed[rows.col] | ~clean.repeat(np.diff(rows.indptr)), fresh
