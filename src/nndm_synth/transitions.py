"""Interval transition probabilities between grid cells.

In whitened coordinates the one-step successor of x is N(m, I) with mean
m = T f_a(T^{-1} x); the probability of landing in an axis box is a product
of one-dimensional erf differences. A cell's post-image lies in the convex
hull of 2^n corner boxes (geometry.post_image_boxes), so bounding the mean
over that hull bounds the whole transition row.

Upper bounds take the nearest mean in the hull's rectangle and lower bounds
the farthest one, a closed form per dimension. Where the target meets the
rectangle, the lower bound is the minimum over the hull's vertices (the mass
is log-concave in the mean, so that is the minimum over the hull), and the
vertices are the corners of the boxes. A box's smallest corner product is
the product of the smaller erf term of its two sides in each dimension:
every term is non-negative and a rounded product of non-negative numbers is
monotone in each factor. So one product per box, not one per vertex, gives
bitwise what gaussian_box_mass gives on all 4^n vertices.

The kernel is separable: a target's term in dimension d depends only on its
interval in d, and a grid has few distinct intervals per dimension. So the
rows of one action are built as one stack. Each row's erf terms for its
nearest and farthest mean are tabulated over the distinct target intervals
of every dimension, gathered into the (rows, targets) layout and multiplied
in dimension order, exactly as `gaussian_box_mass` multiplies them. The
corner-box minimum runs only on the (row, target) pairs whose target meets
the row's rectangle. Refinement refreshes rows through the same kernel.

Bounds below _PRUNE are pruned (_prune): a lower bound there becomes 0, and
a target whose upper bound is below it leaves the row, its upper bound added
to the row's remainder (RowStore.rem). The remainder is mass the adversary
may place on targets the row no longer names, so value iteration sends it
to value 0 when it minimizes and to value 1 when it maximizes. Pruning is
then sound, and the rows, the product and every sweep shrink. The
out-of-domain entry is never pruned.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy.special import erf, erfc

from .geometry import UNSAFE_ID, RegionGrid, post_image_boxes
from .imdp import RowStore
from .relaxation import LinearBounds

_SQRT2 = float(np.sqrt(2.0))
# Bounds below this are pruned into the row's remainder (see _prune). At
# 1e-6 the three benchmark stores drop 22-38% of their entries, no remainder
# exceeds 3.4e-5 and no certified bound moves by more than 7.4e-5. It trades
# width for size, so it is fixed, not a setting.
_PRUNE = 1e-6
_FEAS_TOL = 1e-8    # slack for the sum-feasibility sanity check
# Rows per stacked kernel pass. Keeps the temporaries near 1 MiB on grids of
# about a thousand cells; on 720 cells, 32 rows ran fastest of 8-64 without
# raising peak memory (64 did). The value changes no result.
_CHUNK_ROWS = 32
# Rows per pass of the out-of-domain column, which is computed for a whole
# stack before its kernel chunks: a few passes, small temporaries.
_OUT_ROWS = 1024


class InternalConsistencyError(RuntimeError):
    """A computed row violates an identity that sound bounds must satisfy;
    indicates a bug rather than bad input."""


def _erf_terms(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-dimension factor 2 P(z + N(0, 1) in [lo, hi]), elementwise. Far
    tails switch to erfc so the erf difference does not cancel; each element
    evaluates only its own branch."""
    a = (z - lo) / _SQRT2
    b = (z - hi) / _SQRT2
    right = b >= 4.0
    left = a <= -4.0
    if not (right.any() or left.any()):
        return erf(a) - erf(b)
    term = np.empty(a.shape)
    mid = ~(right | left)
    term[mid] = erf(a[mid]) - erf(b[mid])
    term[right] = erfc(b[right]) - erfc(a[right])
    term[left] = erfc(-a[left]) - erfc(-b[left])
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
    1 and upper plus the remainder to at least 1. Row (s, a) is named
    (cells[s], actions[a])."""
    lo_sum, up_sum = rows.sums()
    bad = np.flatnonzero((lo_sum > 1.0 + _FEAS_TOL) | (up_sum < 1.0 - _FEAS_TOL))
    if bad.size:
        r = int(bad[0])
        s, a = list(rows)[r]  # the key of row r
        raise InternalConsistencyError(
            f"row ({cells[s]}, {actions[a]}): bound sums infeasible "
            f"(lower {lo_sum[r]}, upper with remainder {up_sum[r]})"
        )


def _intervals(lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct target intervals of every dimension, concatenated:
    (lo, hi, dim), each (K,), where dim[k] is the dimension of interval k,
    and idx (n, C), where idx[d, q] is target q's interval in dimension d.
    Intervals are told apart by their bits, so a gathered term is exactly
    the term of the target's own bounds."""
    parts, idx, k = [], [], 0
    for d in range(lows.shape[1]):
        pairs = np.stack([lows[:, d], highs[:, d]], axis=1)
        _, first, inv = np.unique(pairs.view(np.int64), axis=0, return_index=True, return_inverse=True)
        idx.append(k + inv.reshape(-1))
        parts.append(pairs[first])
        k += len(first)
    dim = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    ilo, ihi = np.concatenate(parts).T
    return ilo, ihi, dim, np.stack(idx)


def _corner_box_min(
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """The lowest mass over the corners of each of P corner-box sets
    [box_lo, box_hi] (P, B, n) against its target box [lows, highs] (P, n),
    as (P,). Per box and dimension the smaller erf term of the box's two
    sides is kept; the kept terms are multiplied in dimension order, which
    gives the box's smallest corner product, and the smallest box is scaled
    and clipped. The terms are non-negative, and rounded products, the
    scaling and the clip are monotone in each operand, so this is bitwise
    the minimum of gaussian_box_mass over all the boxes' corners."""
    sides = _erf_terms(np.stack([box_lo, box_hi]), lows[:, None, :], highs[:, None, :])
    boxes = np.prod(np.minimum(sides[0], sides[1]), axis=-1)  # as in gaussian_box_mass
    return np.clip(boxes.min(axis=1) / 2.0 ** box_lo.shape[2], 0.0, 1.0)


def _entries(
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    intervals: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of shape (R, C) for R rows, each given by its corner
    boxes [box_lo, box_hi] (R, B, n) (see geometry.post_image_boxes; a vertex
    set is the case box_lo = box_hi), against C target boxes [lows, highs]
    (C, n) whose intervals are `intervals` (see _intervals). Upper bounds use
    the nearest mean in the row's rectangle, lower bounds the farthest one,
    tightened to the corner-box minimum (_corner_box_min) on the
    (row, target) pairs whose target meets the rectangle. Nothing is pruned
    here (see _prune). Each row's entries are bitwise those of
    gaussian_box_mass on that row alone, at the extremal means and at every
    corner of its boxes."""
    ilo, ihi, dim, idx = intervals
    # each row's rectangle side in the dimension of every interval: (R, K)
    r_lo, r_hi = box_lo.min(axis=1)[:, dim], box_hi.max(axis=1)[:, dim]
    z_min, z_max = extremal_means(r_lo, r_hi, ilo, ihi)
    terms = _erf_terms(np.stack([z_max, z_min]), ilo, ihi)           # (2, R, K)
    meet = (ihi >= r_lo) & (ilo <= r_hi)
    bounds, meets = terms[:, :, idx[0]], meet[:, idx[0]]
    for d in range(1, len(idx)):  # dimension order, as np.prod multiplies in gaussian_box_mass
        bounds *= terms[:, :, idx[d]]
        meets &= meet[:, idx[d]]
    bounds /= 2.0 ** box_lo.shape[2]
    np.clip(bounds, 0.0, 1.0, out=bounds)
    upper, lower = bounds

    r, c = np.nonzero(meets)
    if r.size:
        lower[r, c] = _corner_box_min(box_lo[r], box_hi[r], lows[c], highs[c])

    np.minimum(lower, upper, out=lower)
    return lower, upper


def _prune(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Prune (R, C) bounds in place: every bound below _PRUNE becomes 0, so
    a row keeps only targets with upper bound at least _PRUNE. Returns each
    row's dropped upper mass, (R,): the upper bounds that were zeroed, added
    one by one in target order (a cumsum; a row sum's order would depend on
    R), so a row's mass does not depend on its stack."""
    pruned = upper < _PRUNE
    dropped = np.where(pruned, upper, 0.0).cumsum(axis=1)[:, -1]
    upper[pruned] = 0.0
    lower[lower < _PRUNE] = 0.0
    return dropped


def _stacked_entries(
    grid: RegionGrid,
    sources: np.ndarray,
    bounds: LinearBounds,
    lows: np.ndarray,
    highs: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Rows (sources[i], bounds[i]) against the targets [lows, highs], in
    chunks of about _CHUNK_ROWS full rows' entries (_CHUNK_ROWS rows against
    every cell, more against fewer targets): yields (first row, lower, upper)
    per chunk, the _entries of the chunk's corner boxes. The target
    intervals are found once for the whole stack."""
    intervals = _intervals(lows, highs)
    step = max(_CHUNK_ROWS, _CHUNK_ROWS * (grid.num_cells + 1) // (len(lows) + 1))
    for s in range(0, len(sources), step):
        src = sources[s : s + step]
        boxes = post_image_boxes(bounds[s : s + step], grid.lo[src], grid.hi[src])
        yield s, *_entries(*boxes, lows, highs, intervals)


def _out_of_domain(grid: RegionGrid, sources: np.ndarray, bounds: LinearBounds) -> np.ndarray:
    """The out-of-domain intervals of rows (sources[i], bounds[i]), as one
    (2, R) array of lower and upper bounds: one minus the domain's mass at
    the nearest and at the farthest mean of each row's rectangle."""
    dom = grid.domain
    out = np.empty((2, len(sources)))
    for s in range(0, len(sources), _OUT_ROWS):
        src = sources[s : s + _OUT_ROWS]
        box_lo, box_hi = post_image_boxes(bounds[s : s + _OUT_ROWS], grid.lo[src], grid.hi[src])
        dz_min, dz_max = extremal_means(box_lo.min(axis=1), box_hi.max(axis=1), dom.lo, dom.hi)
        out[:, s : s + _OUT_ROWS] = 1.0 - gaussian_box_mass(np.stack([dz_max, dz_min]), dom.lo, dom.hi)
    return np.clip(out, 0.0, 1.0, out=out)


def transition_rows(
    grid: RegionGrid,
    cells: np.ndarray,
    actions: Sequence[str],
    bounds: LinearBounds,
) -> RowStore:
    """Sound transition rows of every action in `actions` on `cells`, as a
    store whose row (i, a) is that of cells[i] under actions[a], with
    envelope bounds[i * len(actions) + a]: every target cell is bounded over
    the source's post-image hull (see _entries) and pruned (_prune); the
    cells with upper bound at least _PRUNE are kept, and the row's remainder
    is the dropped upper mass, at most 1. The leftover interval is the
    out-of-domain mass, kept as target UNSAFE_ID when its upper bound is
    positive. Each row is bitwise what a stack of that row alone gives."""
    cells = np.asarray(cells, dtype=np.int64)
    sources = cells.repeat(len(actions))
    out = _out_of_domain(grid, sources, bounds)
    # the entries go in buffers with room for dense rows, of which only the
    # pages written are touched; chunk arrays die young and leave no holes
    sizes = np.empty(sources.size, dtype=np.int64)
    rem = np.empty(sources.size)
    room = sources.size * (grid.num_cells + 1)
    col, lo, up = np.empty(room, dtype=np.int64), np.empty(room), np.empty(room)
    end = 0
    for s, lower, upper in _stacked_entries(grid, sources, bounds, grid.lo, grid.hi):
        rows = slice(s, s + len(lower))
        rem[rows] = _prune(lower, upper)
        # column 0 is UNSAFE_ID, column q + 1 is cell q
        lower = np.column_stack([out[0, rows], lower])
        upper = np.column_stack([out[1, rows], upper])
        flat = np.flatnonzero(upper)
        sizes[rows] = np.count_nonzero(upper, axis=1)
        k = slice(end, end + flat.size)
        np.take(lower, flat, out=lo[k])
        np.take(upper, flat, out=up[k])
        np.remainder(flat, upper.shape[1], out=col[k])
        col[k] += UNSAFE_ID
        end = k.stop
    for buf in (col, lo, up):
        buf.resize(end, refcheck=False)  # in place: a view would pin the rest
    A = len(actions)
    np.minimum(rem, 1.0, out=rem)  # binds only past 10^6 pruned targets
    rows = RowStore(np.arange(cells.size) * A, A, sizes, col, lo, up, rem=rem)
    _check_sums(rows, cells, actions)
    return rows


def refresh_rows(
    grid: RegionGrid,
    rows: RowStore,
    clean: np.ndarray,
    bounds: LinearBounds,
    cell_ids: np.ndarray,
    parents: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]], np.ndarray]:
    """What to splice into `rows`, a store of every cell's rows, to recompute
    the entries at `cell_ids` of the rows flagged in `clean` from their
    envelopes, the stack `bounds` indexed like `rows`: the mask of the
    entries that go (those at cell_ids, and all of every other row's), the
    fresh entries with upper bound at least _PRUNE, as (row, target, lower,
    upper) arrays, and the store's remainders with the clean rows' brought
    up to date. `parents` (lo, hi) are the boxes the cells at cell_ids
    replace, whose pruned upper mass the clean rows' remainders hold: each
    clean row gives that back and takes the fresh targets' instead. Per
    (row, target) pair the kernel gives the bits of the build that summed
    it, so a remainder differs from a rebuild's only by the order of its
    sum. After RowStore.splice each clean row equals what transition_rows
    builds on the current grid. Refinement flags the rows whose source was
    not split, and passes the split cells' ids and the boxes of their
    parents."""
    changed = np.zeros(grid.num_cells + 1, dtype=bool)  # last: UNSAFE_ID
    changed[cell_ids] = True
    refreshed = np.flatnonzero(clean)
    k = len(cell_ids)
    lows = np.concatenate([grid.lo[cell_ids], parents[0]])  # the fresh targets, then the parents
    highs = np.concatenate([grid.hi[cell_ids], parents[1]])
    gained, given = np.zeros(refreshed.size), np.zeros(refreshed.size)
    fresh = []
    for s, lower, upper in _stacked_entries(grid, refreshed // rows.num_actions, bounds[clean], lows, highs):
        block = slice(s, s + len(lower))
        gained[block] = _prune(lower[:, :k], upper[:, :k])
        given[block] = _prune(lower[:, k:], upper[:, k:])
        r, q = np.nonzero(upper[:, :k] > 0.0)
        fresh.append((refreshed[s + r], cell_ids[q], lower[r, q], upper[r, q]))
    rem = rows.rem.copy()
    rem[refreshed] = np.clip(rem[refreshed] + gained - given, 0.0, 1.0)
    return changed[rows.col] | ~clean.repeat(np.diff(rows.indptr)), fresh, rem
