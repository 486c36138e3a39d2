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
the row's rectangle. Refinement rebuilds every row through the same call,
from the envelopes cached for the cells it did not split.

Bounds below _PRUNE are pruned (_prune): a lower bound there becomes 0, and
a target whose upper bound is below it leaves the row, its upper bound added
to the row's remainder (RowStore.rem). The remainder is mass the adversary
may place on targets the row no longer names, so value iteration sends it
to value 0 when it minimizes and to value 1 when it maximizes. Pruning is
then sound, and the rows, the product and every sweep shrink. The
out-of-domain entry is never pruned.

A store that breaks the row rule (RowStore.first_violation) is a bug here:
the build stops with InternalConsistencyError naming the row's (cell, action).
"""

from __future__ import annotations

from typing import Sequence

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
# (row, target) entries per stacked kernel pass: a chunk holds this many
# entries' worth of rows against every cell. Keeps the temporaries near
# 1 MiB; on 720 cells (32 rows a chunk), 32 rows ran fastest of 8-64 without
# raising peak memory (64 did), and small grids get more rows a chunk, so
# their numpy call overhead stays low. The value changes no result.
_CHUNK_ENTRIES = 32 * 721


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
    positive. The rows go through the kernel in chunks of about
    _CHUNK_ENTRIES entries, and a chunk's corner boxes serve both its cell
    entries and its out-of-domain intervals. Each row is bitwise what a
    stack of that row alone gives. A store that breaks the row rule raises
    InternalConsistencyError."""
    cells = np.asarray(cells, dtype=np.int64)
    sources = cells.repeat(len(actions))
    dom = grid.domain
    intervals = _intervals(grid.lo, grid.hi)  # found once for every chunk
    # the entries go in buffers with room for dense rows, of which only the
    # pages written are touched; chunk arrays die young and leave no holes
    sizes = np.empty(sources.size, dtype=np.int64)
    rem = np.empty(sources.size)
    room = sources.size * (grid.num_cells + 1)
    col, lo, up = np.empty(room, dtype=np.int64), np.empty(room), np.empty(room)
    end = 0
    step = max(1, _CHUNK_ENTRIES // (grid.num_cells + 1))
    for s in range(0, sources.size, step):
        rows = slice(s, s + step)
        src = sources[rows]
        box_lo, box_hi = post_image_boxes(bounds[rows], grid.lo[src], grid.hi[src])
        lower, upper = _entries(box_lo, box_hi, grid.lo, grid.hi, intervals)
        rem[rows] = _prune(lower, upper)
        # out of domain: one minus the domain's mass at the nearest and at
        # the farthest mean of each row's rectangle
        dz_min, dz_max = extremal_means(box_lo.min(axis=1), box_hi.max(axis=1), dom.lo, dom.hi)
        out = 1.0 - gaussian_box_mass(np.stack([dz_max, dz_min]), dom.lo, dom.hi)
        # column 0 is UNSAFE_ID, column q + 1 is cell q
        lower = np.column_stack([out[0], lower])
        upper = np.column_stack([out[1], upper])
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
    bad = rows.first_violation(grid.num_cells)
    if bad is not None:
        (i, a), what = bad
        raise InternalConsistencyError(f"row ({cells[i]}, {actions[a]}): {what}")
    return rows
