"""Interval transition probabilities between grid cells.

In whitened coordinates the one-step successor of x is N(m, I) with mean
m = T f_a(T^{-1} x); the probability of landing in an axis box is a product
of one-dimensional erf differences. Bounding the mean over a cell's
post-image hull therefore bounds the whole transition row, and the extremal
means over the hull's rectangle have a nearest/farthest closed form per
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, erfc

from .geometry import HyperRect, Polytope, RegionGrid, post_image_hull, rect_hull
from .relaxation import LinearBounds

_SQRT2 = float(np.sqrt(2.0))
_PRUNE = 1e-12      # row entries with upper bound below this are dropped
_FEAS_TOL = 1e-8    # slack for the sum-feasibility sanity check


class InternalConsistencyError(RuntimeError):
    """A computed row violates an identity that sound bounds must satisfy;
    indicates a bug rather than bad input."""


def gaussian_box_mass(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """P(N(z, I) lands in [lo, hi]) as a product over dimensions.

    Broadcasts over leading axes; the trailing axis is the state dimension.
    Far tails switch to erfc so the erf difference does not cancel.
    """
    z, lo, hi = np.broadcast_arrays(np.asarray(z, dtype=float), lo, hi)
    a = (z - lo) / _SQRT2
    b = (z - hi) / _SQRT2
    term = erf(a) - erf(b)
    right = b >= 4.0
    if np.any(right):
        term = np.where(right, erfc(b) - erfc(a), term)
    left = a <= -4.0
    if np.any(left):
        term = np.where(left, erfc(-a) - erfc(-b), term)
    mass = np.prod(term, axis=-1) / (2.0 ** z.shape[-1])
    return np.clip(mass, 0.0, 1.0)


def min_mass_over_hull(poly: Polytope, target: HyperRect) -> float:
    """Exact minimum of the box mass over the hull: the mass is log-concave
    in the mean, so the minimum over a polytope sits at a vertex."""
    vals = gaussian_box_mass(poly.vertices, target.lo, target.hi)
    return float(vals.min())


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


@dataclass
class TransitionBoundRow:
    """Sound probability intervals for one (source cell, action) pair.

    Sparse: `targets` holds the cell ids with non-negligible upper bound, in
    increasing order, `lower`/`upper` the matching probabilities. Mass that
    may leave the domain is kept in unsafe_lower/unsafe_upper (the
    out-of-domain state is virtual and has no cell id)."""

    source: int
    action: str
    targets: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    unsafe_lower: float
    unsafe_upper: float

    def to_json(self) -> dict:
        return {
            "q": self.source,
            "a": self.action,
            "lower": {str(t): float(p) for t, p in zip(self.targets, self.lower)},
            "upper": {str(t): float(p) for t, p in zip(self.targets, self.upper)},
            "unsafe": [self.unsafe_lower, self.unsafe_upper],
        }


def _check_sums(row: TransitionBoundRow) -> None:
    """Sound bounds admit a distribution: lower sums to at most 1, upper to
    at least 1 (out-of-domain mass included)."""
    lo_sum = float(row.lower.sum()) + row.unsafe_lower
    up_sum = float(row.upper.sum()) + row.unsafe_upper
    if lo_sum > 1.0 + _FEAS_TOL or up_sum < 1.0 - _FEAS_TOL:
        raise InternalConsistencyError(
            f"row ({row.source}, {row.action}): bound sums infeasible "
            f"(lower {lo_sum}, upper {up_sum})"
        )


def _entries(
    vertices: np.ndarray,
    rect_lo: np.ndarray,
    rect_hi: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of shape (R, C) for R rows, each given by its candidate
    mean vertices (R, M, n) and their rectangle [rect_lo, rect_hi] (R, n),
    against C target boxes [lows, highs] (C, n). Upper bounds use the
    nearest mean, lower bounds the farthest one, tightened to the minimum
    over the row's vertices on the (row, target) pairs whose target meets
    the rectangle. Entries below _PRUNE come back as 0; a row stores only
    targets with positive upper."""
    rect_lo, rect_hi = rect_lo[:, None, :], rect_hi[:, None, :]
    z_min, z_max = extremal_means(rect_lo, rect_hi, lows, highs)
    upper = gaussian_box_mass(z_max, lows, highs)
    lower = gaussian_box_mass(z_min, lows, highs)

    r, c = np.nonzero(np.all((highs >= rect_lo) & (lows <= rect_hi), axis=2))
    if r.size:
        # vertex enumeration is exact for the lower bound over the hull
        vals = gaussian_box_mass(vertices[r], lows[c, None, :], highs[c, None, :])
        lower[r, c] = vals.min(axis=1)

    lower = np.minimum(lower, upper)
    upper = np.where(upper >= _PRUNE, upper, 0.0)
    lower = np.where(lower >= _PRUNE, lower, 0.0)
    return lower, upper


def transition_row(
    grid: RegionGrid,
    source: int,
    action: str,
    bounds: LinearBounds,
) -> TransitionBoundRow:
    """One sound transition row: bound every target cell over the source's
    post-image hull (see _entries) and keep those with positive upper bound.
    The leftover interval is the out-of-domain mass."""
    poly = post_image_hull(bounds, grid.cell(source))
    hull = rect_hull(poly)
    lower, upper = _entries(poly.vertices[None], hull.lo[None], hull.hi[None], grid.lo, grid.hi)
    targets = np.flatnonzero(upper[0])

    dom = grid.domain
    dz_min, dz_max = extremal_means(hull.lo, hull.hi, dom.lo, dom.hi)
    row = TransitionBoundRow(
        source=source,
        action=action,
        targets=targets.astype(np.int64),
        lower=lower[0, targets],
        upper=upper[0, targets],
        unsafe_lower=float(np.clip(1.0 - gaussian_box_mass(dz_max, dom.lo, dom.hi), 0.0, 1.0)),
        unsafe_upper=float(np.clip(1.0 - gaussian_box_mass(dz_min, dom.lo, dom.hi), 0.0, 1.0)),
    )
    _check_sums(row)
    return row


def refresh_rows(
    grid: RegionGrid,
    rows: list[TransitionBoundRow],
    polys: list[Polytope],
    cell_ids: np.ndarray,
) -> list[TransitionBoundRow]:
    """The rows with their entries at `cell_ids` recomputed from their
    post-image vertex sets `polys`, all in one _entries call, so each row
    equals what transition_row builds on the current grid. Refinement uses
    this for the rows whose source was not split, with `cell_ids` the split
    cells' ids."""
    verts = np.stack([poly.vertices for poly in polys])
    lower, upper = _entries(verts, verts.min(axis=1), verts.max(axis=1),
                            grid.lo[cell_ids], grid.hi[cell_ids])
    changed = np.zeros(grid.num_cells, dtype=bool)
    changed[cell_ids] = True
    out = []
    for row, lo, up in zip(rows, lower, upper):
        keep = ~changed[row.targets]
        add = up > 0.0
        targets = np.concatenate([row.targets[keep], cell_ids[add]])
        order = np.argsort(targets, kind="stable")
        row = replace(
            row,
            targets=targets[order],
            lower=np.concatenate([row.lower[keep], lo[add]])[order],
            upper=np.concatenate([row.upper[keep], up[add]])[order],
        )
        _check_sums(row)
        out.append(row)
    return out
