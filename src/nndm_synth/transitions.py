"""Interval transition probabilities between grid cells.

In whitened coordinates the one-step successor of x is N(m, I) with mean
m = T f_a(T^{-1} x); the probability of landing in an axis box is a product
of one-dimensional erf differences. Bounding the mean over a cell's
post-image hull therefore bounds the whole transition row, and the extremal
means over the hull's rectangle have a nearest/farthest closed form per
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class KernelTarget:
    """Axis box a transition may land in, with its center cached."""

    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray

    @classmethod
    def from_rect(cls, rect: HyperRect) -> "KernelTarget":
        return cls(lo=rect.lo, hi=rect.hi, center=rect.center)


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


def min_mass_over_hull(poly: Polytope, target: KernelTarget) -> float:
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

    Sparse: `targets` holds the cell ids with non-negligible upper bound,
    `lower`/`upper` the matching probabilities. Mass that may leave the
    domain is kept in unsafe_lower/unsafe_upper (the out-of-domain state is
    virtual and has no cell id). `hull` is the post-image rectangle the row
    was computed from; refinement uses it to decide which rows a split can
    affect."""

    source: int
    action: str
    targets: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    unsafe_lower: float
    unsafe_upper: float
    hull: HyperRect

    @property
    def lower_map(self) -> dict[int, float]:
        return {int(t): float(p) for t, p in zip(self.targets, self.lower)}

    @property
    def upper_map(self) -> dict[int, float]:
        return {int(t): float(p) for t, p in zip(self.targets, self.upper)}

    def to_json(self) -> dict:
        return {
            "q": self.source,
            "a": self.action,
            "lower": {str(t): float(p) for t, p in zip(self.targets, self.lower)},
            "upper": {str(t): float(p) for t, p in zip(self.targets, self.upper)},
            "unsafe": [self.unsafe_lower, self.unsafe_upper],
        }


def _entries(
    vertices: np.ndarray,
    hull: HyperRect,
    lows: np.ndarray,
    highs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) for every target box [lows[i], highs[i]] given the
    candidate mean vertices and their rectangle `hull`. Upper bounds use the
    nearest mean, lower bounds the farthest one, tightened to the minimum
    over the vertices for targets that meet the hull rectangle. Entries below
    _PRUNE come back as 0; a row stores only targets with positive upper."""
    z_min, z_max = extremal_means(hull.lo, hull.hi, lows, highs)
    upper = gaussian_box_mass(z_max, lows, highs)
    lower = gaussian_box_mass(z_min, lows, highs)

    ov = np.all((highs >= hull.lo) & (lows <= hull.hi), axis=1)
    if np.any(ov):
        # vertex enumeration is exact for the lower bound over the hull
        vals = gaussian_box_mass(vertices[:, None, :], lows[None, ov, :], highs[None, ov, :])
        lower[ov] = vals.min(axis=0)

    lower = np.minimum(lower, upper)
    upper = np.where(upper >= _PRUNE, upper, 0.0)
    lower = np.where(lower >= _PRUNE, lower, 0.0)
    return lower, upper


def transition_row(
    grid: RegionGrid,
    source: int,
    action: str,
    bounds: LinearBounds,
    poly: Polytope | None = None,
) -> TransitionBoundRow:
    """One sound transition row: bound every target cell over the source's
    post-image hull (see _entries) and keep those with positive upper bound.
    The leftover interval is the out-of-domain mass."""
    cell = grid.cells[source]
    if poly is None:
        poly = post_image_hull(bounds, cell)
    hull = rect_hull(poly)
    lows, highs = grid.boxes()
    lower, upper = _entries(poly.vertices, hull, lows, highs)
    targets = np.flatnonzero(upper)
    lower, upper = lower[targets], upper[targets]

    dom = grid.domain
    dz_min, dz_max = extremal_means(hull.lo, hull.hi, dom.lo, dom.hi)
    unsafe_lower = float(np.clip(1.0 - gaussian_box_mass(dz_max, dom.lo, dom.hi), 0.0, 1.0))
    unsafe_upper = float(np.clip(1.0 - gaussian_box_mass(dz_min, dom.lo, dom.hi), 0.0, 1.0))

    lo_sum = float(lower.sum()) + unsafe_lower
    up_sum = float(upper.sum()) + unsafe_upper
    if lo_sum > 1.0 + _FEAS_TOL or up_sum < 1.0 - _FEAS_TOL:
        raise InternalConsistencyError(
            f"row ({source}, {action}): bound sums infeasible (lower {lo_sum}, upper {up_sum})"
        )

    return TransitionBoundRow(
        source=source,
        action=action,
        targets=targets.astype(np.int64),
        lower=lower,
        upper=upper,
        unsafe_lower=unsafe_lower,
        unsafe_upper=unsafe_upper,
        hull=hull,
    )


def row_entries_for_targets(
    row: TransitionBoundRow,
    grid: RegionGrid,
    cell_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The row's (lower, upper) entries for specific target cells, from the
    stored hull rectangle through the same arithmetic as transition_row;
    targets the row would not store come back with upper 0. Refinement uses
    this to refresh a clean row's entries into freshly split cells. The
    rectangle's corners stand in for the hull vertices: that is exact for
    targets off the rectangle (a clean row's refreshed targets always are)
    and a sound, looser lower bound otherwise."""
    lows, highs = grid.boxes()
    return _entries(row.hull.vertices(), row.hull, lows[cell_ids], highs[cell_ids])
