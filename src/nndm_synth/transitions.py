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
the row's rectangle, from side terms tabulated once per (row, interval)
pair. Refinement rebuilds every row through the same call, from the
envelopes cached for the cells it did not split.

erf and erfc are evaluated here in numpy, by the rational approximations of
Cephes (S. L. Moshier, Methods and Programs for Mathematical Functions,
1989), the ones scipy.special evaluates; one evaluation per element gives
both erf(x) and erfc(|x|) (_erf_erfc). Against mpmath at 40 digits the
relative error is at most 4e-16 for erf on [-6, 6] and 1e-13 for erfc on
[-3, 26.5] (tests/test_transitions.py); erfc is exactly 0 past 26.64, and no
finite input warns. Where |x| < 1 the bits are scipy's; elsewhere numpy's
exp is not the C library's, and on 5.5 million points in [-30, 30] erf
stayed within 1 ulp of scipy 1.17's and erfc within 4 ulp.

Bounds below _PRUNE are pruned (_prune): a lower bound there becomes 0, and
a target whose upper bound is below it leaves the row, its upper bound added
to the row's remainder (RowStore.rem). The remainder is mass the adversary
may place on targets the row no longer names, so value iteration sends it
to value 0 when it minimizes and to value 1 when it maximizes. Pruning is
then sound, and the rows, the product and every sweep shrink. The
out-of-domain entry is never pruned.

The kernel computes in float64; the store holds each entry in 12 bytes, the
target id as int32 and both bounds as float32, rounded outward once where a
chunk is stored (_round_outward): a lower bound down and an upper bound up,
one step to the adjacent float32 where the cast to nearest went the other
way. The remainders stay float64. Sound bounds stay sound, and the row rule
still holds: lower sums only fall and upper sums only rise.

A store that breaks the row rule (RowStore.first_violation) is a bug here:
the build stops with InternalConsistencyError naming the row's (cell, action).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .geometry import UNSAFE_ID, RegionGrid, post_image_boxes
from .imdp import RowStore
from .relaxation import LinearBounds

# erf and erfc by Cephes's rational approximations (ndtr.c), highest degree
# first. |x| <= 1: erf = x T(x^2) / U(x^2); 1 <= |x| < 8:
# erfc = exp(-x^2) P(|x|) / Q(|x|); |x| >= 8: the same with R / S; erfc is 0
# once x^2 > _MAXLOG, where exp(-x^2) leaves the doubles.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2

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


def _poly(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, highest degree first, in Cephes's operation order."""
    y = coef[0] * x
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _erf_inner(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _poly(z, _T) / _poly(z, _U)


def _erfc_outer(x: np.ndarray) -> np.ndarray:
    """erfc(x) for x >= 1 or NaN: exp(-x^2) P(x) / Q(x) below 8, R / S from
    8. P / Q runs on every element, on x clipped to 8; R / S only on the
    elements from 8, which are few (5% of vehicle3d_certify's erf
    arguments, none of planar2d_refine_mc's); on the recorded arguments
    that made erf 9-12% faster per element on planar2d_refine_mc and
    two_goal_tanh than R / S on every element, and left vehicle3d_certify
    within noise. x is capped at 27, where erfc is already 0, so x * x
    cannot overflow."""
    x = np.minimum(x, 27.0)
    z = x * x
    near = np.minimum(x, 8.0)
    y = np.exp(-z) * _poly(near, _P) / _poly(near, _Q)
    far = x >= 8.0
    t = x[far]
    y[far] = np.exp(-z[far]) * _poly(t, _R) / _poly(t, _S)
    y[z > _MAXLOG] = 0.0
    return y


def _erf_erfc(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(erf(x), erfc(|x|)) elementwise, by Cephes's branches: erf(x) by
    _erf_inner where |x| < 1, erfc(|x|) by _erfc_outer elsewhere, and the
    other as erfc(|x|) = 1 - erf(|x|) or erf(x) = sign(x) (1 - erfc(|x|)), as
    Cephes derives it (at |x| = 1 both branches give erf's bits). The short
    erf branch runs on every element, x clipped into [-1, 1]; the longer
    erfc branch only on the elements it serves (on the erf arguments of the
    benchmark builds 26-41 ns per element, against 31-45 with both branches
    on every element)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    inner = ax < 1.0
    e = _erf_inner(np.clip(x, -1.0, 1.0))
    c = 1.0 - np.abs(e)
    outer = ~inner
    c[outer] = _erfc_outer(ax[outer])
    return np.where(inner, e, np.copysign(1.0 - c, x)), c


def _erf_terms(*sets) -> list[np.ndarray]:
    """Per-dimension factor 2 P(z + N(0, 1) in [lo, hi]), elementwise, for
    each (z, lo, hi) set (broadcast), as one array per set, all from one
    _erf_erfc call on the erf arguments a = (z - lo) / sqrt2 and
    b = (z - hi) / sqrt2 of every set: a call's fixed cost, some hundred
    numpy operations, outweighs its work on small tables, so a row chunk
    evaluates its three term tables at once (_entries). The factor is erf(a) - erf(b), except in the far tails,
    where that difference would cancel: erfc(b) - erfc(a) when b >= 4,
    erfc(-a) - erfc(-b) when a <= -4. Each element's bits do not depend on
    the other sets."""
    args = [np.broadcast_arrays((z - lo) / _SQRT2, (z - hi) / _SQRT2) for z, lo, hi in sets]
    a, b = x = np.stack([np.concatenate([side.ravel() for side in pair]) for pair in zip(*args)])
    (erf_a, erf_b), (erfc_a, erfc_b) = _erf_erfc(x)  # erfc at |a| and |b|
    terms = np.where(a <= -4.0, erfc_a - erfc_b, np.where(b >= 4.0, erfc_b - erfc_a, erf_a - erf_b))
    ends = np.cumsum([first.size for first, _ in args])
    return [t.reshape(first.shape) for t, (first, _) in zip(np.split(terms, ends[:-1]), args)]


def _box_mass(terms: np.ndarray) -> np.ndarray:
    """A box's mass from its per-dimension factors (_erf_terms, last axis):
    their product in dimension order over 2^n, clipped into [0, 1]."""
    return np.clip(np.prod(terms, axis=-1) / (2.0 ** terms.shape[-1]), 0.0, 1.0)


def gaussian_box_mass(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """P(N(z, I) lands in [lo, hi]) as a product over dimensions.

    Broadcasts over leading axes; the trailing axis is the state dimension.
    """
    return _box_mass(_erf_terms((np.asarray(z, dtype=float), lo, hi))[0])


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


class _Intervals(NamedTuple):
    """The distinct target intervals of every dimension, concatenated:
    interval k is [lo[k], hi[k]] in dimension dim[k], and idx[d, q] is
    target q's interval in dimension d (idx is (n, C)). Intervals are told
    apart by their bits, so a gathered term is exactly the term of the
    target's own bounds."""

    lo: np.ndarray
    hi: np.ndarray
    dim: np.ndarray
    idx: np.ndarray


def _intervals(lows: np.ndarray, highs: np.ndarray) -> _Intervals:
    """The distinct intervals of the C target boxes [lows, highs] (C, n).
    np.unique returns indices here, which keeps numpy 2.4 from importing
    numpy.ma."""
    parts, idx, k = [], [], 0
    for d in range(lows.shape[1]):
        pairs = np.stack([lows[:, d], highs[:, d]], axis=1)
        _, first, inv = np.unique(pairs.view(np.int64), axis=0, return_index=True, return_inverse=True)
        idx.append(k + inv.reshape(-1))
        parts.append(pairs[first])
        k += len(first)
    dim = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    ilo, ihi = np.concatenate(parts).T
    return _Intervals(ilo, ihi, dim, np.stack(idx))


def _corner_table(
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    intervals: _Intervals,
    r: np.ndarray,
    c: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The side table _corner_box_min reads for P (row, target) pairs
    (r[p], c[p]), as slot[r, k], the table row of (row r, interval k), and
    the _erf_terms arguments of the table: both sides, in the interval's
    dimension, of each of the row's corner boxes [box_lo, box_hi] (R, B, n)
    against the interval. A side's term depends only on its row and on the
    target's interval in that dimension, so the table holds each (row,
    interval) pair that some target uses once."""
    iv = intervals
    slot = np.zeros((box_lo.shape[0], iv.lo.size), dtype=np.int64)
    for d in range(box_lo.shape[2]):
        slot[r, iv.idx[d, c]] = 1
    rr, kk = np.nonzero(slot)
    slot[rr, kk] = np.arange(rr.size)
    d = iv.dim[kk]
    return slot, (np.stack([box_lo[rr, :, d], box_hi[rr, :, d]]), iv.lo[kk, None], iv.hi[kk, None])


def _corner_box_min(
    sides: np.ndarray,
    slot: np.ndarray,
    intervals: _Intervals,
    r: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """The lowest mass over the corners of row r[p]'s corner boxes against
    target c[p], for P (row, target) pairs, as (P,), from the side table
    (_corner_table) and its terms `sides` (2, table rows, B). Per box and
    dimension the smaller term of the box's two sides is kept; the kept
    terms are multiplied in dimension order, which gives the box's smallest
    corner product, and the smallest box is scaled and clipped. The terms
    are non-negative, and rounded products, the scaling and the clip are
    monotone in each operand, so this is bitwise the minimum of
    gaussian_box_mass over all the boxes' corners."""
    idx = intervals.idx
    kept = np.minimum(sides[0], sides[1])  # (table rows, B)
    boxes = kept[slot[r, idx[0, c]]]
    for d in range(1, len(idx)):  # dimension order, as np.prod multiplies in gaussian_box_mass
        boxes *= kept[slot[r, idx[d, c]]]
    return np.clip(boxes.min(axis=1) / 2.0 ** len(idx), 0.0, 1.0)


def _entries(
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    intervals: _Intervals,
    domain,
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of shape (R, 1 + C) for R rows, each given by its
    corner boxes [box_lo, box_hi] (R, B, n) (see geometry.post_image_boxes;
    a vertex set is the case box_lo = box_hi). Column q + 1 bounds target q
    of the C targets whose intervals are `intervals` (see _intervals):
    upper bounds use the nearest mean in the row's rectangle, lower bounds
    the farthest one, tightened to the corner-box minimum (_corner_box_min)
    on the (row, target) pairs whose target meets the rectangle. Column 0 is
    the out-of-domain interval: one minus the mass of `domain` (a box with
    lo and hi) at the nearest mean, and at the farthest one. The three term
    tables take one _erf_terms call: which pairs meet follows from the
    rectangles alone. Nothing is pruned here (see _prune). Each row's
    entries are bitwise those of gaussian_box_mass on that row alone, at
    the extremal means and at every corner of its boxes."""
    ilo, ihi, dim, idx = intervals
    rect_lo, rect_hi = box_lo.min(axis=1), box_hi.max(axis=1)
    # each row's rectangle side in the dimension of every interval: (R, K)
    r_lo, r_hi = rect_lo[:, dim], rect_hi[:, dim]
    z_min, z_max = extremal_means(r_lo, r_hi, ilo, ihi)
    meet = (ihi >= r_lo) & (ilo <= r_hi)
    meets = meet[:, idx[0]]
    for d in range(1, len(idx)):
        meets &= meet[:, idx[d]]
    r, c = np.nonzero(meets)
    slot, side_args = _corner_table(box_lo, box_hi, intervals, r, c)
    dz_min, dz_max = extremal_means(rect_lo, rect_hi, domain.lo, domain.hi)
    terms, sides, dom_terms = _erf_terms(
        (np.stack([z_max, z_min]), ilo, ihi),                      # (2, R, K)
        side_args,
        (np.stack([dz_min, dz_max]), domain.lo, domain.hi),        # (2, R, n)
    )
    cells = terms[:, :, idx[0]]
    for d in range(1, len(idx)):  # dimension order, as np.prod multiplies in gaussian_box_mass
        cells *= terms[:, :, idx[d]]
    cells /= 2.0 ** box_lo.shape[2]
    np.clip(cells, 0.0, 1.0, out=cells)
    if r.size:
        cells[1, r, c] = _corner_box_min(sides, slot, intervals, r, c)
    np.minimum(cells[1], cells[0], out=cells[1])
    bounds = np.empty((2, box_lo.shape[0], 1 + idx.shape[1]))
    bounds[:, :, 0] = 1.0 - _box_mass(dom_terms)
    bounds[:, :, 1:] = cells
    upper, lower = bounds
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


def _round_outward(x: np.ndarray, out: np.ndarray, down: bool) -> None:
    """Store the float64 bounds x, all at least 0, in the float32 array
    `out`, each rounded down (lower bounds, which then never rise) or up
    (upper bounds, which never fall). The cast rounds to nearest; where it
    went the wrong way, one step to the adjacent float32 crosses back past
    x: np.nextafter toward -inf or +inf. On non-negative floats that step
    is -1 or +1 on the int32 the bits spell, since those order alike, and
    costs a tenth of np.nextafter. So each stored bound is within one
    float32 ulp of x, zeros stay zero, and bounds in [0, 1] stay in
    [0, 1]."""
    out[...] = x
    bits = out.view(np.int32)
    if down:
        bits -= out > x
    else:
        bits += out < x


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
    entries and its out-of-domain intervals.

    The kernel computes in float64. The store keeps 12 bytes per entry: the
    target ids as int32 and the bounds as float32, each rounded outward
    once, as its chunk is stored (_round_outward); the remainders stay
    float64. Lower bounds only fall and upper bounds only rise, so a sound
    row stays sound. Each row is bitwise what a stack of that row alone
    gives. A store that breaks the row rule raises
    InternalConsistencyError."""
    cells = np.asarray(cells, dtype=np.int64)
    sources = cells.repeat(len(actions))
    intervals = _intervals(grid.lo, grid.hi)  # found once for every chunk
    # the entries go in buffers with room for dense rows, of which only the
    # pages written are touched; chunk arrays die young and leave no holes
    sizes = np.empty(sources.size, dtype=np.int64)
    rem = np.empty(sources.size)
    room = sources.size * (grid.num_cells + 1)
    col = np.empty(room, dtype=np.int32)
    lo, up = np.empty(room, dtype=np.float32), np.empty(room, dtype=np.float32)
    end = 0
    step = max(1, _CHUNK_ENTRIES // (grid.num_cells + 1))
    for s in range(0, sources.size, step):
        rows = slice(s, s + step)
        src = sources[rows]
        box_lo, box_hi = post_image_boxes(bounds[rows], grid.lo[src], grid.hi[src])
        # column 0 is UNSAFE_ID, column q + 1 is cell q; the first is never pruned
        lower, upper = _entries(box_lo, box_hi, intervals, grid.domain)
        rem[rows] = _prune(lower[:, 1:], upper[:, 1:])
        flat = np.flatnonzero(upper)
        sizes[rows] = np.count_nonzero(upper, axis=1)
        k = slice(end, end + flat.size)
        _round_outward(lower.take(flat), lo[k], down=True)
        _round_outward(upper.take(flat), up[k], down=False)
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
