"""Reference implementations the tests compare the package against, one
definition each. None of them is on the pipeline's path: each is the
literal one-row or one-cell form of what the package computes in bulk, an
LP or plain iteration for what it solves in rank space, or a fake product
that packs hand-written rows.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from nndm_synth.automata import UNSAFE_PROP
from nndm_synth.geometry import UNSAFE_ID, _corner_masks, post_image_boxes
from nndm_synth.imdp import _FEAS_TOL, RowStore
from nndm_synth.relaxation import LinearBounds, relax_cells
from nndm_synth.transitions import _PRUNE, extremal_means, gaussian_box_mass

# -- envelopes and post-images --------------------------------------------------


def relax_box(nd, action, transform, box) -> LinearBounds:
    """The envelope of one action on one box: relax_cells on a stack of one."""
    return relax_cells(nd, (action,), transform, box.lo[None], box.hi[None])[0]


def post_image_hulls(bounds: LinearBounds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Candidate vertex sets, shape (R, 4^n, n): row r's convex hull contains
    the image of the cell [lo[r], hi[r]] under the envelope bounds[r].

    For each cell corner v the true image lies in the box
    [lower(v), upper(v)] (post_image_boxes); the union of those boxes'
    corners (2^n boxes with 2^n corners each, box by box) spans a convex
    hull that contains the whole image.
    """
    box_lo, box_hi = post_image_boxes(bounds, lo, hi)
    R, B, n = box_lo.shape
    corners = np.where(_corner_masks(n), box_hi[:, :, None, :], box_lo[:, :, None, :])
    return corners.reshape(R, B * B, n)


def naive_entries(grid, source, action, bounds):
    """Literal per-cell row assembly in float64, no target grouping:
    (targets, lower, upper, remainder), led by the out-of-domain entry
    UNSAFE_ID when its upper bound is positive. Cells whose upper bound is
    below _PRUNE leave the row and their upper bounds, summed in cell order,
    are its remainder; kept lower bounds below _PRUNE are 0."""
    verts = post_image_hulls(bounds[None], grid.lo[source][None], grid.hi[source][None])[0]
    hull_lo, hull_hi = verts.min(axis=0), verts.max(axis=0)
    lows, highs = grid.boxes()
    n = grid.num_cells
    lower = np.empty(n)
    upper = np.empty(n)
    for q in range(n):
        z_min, z_max = extremal_means(hull_lo, hull_hi, lows[q], highs[q])
        upper[q] = gaussian_box_mass(z_max, lows[q], highs[q])
        if np.all(highs[q] >= hull_lo) and np.all(lows[q] <= hull_hi):
            lower[q] = gaussian_box_mass(verts, lows[q], highs[q]).min()
        else:
            lower[q] = gaussian_box_mass(z_min, lows[q], highs[q])
    lower = np.minimum(lower, upper)
    dom = grid.domain
    dz_min, dz_max = extremal_means(hull_lo, hull_hi, dom.lo, dom.hi)
    ul = float(np.clip(1.0 - gaussian_box_mass(dz_max, dom.lo, dom.hi), 0.0, 1.0))
    uu = float(np.clip(1.0 - gaussian_box_mass(dz_min, dom.lo, dom.hi), 0.0, 1.0))
    keep = upper >= _PRUNE
    rem = 0.0
    for q in np.flatnonzero(~keep):
        rem += upper[q]
    rem = min(1.0, rem)
    targets = np.flatnonzero(keep).astype(np.int64)
    klo = np.where(lower[keep] >= _PRUNE, lower[keep], 0.0)
    kup = upper[keep]
    if uu > 0.0:
        targets, klo, kup = np.r_[UNSAFE_ID, targets], np.r_[ul, klo], np.r_[uu, kup]
    return targets, klo, kup, rem


def outward_float32(x: float, down: bool) -> np.float32:
    """One bound as a float32 rounded down (a lower bound) or up (an upper
    bound): the cast to nearest, then one step back past x where it went
    the wrong way. Compared as Python floats, which are exact doubles."""
    f = np.float32(x)
    if (float(f) > float(x)) if down else (float(f) < float(x)):
        f = np.nextafter(f, np.float32(-np.inf if down else np.inf))
    return f


def naive_row(grid, source, action, bounds):
    """naive_entries as the store holds it: int32 targets, and each bound
    rounded outward to float32 one entry at a time (outward_float32); the
    remainder stays float64."""
    targets, lo, up, rem = naive_entries(grid, source, action, bounds)
    return (targets.astype(np.int32),
            np.array([outward_float32(v, down=True) for v in lo], dtype=np.float32),
            np.array([outward_float32(v, down=False) for v in up], dtype=np.float32),
            rem)


def locate_by_boxes(grid, points):
    """RegionGrid.locate by testing every point against every cell: closed
    boxes, a point on an interior face belongs to the upper cell, and a
    point outside the domain (or NaN) is UNSAFE_ID. Every point inside the
    domain has exactly one owner, or the cells do not tile it."""
    lows, highs = grid.boxes()
    lo, hi = grid.domain.lo, grid.domain.hi
    p = np.atleast_2d(np.asarray(points, dtype=float))[:, None, :]
    owns = np.all((lows <= p) & (p <= highs) & ((p < highs) | (highs == hi)), axis=2)
    inside = np.all((lo <= p[:, 0]) & (p[:, 0] <= hi), axis=1)
    assert np.array_equal(owns.sum(axis=1), inside)
    return np.where(inside, owns.argmax(axis=1), UNSAFE_ID)


# -- rows and row stores ----------------------------------------------------------


def mk_row(targets, lower, upper, ul=0.0, uu=0.0):
    """A row over `targets`, led by an UNSAFE_ID entry [ul, uu] when uu > 0."""
    if uu > 0:
        targets, lower, upper = [UNSAFE_ID, *targets], [ul, *lower], [uu, *upper]
    return np.asarray(targets, dtype=np.int64), np.asarray(lower, float), np.asarray(upper, float)


def first_violation_whole(store: RowStore, num_targets: int):
    """RowStore.first_violation over the whole store at once, every mask and
    every float64 sum over all entries: the first bad row's (state, action)
    and the first rule it breaks, or None."""
    t, lo, up, start = store.col, store.lo, store.up, store.indptr[:-1]

    def holds(mask):
        return np.logical_or.reduceat(mask, start)

    falls = np.zeros(t.size, dtype=bool)
    np.less_equal(t[1:], t[:-1], out=falls[:-1])
    falls[start[1:] - 1] = False
    bad_targets = holds(falls) | (t[start] < UNSAFE_ID) | (t[store.indptr[1:] - 1] >= num_targets)
    lo_sum = np.add.reduceat(lo, start, dtype=float)
    up_sum = np.add.reduceat(up, start, dtype=float) + store.rem
    checks = [
        (bad_targets, f"targets are not increasing ids in [{UNSAFE_ID}, {num_targets})"),
        (holds(lo < 0.0) | holds(lo > 1.0) | holds(up < 0.0) | holds(up > 1.0),
         "probabilities outside [0, 1]"),
        (holds(lo > up), "lower bound exceeds upper bound"),
        (~((store.rem >= 0.0) & (store.rem <= 1.0)), "remainder outside [0, 1]"),
        ((lo_sum > 1.0 + _FEAS_TOL) | (up_sum < 1.0 - _FEAS_TOL), None),
    ]
    bad = np.flatnonzero(np.any([flags for flags, _ in checks], axis=0))
    if not bad.size:
        return None
    r = int(bad[0])
    what = next(what for flags, what in checks if flags[r])
    return store.key(r), what or f"infeasible sums (lower {lo_sum[r]}, upper with remainder {up_sum[r]})"


def from_rows(rows: Mapping, num_states: int, num_actions: int) -> RowStore:
    """Pack a {(state, action): (targets, lo, up)} mapping."""
    keys = sorted(rows)
    first = np.full(num_states, -1, dtype=np.int64)
    states = sorted({s for s, _ in keys})
    first[states] = np.arange(len(states)) * num_actions
    if keys != [(s, a) for s in states for a in range(num_actions)]:
        raise ValueError("need num_actions rows for every state with rows")
    for key in keys:
        if np.any(np.diff(rows[key][0]) <= 0):
            raise ValueError(f"row {key}: targets are not increasing")
    fields = [np.asarray(rows[k], dtype=float) for k in keys]  # targets, lo, up: (3, size)
    packed = np.concatenate([np.empty((3, 0)), *fields], axis=1)
    sizes = [len(rows[k][0]) for k in keys]
    return RowStore(first, num_actions, sizes, packed[0].astype(np.int64), packed[1], packed[2])


# -- the inner adversary ----------------------------------------------------------


def extreme_distribution(
    lower: np.ndarray,
    upper: np.ndarray,
    values: np.ndarray,
    maximize: bool = False,
) -> np.ndarray:
    """Feasible distribution (lower <= gamma <= upper, sum 1) attaining the
    extreme expectation of `values`. Ties in the value ordering resolve to
    the lower index."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    values = np.asarray(values, dtype=float)
    if lower.shape != upper.shape or lower.shape != values.shape:
        raise ValueError("lower, upper, values must have matching shapes")
    if np.any(lower < -1e-12) or np.any(upper > 1.0 + 1e-12) or np.any(lower > upper + 1e-12):
        raise ValueError("bounds must satisfy 0 <= lower <= upper <= 1")
    lo_sum = float(lower.sum())
    up_sum = float(upper.sum())
    if lo_sum > 1.0 + 1e-9 or up_sum < 1.0 - 1e-9:
        raise ValueError(f"no feasible distribution: sum(lower)={lo_sum}, sum(upper)={up_sum}")

    order = np.argsort(-values if maximize else values, kind="stable")
    gamma = lower.copy()
    budget = 1.0 - lo_sum
    if budget > 0.0:
        gaps = (upper - lower)[order]
        cum = np.cumsum(gaps)
        k = int(np.searchsorted(cum, budget))
        gamma[order[:k]] = upper[order[:k]]
        if k < len(order):
            gamma[order[k]] += budget - (cum[k - 1] if k > 0 else 0.0)
    return gamma


def lp_extreme(vals, lo, up, maximize):
    """The extreme expectation of `vals` over the row's intervals, by LP."""
    c = -np.asarray(vals, float) if maximize else np.asarray(vals, float)
    res = linprog(c, A_eq=np.ones((1, len(vals))), b_eq=[1.0],
                  bounds=np.column_stack([lo, up]), method="highs")
    assert res.status == 0
    return -res.fun if maximize else res.fun


# -- products and reference iterations --------------------------------------------


@dataclass
class FakeProduct:
    """Given its rows as a {(state, action): (targets, lo, up)} dict, which
    it packs into a RowStore."""

    accepting: np.ndarray
    sink: np.ndarray
    rows: RowStore
    num_actions: int

    def __post_init__(self):
        self.rows = from_rows(self.rows, self.num_states, self.num_actions)

    @property
    def num_states(self) -> int:
        return len(self.accepting)

    def solve_order(self) -> list[np.ndarray]:
        return [np.flatnonzero(~(self.accepting | self.sink))]  # one group


def random_product(seed, n_live=10, n_actions=2, degenerate=False):
    """Random interval MDP whose rows always send mass toward a frozen state,
    so iteration contracts quickly. With `degenerate`, every interval is a
    point."""
    rng = np.random.default_rng(seed)
    n = n_live + 2
    accepting = np.zeros(n, bool)
    accepting[n_live] = True
    sink = np.zeros(n, bool)
    sink[n_live + 1] = True
    rows = {}
    for s in range(n_live):
        for a in range(n_actions):
            k = int(rng.integers(3, 6))
            others = rng.choice(n_live, size=k - 1, replace=False)
            frozen = n_live + int(rng.integers(0, 2))
            targets = np.sort(np.r_[others, frozen]).astype(np.int64)
            p = 0.4 * (targets == frozen) + 0.6 * rng.dirichlet(np.ones(k))
            if degenerate:
                lo = up = p
            else:
                lo = p * rng.uniform(0.5, 1.0, k)
                up = p + (1.0 - p) * rng.uniform(0.0, 0.5, k)
            rows[(s, a)] = (targets, lo, up)
    return FakeProduct(accepting, sink, rows, n_actions)


def product_walk(imdp, dfa):
    """The product's states and pid column by its breadth-first walk one
    state at a time: the (cell, DFA state index) pairs in pid order, as int64,
    and every live state's successor pids in turn (its cell's rows, side by
    side in the base store), as int32. A pair gets the next pid the first
    time it is reached; cell q's initial state is pid q."""
    idx = {s: i for i, s in enumerate(dfa.states)}
    labels = [*imdp.labels, frozenset({UNSAFE_PROP})]  # target UNSAFE_ID reads the last
    nxt = np.array([[idx[dfa.step(s, lab)] for s in dfa.states] for lab in labels])
    dead = dfa.dead_states()
    terminal = [s in dfa.accepting or s in dead for s in dfa.states]
    pid_tbl = np.full(nxt.shape, -1)
    work = []

    def ensure(cell, d):
        if pid_tbl[cell, d] < 0:
            pid_tbl[cell, d] = len(work)
            work.append((cell, d))
        return pid_tbl[cell, d]

    for q in range(imdp.num_cells):
        ensure(q, nxt[q, idx[dfa.initial]])
    base, A = imdp.rows, imdp.num_actions
    col = []
    for cell, d in work:  # grows while it is walked
        if terminal[d] or cell == UNSAFE_ID:
            continue
        r = base.first[cell]
        succ = base.col[base.indptr[r] : base.indptr[r + A]]
        d_next = nxt[succ, d]
        pids = pid_tbl[succ, d_next]
        for m in np.flatnonzero(pids < 0):
            pids[m] = ensure(int(succ[m]), int(d_next[m]))
        col.append(pids)
    return np.array(work, dtype=np.int64), np.concatenate(col).astype(np.int32)


def _jacobi(product, step, sweeps, tol):
    """Jacobi iteration from the accepting indicator: every live state takes
    step(V, s) each sweep, until a sweep moves no state by tol."""
    frozen = product.accepting | product.sink
    V = product.accepting.astype(float)
    for _ in range(sweeps):
        new = V.copy()
        for s in range(product.num_states):
            if not frozen[s]:
                new[s] = step(V, s)
        moved = float(np.max(np.abs(new - V)))
        V = new
        if moved < tol:
            break
    return V


def jacobi_lp_values(product, strategy=None, sweeps=600, tol=1e-12):
    """Literal reference iteration: each inner step is an LP. Pessimistic
    maximin without a strategy; optimistic evaluation with one."""

    def step(V, s):
        if strategy is None:
            return max(lp_extreme(V[t], lo, up, maximize=False)
                       for t, lo, up in (product.rows[s, a] for a in range(product.num_actions)))
        t, lo, up = product.rows[s, int(strategy[s])]
        return lp_extreme(V[t], lo, up, maximize=True)

    return _jacobi(product, step, sweeps, tol)


def plain_mdp_values(product, sweeps):
    """Maximal reachability of a product whose intervals are points: the
    only feasible distribution is the lower bound itself."""

    def step(V, s):
        return max(float(lo @ V[t]) for t, lo, _ in (product.rows[s, a] for a in range(product.num_actions)))

    return _jacobi(product, step, sweeps, 1e-13)
