"""Interval-probability MDP core: the CSR row store, extreme adversaries and
robust value iteration. The product's store reads the abstraction's bounds.
The rule of a sound row is written once, as RowStore.first_violation.

The inner optimization (pick a feasible distribution inside the row's
probability intervals that minimizes or maximizes the expected value) is
solved exactly by the ordering method: sort targets by value, hand every
target its lower bound, then walk the sorted order raising entries to their
upper bound until the remaining mass runs out. The tests keep the literal
one-row version as the reference (`extreme_distribution` in
tests/oracles.py).

Value iteration evaluates that step for a block of rows at once, in rank
space (`_BlockKernel`): each row's gaps up - lo are scattered into a dense
(rows, states) buffer in the rank order of the current values, and a cumsum
along each row gives the mass C_k the adversary may move onto its k
preferred states. By Abel summation the row's value is
lo.V + min(C, budget) @ dv, with budget = 1 - sum(lo) and
dv_k = v_k - v_{k+1} in rank order, so there is no per-row sort and no
Python per state. A row's remainder (the upper mass of the targets pruned
from it) is filled first by either adversary: the minimizer sends it to
value 0 and the maximizer to value 1.

A sweep orders the live states by descending value and walks them in blocks
of about _BLOCK_CELLS buffer cells: Gauss-Seidel across blocks (each block
sees the values the previous blocks wrote), Jacobi within a block. The
maximin pass alternates two kinds of sweep (modified policy iteration): a
full sweep takes the max over every action row and records each state's
best action, and strategy sweeps in between evaluate only that recorded row,
until one moves no state by _REFRESH times the last full sweep's largest
move. The adversary is solved exactly in both, so a strategy sweep's value
is at most the full one's and every iterate stays a sound lower bound. The
pass stops once a full sweep moves no state by tol. The fixed-strategy
optimistic pass runs the same sweep loop on the strategy's rows, where every
sweep is full. The strategy is extracted once at the converged values: in
each state, the lowest-index action whose value is within tol of the
state's best, so actions that differ only by unconverged noise do not flip
on rounding.

Both passes run through one driver (_solve), group by group, in the order
of the product's solve_order(): one group per SCC of the live states' DFA
states, each solved after the groups its rows name, whose values it reads
as frozen.
A group's kernel spans only its own states and the states its rows name,
so the dense buffer is as wide as the group's reach, not the product, and
nothing is copied: the kernel ranks the product's own target ids. A group
that holds every row (a DFA with one live state) spans every state, as a
kernel over the whole product does. The groups share one sweep budget, and
a pass's sweep counts are summed over them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import UNSAFE_ID

# Buffer cells (rows x states) per block of a sweep. Smaller blocks take
# fewer sweeps (closer to Gauss-Seidel) but pay numpy call overhead more
# often; 2**14 was fastest over the three benchmark workloads and keeps the
# scratch arrays small. The block size moves the sweep count and the values
# within tol, so it is fixed, not a setting.
_BLOCK_CELLS = 1 << 14

# Between full sweeps of the maximin pass, sweeps over the held strategy run
# until one moves no state by _REFRESH times the last full sweep's largest
# move (or tol). Ratios from 0.01 to 0.5 all cut the maximin pass's time by
# about half on the two_goal_tanh benchmark; 0.1 was the fastest. Like the
# block size, it moves the values only within tol, so it is not a setting.
_REFRESH = 0.1

_FEAS_TOL = 1e-8  # slack of the row-sum rule (RowStore.first_violation)


@dataclass
class Imdp:
    """Interval MDP over the grid cells, one per label set: `labels` is the
    grid's list, extended in place by refinement, never rebound. `rows`
    holds one row per (cell id, action index), in that order; targets are
    cell ids plus UNSAFE_ID, the virtual absorbing out-of-domain state."""

    actions: tuple[str, ...]
    labels: list[frozenset[str]]
    rows: RowStore

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @property
    def num_cells(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        """Sanity checks: one label set per cell, and every row sound by the
        row rule (RowStore.first_violation); raises ValueError naming the
        first bad row as (cell, action index) and the first rule it breaks."""
        if self.rows.first.size != self.num_cells:
            raise ValueError("one label set per cell required")
        bad = self.rows.first_violation(self.num_cells)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")


class Row(NamedTuple):
    """One row of a RowStore, each field a view into the store."""

    targets: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


class RowStore(Mapping):
    """The rows of an interval MDP over states 0..S-1 as one CSR layout, from
    the abstraction (states are cells, targets cell ids plus UNSAFE_ID) to the
    product (states are product ids).

    Row r holds entries indptr[r]:indptr[r+1] of `col` (distinct targets, at
    least one) and as many bounds from at[r] on in `lo` and `up`: its own in
    the abstraction (at = indptr[:-1], targets increasing), the abstraction's
    in the product, in base order. rem[r] is the row's remainder: the upper
    mass, at most 1, of the targets pruned from it, which no entry holds. It
    has no lower bound and no target id. Rows run in (state, action) order; a
    state has all num_actions rows, from row first[s] on, or none
    (first[s] = -1). As a read-only Mapping it yields (state, action) -> Row.
    The constructor takes each row's entry count, in row order, the entries'
    col, lo, up, and each row's remainder (default 0)."""

    def __init__(self, first, num_actions: int, sizes, col, lo, up, at=None, rem=None):
        self.first = np.asarray(first, dtype=np.int64)
        self.num_actions = num_actions
        self.indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.indptr[1:])
        if len(sizes) != np.count_nonzero(self.first >= 0) * num_actions:
            raise ValueError("need num_actions rows for every state with rows")
        if np.any(np.diff(self.indptr) < 1):
            raise ValueError("every row needs at least one entry")
        self.col, self.lo, self.up = col, lo, up
        self.at = self.indptr[:-1] if at is None else np.asarray(at, dtype=np.int64)
        self.rem = np.zeros(len(sizes)) if rem is None else np.asarray(rem, dtype=float)
        if self.rem.shape != (len(sizes),):
            raise ValueError("need one remainder per row")

    def key(self, r: int) -> tuple[int, int]:
        """The (state, action) of row r, counted over the states with rows."""
        A = self.num_actions
        return int(np.flatnonzero(self.first >= 0)[r // A]), r % A

    def first_violation(self, num_targets: int):
        """The rule of a sound row, in this order, on an abstraction's store
        (at = indptr[:-1]): targets are increasing ids in [UNSAFE_ID,
        num_targets), bounds lie in [0, 1], lower <= upper, the remainder
        lies in [0, 1], and lower sums to at most 1 + _FEAS_TOL and upper
        plus the remainder to at least 1 - _FEAS_TOL. Returns the first bad
        row's (state, action) and the first rule it breaks, or None. At most
        two masks over the entries live at a time."""
        t, lo, up, start = self.col, self.lo, self.up, self.indptr[:-1]

        def holds(mask: np.ndarray) -> np.ndarray:  # per row: is one of its entries flagged?
            return np.logical_or.reduceat(mask, start)

        falls = np.zeros(t.size, dtype=bool)  # entry i + 1 does not rise above entry i
        np.less_equal(t[1:], t[:-1], out=falls[:-1])
        falls[start[1:] - 1] = False  # pairs across two rows
        bad_targets = holds(falls) | (t[start] < UNSAFE_ID) | (t[self.indptr[1:] - 1] >= num_targets)
        del falls
        lo_sum, up_sum = np.add.reduceat(lo, start), np.add.reduceat(up, start) + self.rem
        checks = [
            (bad_targets, f"targets are not increasing ids in [{UNSAFE_ID}, {num_targets})"),
            (holds(lo < 0.0) | holds(lo > 1.0) | holds(up < 0.0) | holds(up > 1.0),
             "probabilities outside [0, 1]"),
            (holds(lo > up), "lower bound exceeds upper bound"),
            (~((self.rem >= 0.0) & (self.rem <= 1.0)), "remainder outside [0, 1]"),
            ((lo_sum > 1.0 + _FEAS_TOL) | (up_sum < 1.0 - _FEAS_TOL), None),
        ]
        bad = np.flatnonzero(np.any([flags for flags, _ in checks], axis=0))
        if not bad.size:
            return None
        r = int(bad[0])
        what = next(what for flags, what in checks if flags[r])
        return self.key(r), what or f"infeasible sums (lower {lo_sum[r]}, upper with remainder {up_sum[r]})"

    def __getitem__(self, key) -> Row:
        s, a = key
        if not (0 <= s < self.first.size and 0 <= a < self.num_actions) or self.first[s] < 0:
            raise KeyError(key)
        r = int(self.first[s]) + a
        start, end = self.indptr[r], self.indptr[r + 1]
        b = slice(self.at[r], self.at[r] + end - start)
        return Row(self.col[start:end], self.lo[b], self.up[b])

    def __iter__(self):
        for s in np.flatnonzero(self.first >= 0).tolist():
            for a in range(self.num_actions):
                yield s, a

    def __len__(self) -> int:
        return self.indptr.size - 1


class _BlockKernel:
    """Extreme expectations of V over blocks of rows of `store` that name
    only the states `cols` (ascending): the dense buffer has one column per
    state of cols, in their rank order, so it is only as wide as the rows'
    reach. A block of per_block[w] states with w rows each (w is 1 or
    store.num_actions) fills about _BLOCK_CELLS cells of one dense
    (rows, cols) buffer. The scratch arrays are allocated once per solve,
    for the larger of the two, and reused by every block: the allocator
    hands large freed temporaries back to the system, so fresh ones per
    block would have their pages faulted in again each time.

    With v the values in the adversary's rank order (descending to maximize,
    ascending to minimize), dv_k = v_k - v_{k+1} (v_{S+1} = 0), C a row's
    cumsum of gaps up - lo in that order, m = min(rem, max(1 - sum(lo), 0))
    the mass moved onto the row's remainder and B = max(1 - sum(lo), 0) - m:
        maximize: m + max(B - C_S, 0) + lo.V + min(C, B) @ dv
        minimize: lo.V + B v_1 - max(B - C, 0) @ dv
    The remainder ranks first for both adversaries: to the maximizer it is
    worth 1, above every value, and to the minimizer 0, below every value.
    It needs no lower bound: an adversary that fills it first is never held
    back by one. Budget that the gaps cannot hold either (C_S < B, a row
    whose upper sum plus remainder falls short of 1 within _FEAS_TOL) is
    valued the same way: 1 to the maximizer, 0 to the minimizer. Both are
    the Abel sum of the ordering method over the row's targets plus the
    remainder, written so that every term is non-negative: small values
    keep their relative accuracy next to values near 1. Row targets must be
    distinct (each entry owns its cell)."""

    def __init__(self, store: RowStore, cols: np.ndarray):
        S = self.S = cols.size
        self.store = store
        self.per_block = {w: max(1, _BLOCK_CELLS // (S * w)) for w in {1, store.num_actions}}
        max_rows = max(n * w for w, n in self.per_block.items())
        length = np.diff(store.indptr)
        max_nnz = int(np.sort(length)[-max_rows:].sum())
        self.cells = np.empty(max_rows * S)
        self.ints = np.empty((3, max_nnz), dtype=np.int64)
        self.floats = np.empty((3, max_nnz))
        self.steps = np.arange(max(max_nnz, S))
        self.rank = np.empty(cols[-1] + 1, dtype=np.int64)  # a state's column; cols' only
        self.order = cols.copy()  # ascending by value
        self.v = np.zeros(S + 1)  # values in rank order, then v_{S+1} = 0

    def __call__(self, V: np.ndarray, rows: np.ndarray, maximize: bool) -> np.ndarray:
        store, S = self.store, self.S
        start = store.indptr[rows]
        length = store.indptr[rows + 1] - start
        ends = length.cumsum()
        offs = ends - length
        n = int(ends[-1])
        idx, col, pos = self.ints[:, :n]
        lo, gap, w = self.floats[:, :n]
        np.add((start - offs).repeat(length), self.steps[:n], out=idx)
        store.col.take(idx, out=col, mode="clip")
        np.add((store.at[rows] - offs).repeat(length), self.steps[:n], out=idx)
        store.lo.take(idx, out=lo, mode="clip")
        store.up.take(idx, out=gap, mode="clip")
        gap -= lo

        # the last block's order is nearly sorted still, so re-sorting it is cheap
        self.order = self.order[V[self.order].argsort(kind="stable")]
        order = self.order[::-1] if maximize else self.order
        self.rank[order] = self.steps[:S]
        v = self.v
        V.take(order, out=v[:S])
        dv = v[:-1] - v[1:]

        V.take(col, out=w, mode="clip")
        w *= lo
        acc = np.add.reduceat(w, offs)
        budget = np.maximum(1.0 - np.add.reduceat(lo, offs), 0.0)
        moved = np.minimum(store.rem[rows], budget)
        budget -= moved
        if maximize:
            acc += moved

        self.rank.take(col, out=pos, mode="clip")
        pos += (self.steps[: rows.size] * S).repeat(length)
        C = self.cells[: rows.size * S]
        C.fill(0.0)
        if not maximize:
            np.negative(gap, out=gap)
        C[pos] = gap
        C = C.reshape(rows.size, S)
        if maximize:
            C.cumsum(axis=1, out=C)
            np.minimum(C, budget[:, None], out=C)
            acc += budget - C[:, -1]  # what the gaps cannot hold, worth 1 like the remainder
            return acc + C @ dv
        C[:, 0] += budget
        C.cumsum(axis=1, out=C)
        np.maximum(C, 0.0, out=C)
        return acc + budget * v[0] - C @ dv


@dataclass
class ValueIterationResult:
    values: np.ndarray
    strategy: np.ndarray | None
    converged: bool
    sweeps: int  # every sweep, full or strategy
    residual: float  # largest move in the last full sweep
    full_sweeps: int  # sweeps that evaluated every row of the pass


def _groups(product):
    """Per group of product.solve_order(), in that order: a kernel over the
    product's rows whose columns are the group's states and every state its
    rows name, and the mask of the group's states; every other state is
    frozen. A group that holds every row spans every state."""
    store = product.rows
    S, A = product.num_states, store.num_actions
    if np.any(store.first[~(product.accepting | product.sink)] < 0):
        raise ValueError("every state that is neither accepting nor sink needs rows")
    for group in product.solve_order():
        inner = np.zeros(S, dtype=bool)
        inner[group] = True
        seen = inner.copy()
        if group.size * A == len(store):
            seen[:] = True
        else:
            for r in store.first[group].tolist():  # a state's rows lie side by side
                seen[store.col[store.indptr[r] : store.indptr[r + A]]] = True
        yield _BlockKernel(store, np.flatnonzero(seen)), inner


def _action_values(kernel: _BlockKernel, V: np.ndarray, states: np.ndarray, maximize: bool) -> np.ndarray:
    """The extreme expectation of V under every action row of each of
    `states`: a (states, actions) array."""
    store = kernel.store
    rows = (store.first[states][:, None] + np.arange(store.num_actions)).ravel()
    return kernel(V, rows, maximize).reshape(states.size, store.num_actions)


def _block_sweeps(
    kernel: _BlockKernel, V: np.ndarray, frozen: np.ndarray, maximize: bool, tol: float,
    max_sweeps: int, strategy=None,
) -> tuple[int, int, float, bool]:
    """Sweep V in place until a full sweep moves no state by tol; returns the
    sweeps, the full sweeps among them, the last full sweep's largest move
    and whether it fell below tol. Frozen states keep their start value; the
    others need rows in kernel.store.

    With a strategy, every sweep is full: it evaluates the one row
    strategy[s] of each state. Without one (the maximin pass), a full sweep
    takes each state's best over all its rows and records which row won;
    after a full sweep that moved some state by r, strategy sweeps evaluate
    only the recorded rows until one moves no state by max(r * _REFRESH,
    tol), and then a full sweep runs again. A strategy sweep's value is at
    most the full one's, so from below every iterate stays a lower bound of
    the fixed point. max_sweeps bounds the sweeps of both kinds together.

    Each sweep orders the live states by descending value (stable, ties by
    state index) and updates them in blocks of consecutive states: each block
    reads the values earlier blocks of the sweep wrote (Gauss-Seidel), which
    carries value back from the accepting states in far fewer sweeps than a
    Jacobi pass; the fixed point is the same."""
    store = kernel.store
    held = strategy is None
    choice = np.zeros(V.size, dtype=np.int64) if held else strategy
    sweeps = full_sweeps = 0
    residual = np.inf
    converged = False
    bar = None  # strategy sweeps run while one moves some state by bar; None: next is full
    while sweeps < max_sweeps:
        full = bar is None
        width = store.num_actions if held and full else 1
        moved = 0.0
        order = np.argsort(-V, kind="stable")
        order = order[~frozen[order]]
        for i in range(0, order.size, kernel.per_block[width]):
            states = order[i : i + kernel.per_block[width]]
            if width == 1:
                vals = kernel(V, store.first[states] + choice[states], maximize)
            else:
                vals = _action_values(kernel, V, states, maximize)
                choice[states] = vals.argmax(axis=1)
                vals = vals.max(axis=1)
            best = np.maximum(vals, 0.0)
            moved = max(moved, float(np.max(np.abs(best - V[states]))))
            V[states] = best
        sweeps += 1
        if full:
            full_sweeps += 1
            residual = moved
            if moved < tol:
                converged = True
                break
            if held:
                bar = max(moved * _REFRESH, tol)
        elif moved < bar:
            bar = None
    return sweeps, full_sweeps, residual, converged


def _solve(product, maximize: bool, tol: float, max_sweeps: int, strategy=None) -> ValueIterationResult:
    """Both passes: V starts at 1 on the accepting states and 0 elsewhere,
    and the groups of product.solve_order() are swept one after another
    (_block_sweeps, over `strategy`'s rows, or every row without one), each
    with the values of the groups before it frozen. The groups share the one
    max_sweeps budget: sweeps and full_sweeps are summed over them, residual
    is the largest group residual, and the pass converged when every group
    did.

    Without a strategy, one is extracted from each group's converged values:
    per state, the lowest-index action within tol of the best one. Values
    are only tol-accurate, so a finer choice would follow rounding noise."""
    V = product.accepting.astype(float)
    extracted = np.zeros(product.num_states, dtype=np.int64)
    result = ValueIterationResult(V, extracted if strategy is None else strategy, True, 0, 0.0, 0)
    for kernel, inner in _groups(product):
        sweeps, full_sweeps, residual, converged = _block_sweeps(
            kernel, V, ~inner, maximize, tol, max_sweeps - result.sweeps, strategy)
        result.sweeps += sweeps
        result.full_sweeps += full_sweeps
        result.residual = max(result.residual, residual)
        result.converged &= converged
        if strategy is None:
            live = np.flatnonzero(inner)
            per_block = kernel.per_block[product.rows.num_actions]
            for i in range(0, live.size, per_block):
                states = live[i : i + per_block]
                vals = _action_values(kernel, V, states, maximize)
                near_best = vals >= vals.max(axis=1, keepdims=True) - tol
                extracted[states] = np.argmax(near_best, axis=1)  # first True: lowest index
    return result


def robust_value_iteration(
    product,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
) -> ValueIterationResult:
    """Maximin reachability: the controller maximizes, the adversary inside
    the probability intervals minimizes. Returns the pessimistic values
    (lower probability bounds) and the strategy extracted from them (see
    _solve). Accepting states are fixed at 1, sink states at 0; iteration is
    monotone from below, so values never decrease. Between full sweeps the
    controller's choice is held (see _block_sweeps); the adversary is solved
    exactly in every sweep."""
    return _solve(product, maximize=False, tol=tol, max_sweeps=max_sweeps)


def evaluate_strategy_upper(
    product,
    strategy: np.ndarray,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
) -> ValueIterationResult:
    """Optimistic value of a fixed strategy: the adversary inside the
    intervals now maximizes, giving sound upper probability bounds for the
    same strategy that robust_value_iteration certified from below. Same
    group loop and sweep accounting as the maximin pass (_solve), over the
    strategy's rows only. strategy holds one action index in
    [0, num_actions) per state, of an integer dtype (not float, not bool)."""
    store = product.rows
    strategy = np.asarray(strategy)
    S = product.num_states
    if strategy.shape != (S,):
        raise ValueError(
            f"strategy has shape {strategy.shape}, need one action per state for {S} states "
            f"(first bad state {min(strategy.size, S)})"
        )
    if strategy.dtype.kind not in "iu":
        raise ValueError(f"strategy has dtype {strategy.dtype}, need integer action indices")
    strategy = strategy.astype(np.int64, copy=False)
    bad = np.flatnonzero((strategy < 0) | (strategy >= store.num_actions))
    if bad.size:
        s = int(bad[0])
        raise ValueError(
            f"strategy[{s}] = {strategy[s]} is not an action index in [0, {store.num_actions})"
        )
    return _solve(product, maximize=True, tol=tol, max_sweeps=max_sweeps, strategy=strategy)
