"""Interval-probability MDP core: the CSR row store, extreme adversaries and
robust value iteration. The product's store reads the abstraction's entries
in place and renames their targets through one table of product ids.
The rule of a sound row is written once, as RowStore.first_violation.

The inner optimization (pick a feasible distribution inside the row's
probability intervals that minimizes or maximizes the expected value) is
solved exactly by the ordering method: sort targets by value, hand every
target its lower bound, then walk the sorted order raising entries to their
upper bound until the remaining mass runs out. The tests keep the literal
one-row version as the reference (`extreme_distribution` in
tests/oracles.py).

Value iteration takes that step for a block of rows at once, in rank
space (`_BlockKernel.distributions`): each row's gaps up - lo are scattered
into a dense (rows, states) buffer in the rank order of the current values,
and a cumsum along each row, clipped at the row's budget 1 - sum(lo), gives
the mass the adversary moves onto its k preferred states. The steps of that
cumsum plus the lower bounds are the row's extreme distribution, and its
value is that distribution times the values in rank order, so there is no
per-row sort and no Python per state. A row's remainder (the upper mass of
the targets pruned from it) is filled first by either adversary: the
minimizer sends it to value 0 and the maximizer to value 1.

Both passes evaluate a fixed strategy exactly, as one dense linear system
per adversary (game strategy iteration: Hoffman & Karp 1966; for interval
MDPs Givan, Leach & Dean 2000). The chain that the rows' extreme
distributions at V make is solved with np.linalg.solve, the adversary is
picked again at the new values, and so on until no row gains. The
minimizer first zeroes the states it can trap under the strategy (_traps,
a greatest fixpoint) and then descends from above; the maximizer climbs
from below and solves only the states that reach mass of positive value.
The upper pass is this evaluation of the emitted strategy against the
maximizer, whose first pick may rank the states by given values (the
maximin pass's, in synthesis) instead of V = 0: any pick is solved from
below, so the ranking only saves solves.

The maximin pass is strategy iteration for the controller too (Howard
1960). An improvement step values every action row of every live state at
V, in blocks of about _BLOCK_CELLS buffer cells (Jacobi: V is only read),
and gives the Bellman residual max(best - V). The pass stops once that
falls below tol; otherwise a state's held action switches to its best one
where that gains more than _GAIN, and the held strategy is evaluated
exactly against the minimizer. V changes only there, so every stopping
point is the exact pessimistic value of the held strategy (or the initial
values, below it), a sound lower bound, and the pass emits that strategy:
tol picks no action. The held strategy starts at action 0, or at a given
start strategy (the last refinement round's, in synthesis), evaluated
first: strategy iteration reaches the same fixed point from any start, and
the start seeds only the strategy, never V.

Both passes run through one driver (_solve), group by group, in the order
of the product's solve_order(): one group per SCC of the live states' DFA
states, each solved after the groups its rows name, whose values it reads
as frozen.
A group's kernel spans only its own states and the states its rows name,
so the dense buffer is as wide as the group's reach, not the product, and
nothing is copied: the kernel ranks the product's ids, and reads each
entry's through the store's rename table (RowStore.renaming). A group
that holds every row (a DFA with one live state) spans every state, as a
kernel over the whole product does. A group's chain is one dense
(states, states) matrix, built in blocks of rows, with numpy alone: the
package imports no scipy module, and scipy's linalg and sparse modules
would add several MiB to the process. The groups share one sweep budget, and a pass's sweep counts are
summed over them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import UNSAFE_ID

# Buffer cells (rows x states) per block of rows the kernel takes at once.
# Smaller blocks pay numpy call overhead more often, larger ones fault in
# more scratch pages; 2**14 was fastest over the three benchmark workloads
# and keeps the scratch arrays small.
_BLOCK_CELLS = 1 << 14

# An improvement step of the maximin pass switches a state's held action
# only to one that beats it by more than _GAIN: on a tie, a switch could
# move the strategy onto a row that keeps the mass away from the goal.
_GAIN = 1e-12

# An exact evaluation replaces the adversary's distribution of a row only
# where the new one's one-step value beats the held one's by more than
# _ADVERSARY_GAIN, and stops when no row does. Near-ties can sit just above
# it: on vehicle3d_certify (seed 7), the maximin pass's second evaluation runs
# 11 picks and 10 chain solves, and its last 6 picks that replace rows each
# replace 1-7 of 600, on one-step gains of 1.00e-14 to 1.16e-14, at about
# 10 ms per pick and 10 ms per solve. A larger value would stop such an
# evaluation sooner, but the minimizer's last solve bounds its value from
# above, so p_lower could then exceed the strategy's value by more, and
# nothing yet checks p_lower afterwards.
_ADVERSARY_GAIN = 1e-14

# A row that would have to move less than _SLACK of its mass off a set of
# states counts as kept on it (_traps): that is rounding in its sums, and a
# chain that leaked only that much could not be solved to any accuracy.
_SLACK = 1e-12

_FEAS_TOL = 1e-8  # slack of the row-sum rule (RowStore.first_violation)

# Entries per block of whole rows that RowStore.first_violation checks at
# once: its masks and the float64 copies of the bounds it sums stay under
# 1 MiB whatever the store's size.
_CHECK_BLOCK = 1 << 16


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
    """One row of a RowStore: its bounds are views into the store, and so
    are its targets where the store renames none (the abstraction's); a
    product row's targets are a new array of product ids."""

    targets: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


class RowStore(Mapping):
    """The rows of an interval MDP over states 0..S-1 as one CSR layout, from
    the abstraction (states are cells, targets cell ids plus UNSAFE_ID) to the
    product (states are product ids).

    Row r has indptr[r+1] - indptr[r] entries (at least one), read from at[r]
    on in `col`, `lo` and `up`: its own in the abstraction (at = indptr[:-1],
    col holds distinct targets, increasing), the abstraction's in the
    product, in base order. Entry k's target is col[at[r] + k], or, in a
    store with a rename table, names[shift[r] + col[at[r] + k]]: the
    product holds no array per entry, and its names[shift[r] + q], with
    shift[r] = d * (num_cells + 1) + 1 for a row of DFA state d, is the id
    of the product state that base target q leads to. rem[r] is the row's
    remainder: the upper mass, at most 1, of the targets pruned from it,
    which no entry holds. It has no lower bound and no target id. Rows run
    in (state, action) order; a state has all num_actions rows, from row
    first[s] on, side by side from at[first[s]] on, or none
    (first[s] = -1). As a read-only Mapping it yields (state, action) -> Row,
    with the renamed targets. The constructor takes each row's entry count,
    in row order, the entries' col, lo, up, each row's remainder (default
    0), and for a renamed store names and shift.

    The built stores are narrow: col is int32 and lo and up are float32,
    rounded outward from the kernel's float64 (transitions.transition_rows),
    12 bytes per entry; rem is float64. Readers widen the bounds as they
    read them, so every sum and every kernel step is float64. A store of
    wider arrays (tests pack float64 rows) reads the same way."""

    def __init__(self, first, num_actions: int, sizes, col, lo, up, at=None, rem=None,
                 names=None, shift=None):
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
        self.names, self.shift = names, shift

    def key(self, r: int) -> tuple[int, int]:
        """The (state, action) of row r, counted over the states with rows."""
        A = self.num_actions
        return int(np.flatnonzero(self.first >= 0)[r // A]), r % A

    def renaming(self) -> tuple[np.ndarray, np.ndarray]:
        """(names, shift): entry k of row r names target
        names[shift[r] + col[at[r] + k]]. A store that renames nothing gets
        the identity over its targets, which must then be ids >= 0."""
        if self.names is not None:
            return self.names, self.shift
        return np.arange(int(self.col.max(initial=0)) + 1), np.zeros(len(self), dtype=np.int64)

    def first_violation(self, num_targets: int):
        """The rule of a sound row, in this order, on a store whose rows own
        their entries (an abstraction's: at = indptr[:-1], no rename table):
        targets are increasing ids in [UNSAFE_ID, num_targets), bounds lie in
        [0, 1], lower <= upper, the remainder lies in [0, 1], and lower sums
        to at most 1 + _FEAS_TOL and upper plus the remainder to at least
        1 - _FEAS_TOL. Returns the first bad row's (state, action) and the
        first rule it breaks, or None; any other store is a ValueError.

        The rows are checked in blocks of whole rows of at most
        _CHECK_BLOCK entries (a row longer than that is a block of its own),
        so every mask and every widened copy of the bounds is block-sized."""
        if self.names is not None or not np.array_equal(self.at, self.indptr[:-1]):
            raise ValueError("the row rule reads only a store whose rows own their entries")

        def holds(mask: np.ndarray) -> np.ndarray:  # per row: is one of its entries flagged?
            return np.logical_or.reduceat(mask, start)

        indptr, r1 = self.indptr, 0
        while r1 < len(self):
            r0 = r1
            r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + _CHECK_BLOCK, side="right")) - 1)
            e0, e1 = indptr[r0], indptr[r1]
            t, lo, up, rem = self.col[e0:e1], self.lo[e0:e1], self.up[e0:e1], self.rem[r0:r1]
            start, end = indptr[r0:r1] - e0, indptr[r0 + 1 : r1 + 1] - e0
            falls = np.zeros(t.size, dtype=bool)  # entry i + 1 does not rise above entry i
            np.less_equal(t[1:], t[:-1], out=falls[:-1])
            falls[start[1:] - 1] = False  # pairs across two rows
            bad_targets = holds(falls) | (t[start] < UNSAFE_ID) | (t[end - 1] >= num_targets)
            del falls
            # summed in float64: a float32 running sum over a thousand entries
            # drifts by about 1e-7, ten times _FEAS_TOL (reduceat widens a
            # copy of the block's bounds)
            lo_sum = np.add.reduceat(lo, start, dtype=float)
            up_sum = np.add.reduceat(up, start, dtype=float) + rem
            checks = [
                (bad_targets, f"targets are not increasing ids in [{UNSAFE_ID}, {num_targets})"),
                (holds(lo < 0.0) | holds(lo > 1.0) | holds(up < 0.0) | holds(up > 1.0),
                 "probabilities outside [0, 1]"),
                (holds(lo > up), "lower bound exceeds upper bound"),
                (~((rem >= 0.0) & (rem <= 1.0)), "remainder outside [0, 1]"),
                ((lo_sum > 1.0 + _FEAS_TOL) | (up_sum < 1.0 - _FEAS_TOL), None),
            ]
            bad = np.flatnonzero(np.any([flags for flags, _ in checks], axis=0))
            if bad.size:
                r = int(bad[0])
                what = next(what for flags, what in checks if flags[r])
                return self.key(r0 + r), what or f"infeasible sums (lower {lo_sum[r]}, upper with remainder {up_sum[r]})"
        return None

    def __getitem__(self, key) -> Row:
        s, a = key
        r = int(self.first[s]) if 0 <= s < self.first.size and 0 <= a < self.num_actions else -1
        if r < 0:
            raise KeyError(key)
        r += a
        at = int(self.at[r])
        b = slice(at, at + int(self.indptr[r + 1] - self.indptr[r]))
        targets = self.col[b] if self.names is None else self.names[self.shift[r] + self.col[b]]
        return Row(targets, self.lo[b], self.up[b])

    def __iter__(self):
        for s in np.flatnonzero(self.first >= 0).tolist():
            for a in range(self.num_actions):
                yield s, a

    def __len__(self) -> int:
        return self.indptr.size - 1


class _BlockKernel:
    """Extreme distributions over blocks of rows of `store` that name only
    the states `cols` (ascending): the dense buffer has one column per state
    of cols, in their rank order, so it is only as wide as the rows' reach.
    A block of per_block[w] states with w rows each (w is 1 or
    store.num_actions) fills about _BLOCK_CELLS cells of one dense
    (rows, cols) buffer. The scratch arrays are allocated once per solve,
    for the larger of the two, and reused by every block: the allocator
    hands large freed temporaries back to the system, so fresh ones per
    block would have their pages faulted in again each time.

    The adversary ranks the states by value (descending to maximize,
    ascending to minimize) and fills its preferred ones first. With C a
    row's cumsum of gaps up - lo in that order and B = max(1 - sum(lo), 0)
    - m the budget left for the gaps once m = min(rem, max(1 - sum(lo), 0))
    went to the remainder, the mass moved onto the state of rank k is
    C_k - C_{k-1} with C = min(C, B) to maximize, R_{k-1} - R_k with
    R = max(B - C, 0) and R_{-1} = B to minimize. The remainder ranks first for both adversaries:
    to the maximizer it is worth 1, above every value, and to the minimizer
    0, below every value. It needs no lower bound: an adversary that fills
    it first is never held back by one. Budget that the gaps cannot hold
    either (C_S < B, a row whose upper sum plus remainder falls short of 1
    within _FEAS_TOL) is valued the same way: 1 to the maximizer, 0 to the
    minimizer. Row targets must be distinct (each entry owns its cell).

    An entry's slot is shift[r] + col, and its target names[slot]
    (RowStore.renaming). distributions composes the rank with names once
    per block of rows, so an entry's column costs one take and one add, as
    if the store held product ids."""

    def __init__(self, store: RowStore, cols: np.ndarray):
        S = self.S = cols.size
        self.store = store
        self.per_block = {w: max(1, _BLOCK_CELLS // (S * w)) for w in {1, store.num_actions}}
        max_rows = max(n * w for w, n in self.per_block.items())
        length = np.diff(store.indptr)
        max_nnz = int(np.sort(length)[-max_rows:].sum())
        names, self.shift = store.renaming()
        self.names = names.astype(np.int64)  # a take widens int32 indices on every call
        self.cells = np.empty(max_rows * S)
        self.ints = np.empty((2, max_nnz), dtype=np.int64)
        self.col = np.empty(max_nnz, dtype=store.col.dtype)  # the built stores' is int32
        self.floats = np.empty((2, max_nnz))
        self.narrow = np.empty(max_nnz, dtype=store.lo.dtype)  # the stored bounds, before widening
        self.steps = np.arange(max(max_nnz, S))
        self.rank = np.empty(cols[-1] + 1, dtype=np.int64)  # a state's column; cols' only
        self.named = np.empty(self.names.size, dtype=np.int64)  # the column of a slot's target
        self.order = cols.copy()  # ascending by value
        self.maximize = None  # the side self.rank and self.named were ranked for
        self.v = np.zeros(S)  # values in rank order

    def gather(self, rows: np.ndarray):
        """The rows' entries, row after row, as views into the scratch
        arrays: slots (int64; an entry's target is names[slot]), lower
        bounds, gaps up - lo, and each row's offset into them and entry
        count. Each row's col, lo and up are read in place from
        store.at[row] on, the bounds taken into a scratch of the store's
        dtype and widened into the float64 ones."""
        store = self.store
        length = store.indptr[rows + 1] - store.indptr[rows]
        ends = length.cumsum()
        offs = ends - length
        n = int(ends[-1])
        idx, col = self.ints[0, :n], self.col[:n]
        lo, gap = self.floats[:, :n]
        np.add((store.at[rows] - offs).repeat(length), self.steps[:n], out=idx)
        store.col.take(idx, out=col, mode="clip")
        narrow = self.narrow[:n]
        store.lo.take(idx, out=narrow, mode="clip")
        lo[...] = narrow
        store.up.take(idx, out=narrow, mode="clip")
        gap[...] = narrow
        gap -= lo
        slot = np.add(col, self.shift[rows].repeat(length), out=idx)  # idx is spent
        return slot, lo, gap, offs, length

    def distributions(self, V: np.ndarray, rows: np.ndarray, maximize: bool):
        """The adversary's extreme distribution of each row at V, and the
        mass of each row worth 1: the remainder and the budget the gaps
        cannot hold to the maximizer, none to the minimizer (it values both
        at 0). The distributions are a (rows, S) view of the dense buffer,
        column k the mass on the state of rank k (self.rank, whose values
        are self.v): the entry's lower bound plus what the adversary moves
        there. A row's value at V is its distribution @ self.v + its mass
        worth 1."""
        S = self.S
        slot, lo, gap, offs, length = self.gather(rows)
        pos = self.ints[1, : slot.size]

        # the last block's order is nearly sorted still, so re-sorting it is
        # cheap; the blocks of one pass share V, so mostly it stands, and so
        # do the rank and its composition with names (a slot no row of cols
        # reads gets a clipped, unused column)
        order = self.order[V[self.order].argsort(kind="stable")]
        if maximize != self.maximize or not np.array_equal(order, self.order):
            self.order, self.maximize = order, maximize
            self.rank[order[::-1] if maximize else order] = self.steps[:S]
            self.rank.take(self.names, out=self.named, mode="clip")
        V.take(order[::-1] if maximize else order, out=self.v)

        budget = np.maximum(1.0 - np.add.reduceat(lo, offs), 0.0)
        moved = np.minimum(self.store.rem[rows], budget)
        budget -= moved

        self.named.take(slot, out=pos, mode="clip")
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
            worth_one = moved + budget - C[:, -1]
            np.subtract(C[:, 1:], C[:, :-1], out=C[:, 1:])
        else:
            C[:, 0] += budget
            C.cumsum(axis=1, out=C)
            np.maximum(C, 0.0, out=C)
            worth_one = np.zeros(rows.size)
            np.subtract(C[:, :-1], C[:, 1:], out=C[:, 1:])
            C[:, 0] = budget - C[:, 0]
        self.cells[pos] += lo
        return C, worth_one


@dataclass
class ValueIterationResult:
    values: np.ndarray
    strategy: np.ndarray | None
    converged: bool
    sweeps: int  # maximin: improvement steps plus evaluations of the held strategy; upper: chain solves
    residual: float  # Bellman residual at `values`: maximin max(best - V), upper max |one-step - V|
    full_sweeps: int  # maximin: improvement steps, each valuing every row; upper: chain solves


def _groups(product):
    """Per group of product.solve_order(), in that order: a kernel over the
    product's rows whose columns are the group's states and every state its
    rows name, and the mask of the group's states; every other state is
    frozen. A group that holds every row spans every state."""
    store = product.rows
    S, A = product.num_states, store.num_actions
    if np.any(store.first[~(product.accepting | product.sink)] < 0):
        raise ValueError("every state that is neither accepting nor sink needs rows")
    names, shift = store.renaming()
    for group in product.solve_order():
        inner = np.zeros(S, dtype=bool)
        inner[group] = True
        seen = inner.copy()
        if group.size * A == len(store):
            seen[:] = True
        else:
            read = np.zeros(names.size, dtype=bool)  # the slots the group's rows read
            for r in store.first[group].tolist():  # a state's A rows lie side by side
                read[shift[r] + store.col[store.at[r] : store.at[r] + store.indptr[r + A] - store.indptr[r]]] = True
            seen[names[read]] = True
        yield _BlockKernel(store, np.flatnonzero(seen)), inner


def _improve(kernel: _BlockKernel, V: np.ndarray, states: np.ndarray, held: np.ndarray):
    """One improvement step of the maximin pass: values every action row of
    `states` at V against the minimizer, a block of kernel.per_block[A]
    states at a time (Jacobi: V is only read). The held action held[i] of
    states[i] switches to the best action only where that beats it by more
    than _GAIN: a tie never moves the strategy onto a row that keeps the
    mass away from the goal, whose exact evaluation would lower V.

    Returns the Bellman residual max(best - V), at least 0, whether a held
    action switched, and the improved strategy as a new array."""
    store, A = kernel.store, kernel.store.num_actions
    improved = held.copy()
    residual, switched = 0.0, False
    for i in range(0, states.size, kernel.per_block[A]):
        block = slice(i, i + kernel.per_block[A])
        rows = (store.first[states[block], None] + np.arange(A)).ravel()
        D, worth_one = kernel.distributions(V, rows, maximize=False)
        vals = (D @ kernel.v + worth_one).reshape(-1, A)  # (states, actions)
        best = vals.max(axis=1)
        residual = max(residual, float(np.max(best - V[states[block]])))
        gains = best > vals[np.arange(vals.shape[0]), held[block]] + _GAIN
        switched |= bool(gains.any())
        improved[block] = np.where(gains, vals.argmax(axis=1), held[block])
    return residual, switched, improved


def _traps(kernel: _BlockKernel, V: np.ndarray, states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The largest set Z of `states` on which the minimizing adversary can
    keep all mass forever, as a mask over states: every row of Z (rows[i]
    is the row of states[i]) can put all its mass on Z, on frozen states of
    value 0, on its remainder and on the budget its gaps cannot hold, all of
    which the minimizer values at 0. Z's value against the minimizer is 0,
    and off Z every chain the minimizer picks leaks to a frozen state of
    positive value, so its equations have one solution. A row that would
    have to move less than _SLACK off the set counts as kept: that is
    rounding in its sums.

    Greatest fixpoint: start from all of `states`, drop the rows that leak,
    in blocks by descending value (each block sees the drops before it),
    until a pass drops none."""
    kept = V == 0.0
    kept[states] = True
    per_block = kernel.per_block[1]
    order = np.argsort(-V[states], kind="stable")
    dropped = True
    while dropped:
        dropped = False
        for i in range(0, order.size, per_block):
            block = order[i : i + per_block]
            block = block[kept[states[block]]]
            if not block.size:
                continue
            slot, lo, gap, offs, _ = kernel.gather(rows[block])
            off = ~kept[kernel.names][slot]
            budget = np.maximum(1.0 - np.add.reduceat(lo, offs), 0.0)
            budget -= np.minimum(kernel.store.rem[rows[block]], budget)
            leak_lo = np.add.reduceat(np.where(off, lo, 0.0), offs)
            leak_gap = np.add.reduceat(np.where(off, gap, 0.0), offs)
            kept_gap = np.add.reduceat(np.where(off, 0.0, gap), offs)
            leaks = (leak_lo > 0.0) | ((leak_gap > 0.0) & (kept_gap < budget - _SLACK))
            if leaks.any():
                kept[states[block[leaks]]] = False
                dropped = True
    return kept[states]


def _pick(kernel, V, states, rows, live, maximize, A, b, scratch, first) -> tuple[int, float]:
    """Picks the adversary's extreme distribution of each row of `live`
    (indices into states; rows[i] is the row of states[i]) at V, and writes
    it into A = I - P and b, the chain's equations over states: P its
    mass on states, b its expectation of the frozen values plus its mass
    worth 1. On the first call every row is written. After that V[states]
    solves the held chain, so V is each held row's one-step value, and a
    row is replaced only where the new distribution's one-step value beats
    V by more than _ADVERSARY_GAIN: chain values move one way, and a tie
    never moves the adversary (onto a closed class of the maximizer's
    chain, say, whose solve would drop to 0). Rows are built in blocks of
    kernel.per_block[1] into scratch. Returns the rows replaced and the
    largest |one-step value - V| over live (the Bellman residual)."""
    n = states.size
    Vs = V[states]
    replaced, residual = 0, 0.0
    per_block = kernel.per_block[1]
    for i in range(0, live.size, per_block):
        block = live[i : i + per_block]
        D, worth_one = kernel.distributions(V, rows[block], maximize)
        new = D @ kernel.v + worth_one
        residual = max(residual, float(np.max(np.abs(new - Vs[block]))))
        if not first:
            better = new > Vs[block] + _ADVERSARY_GAIN if maximize else new < Vs[block] - _ADVERSARY_GAIN
            if not better.any():
                continue
            D, worth_one, block = D[better], worth_one[better], block[better]
        cols = kernel.rank[states]
        frozen = kernel.v.copy()
        frozen[cols] = 0.0
        P = scratch[: block.size * n].reshape(block.size, n)
        D.take(cols, axis=1, out=P)
        A[block] = np.negative(P, out=P)
        A[block, block] += 1.0
        b[block] = D @ frozen + worth_one
        replaced += block.size
    return replaced, residual


def _solve_chain(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The chain's reachability values, A v = b with A = I - P, over the
    states whose support reaches mass of positive value (b > 0); the others
    never do and get 0, as their rows become identity rows."""
    reach = b > 0.0
    while True:  # A's off-diagonal entries are -P: negative into reach
        wider = reach | (A @ reach < 0.0)
        if np.array_equal(wider, reach):
            break
        reach = wider
    never = np.flatnonzero(~reach)
    A[never] = 0.0
    A[never, never] = 1.0
    b[never] = 0.0
    return np.clip(np.linalg.solve(A, b), 0.0, 1.0)


def _evaluate(
    kernel: _BlockKernel, V: np.ndarray, states: np.ndarray, rows: np.ndarray, maximize: bool,
    max_solves: float = np.inf, rank: np.ndarray | None = None,
) -> tuple[int, float, bool]:
    """The strategy's exact value against the minimizing (or maximizing)
    adversary, written into V[states]: rows[i] is the strategy's row of
    states[i], and every other state is frozen. Returns the chain solves,
    the last Bellman residual and whether the adversary settled. With
    `rank` (values over all states) and a solve to follow, the first pick
    ranks `states` by rank[states] instead of V[states]; frozen states keep
    V. Only that pick reads it: whatever chain it makes, its solve bounds
    the value from the same side as any other, so rank moves no fixed
    point and never floors V. It saves solves where it orders the states
    as their values do.

    Strategy iteration for the adversary (Hoffman & Karp 1966): pick its
    extreme distributions at V (_pick), solve that chain exactly
    (_solve_chain), and pick again at the new V, until no row's one-step
    value moves by more than _ADVERSARY_GAIN. The minimizer first zeroes the
    states it can trap (_traps) and then descends from above: every chain it
    picks leaks off them, so each solve bounds the value from above and
    only the last one is the value. The maximizer climbs from below, and its
    chains are solved only where they reach mass of positive value, the
    least solution: every solve bounds the value from below, so a pass cut
    at max_solves stays below it. Neither side lets rounding undo a rise: V
    never ends below its value on entry, nor a maximizer's solve below the
    one before."""
    n = states.size
    entry = V[states]
    A, b = np.zeros((n, n)), np.zeros(n)  # I - P and b of the held chain
    live = np.arange(n)
    if not maximize:
        trapped = _traps(kernel, V, states, rows)
        V[states[trapped]] = 0.0
        A[trapped, trapped] = 1.0  # identity rows
        live = np.flatnonzero(~trapped)
    scratch = np.empty(min(kernel.per_block[1], n) * n)
    at = V
    if rank is not None and max_solves > 0:
        at = V.copy()
        at[states] = rank[states]
    solves, settled = 0, False
    while True:
        replaced, residual = _pick(kernel, at, states, rows, live, maximize, A, b, scratch, not solves)
        if solves and not replaced:
            settled = True
            break
        if solves >= max_solves:
            break
        v = _solve_chain(A, b)
        V[states] = np.maximum(v, V[states]) if maximize else v
        solves, at = solves + 1, V
    if not maximize:
        V[states] = np.maximum(V[states], entry)
    return solves, residual, settled


def _maximin(
    kernel: _BlockKernel, V: np.ndarray, states: np.ndarray, tol: float, max_sweeps: int,
    start: np.ndarray | None = None,
):
    """The maximin pass over one group, strategy iteration for the
    controller (Howard 1960): an improvement step (_improve) switches the
    held strategy at V, and its exact value against the minimizer
    (_evaluate) becomes V, until an improvement step's Bellman residual
    falls below tol or one after an evaluation switches nothing (no action
    then beats the held strategy's value by more than _GAIN). V changes
    only in an evaluation, and a switch on a gain never lowers the held
    strategy's value, so every stopping point is a sound lower bound.

    The held strategy starts at action 0, or at `start` (one action per
    state of `states`), which is then evaluated first, as one sweep, when
    the budget allows one. Any start reaches the same fixed point, and its
    evaluation is an exact pessimistic value like any other; a good start
    saves steps.

    Returns the sweeps (improvement steps plus evaluations, each counted
    once), the improvement steps, the Bellman residual at the returned V,
    whether the pass converged, and the held strategy that V evaluates (a
    step's switches are dropped if the pass stops after it). A pass whose
    budget runs out after an evaluation takes one more improvement step,
    not counted, for its residual."""
    held = np.zeros(states.size, dtype=np.int64) if start is None else start.copy()
    sweeps = steps = 0
    evaluated = start is not None and max_sweeps > 0
    if evaluated:
        _evaluate(kernel, V, states, kernel.store.first[states] + held, maximize=False)
        sweeps += 1
    while True:
        residual, switched, improved = _improve(kernel, V, states, held)
        if sweeps >= max_sweeps:
            return sweeps, steps, residual, False, held
        sweeps, steps = sweeps + 1, steps + 1
        converged = residual < tol or (evaluated and not switched)
        if converged or sweeps >= max_sweeps:
            return sweeps, steps, residual, converged, held
        held = improved
        _evaluate(kernel, V, states, kernel.store.first[states] + held, maximize=False)
        sweeps, evaluated = sweeps + 1, True


def _solve(product, max_sweeps: int, tol: float = 0.0, strategy=None, start=None,
           rank=None) -> ValueIterationResult:
    """Both passes: V starts at 1 on the accepting states and 0 elsewhere,
    and the groups of product.solve_order() are solved one after another,
    each with the values of the groups before it frozen: by the maximin
    pass (_maximin from `start`, to tol) without a strategy, which also
    returns its held strategy, by the exact evaluation of `strategy` against
    the maximizer (_evaluate, its first pick ranked by `rank`) with one. start
    and rank hold one entry per state. The groups share the one max_sweeps
    budget: sweeps and full_sweeps are summed over them, residual is the
    largest group residual, and the pass converged when every group did."""
    store = product.rows
    V = product.accepting.astype(float)
    held = np.zeros(product.num_states, dtype=np.int64)
    result = ValueIterationResult(V, held if strategy is None else strategy, True, 0, 0.0, 0)
    for kernel, inner in _groups(product):
        states = np.flatnonzero(inner)
        left = max_sweeps - result.sweeps
        if strategy is None:
            sweeps, full_sweeps, residual, converged, held[states] = _maximin(
                kernel, V, states, tol, left, None if start is None else start[states])
        else:
            rows = store.first[states] + strategy[states]
            sweeps, residual, converged = _evaluate(kernel, V, states, rows, True, left, rank)
            full_sweeps = sweeps
        result.sweeps += sweeps
        result.full_sweeps += full_sweeps
        result.residual = max(result.residual, residual)
        result.converged &= converged
    return result


def _check_strategy(product, strategy, name: str) -> np.ndarray:
    """`strategy` as int64, after checking that it holds one action index in
    [0, num_actions) per product state, of an integer dtype (not float, not
    bool); a ValueError names `name` and the first bad state."""
    strategy = np.asarray(strategy)
    S, A = product.num_states, product.rows.num_actions
    if strategy.shape != (S,):
        raise ValueError(
            f"{name} has shape {strategy.shape}, need one action per state for {S} states "
            f"(first bad state {min(strategy.size, S)})"
        )
    if strategy.dtype.kind not in "iu":
        raise ValueError(f"{name} has dtype {strategy.dtype}, need integer action indices")
    strategy = strategy.astype(np.int64, copy=False)
    bad = np.flatnonzero((strategy < 0) | (strategy >= A))
    if bad.size:
        s = int(bad[0])
        raise ValueError(f"{name}[{s}] = {strategy[s]} is not an action index in [0, {A})")
    return strategy


def robust_value_iteration(
    product,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
    start: np.ndarray | None = None,
) -> ValueIterationResult:
    """Maximin reachability: the controller maximizes, the adversary inside
    the probability intervals minimizes. Returns the pessimistic values
    (lower probability bounds) and the held strategy whose exact
    pessimistic value they are. Accepting states are fixed at 1, sink
    states at 0. Strategy iteration (see _maximin): improvement steps
    switch the controller's held strategy where an action gains more than
    _GAIN, each followed by its exact evaluation, so the values never
    decrease, and the pass stops once the Bellman residual falls below
    tol; tol picks no action.

    `start`, one action index per state (checked as evaluate_strategy_upper
    checks its strategy), is the held strategy the search starts from, in
    place of action 0 everywhere: it is evaluated first and counts as one
    sweep. It seeds the strategy, never the values, so the result is as
    sound from any start, and equal to within tol."""
    if start is not None:
        start = _check_strategy(product, start, "start")
    return _solve(product, max_sweeps, tol=tol, start=start)


def evaluate_strategy_upper(
    product,
    strategy: np.ndarray,
    max_sweeps: int = 5000,
    rank: np.ndarray | None = None,
) -> ValueIterationResult:
    """Optimistic value of a fixed strategy: the adversary inside the
    intervals now maximizes, giving the upper probability bounds for the
    same strategy that robust_value_iteration certified from below. Same
    group loop as the maximin pass (_solve), over the strategy's rows only,
    solved exactly (_evaluate): each chain solve counts as a sweep and a
    full sweep, and no tolerance is needed. strategy holds one action index in
    [0, num_actions) per state, of an integer dtype (not float, not bool).

    The maximizer climbs from below. Its first pick ranks a group's states
    at V = 0 without `rank`, and by rank (one value per state, such as the
    maximin values) with it; after that it climbs as before. rank orders
    that pick only and never floors the values: any first pick ends at the
    same fixed point, and one ordered like the values needs fewer solves."""
    strategy = _check_strategy(product, strategy, "strategy")
    if rank is not None and np.shape(rank) != (product.num_states,):
        raise ValueError(f"rank has shape {np.shape(rank)}, need one value per state")
    return _solve(product, max_sweeps, strategy=strategy, rank=rank)
