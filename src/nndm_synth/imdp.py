"""Interval-probability MDP core: the CSR row store, extreme adversaries and
robust value iteration.

The inner optimization (pick a feasible distribution inside the row's
probability intervals that minimizes or maximizes the expected value) is
solved exactly by the ordering method: sort targets by value, hand every
target its lower bound, then walk the sorted order raising entries to their
upper bound until the remaining mass runs out. `extreme_distribution` does
this literally for one row and is kept as the reference.

Value iteration evaluates that step for a block of rows at once, in rank
space (`_BlockKernel`): each row's gaps up - lo are scattered into a dense
(rows, states) buffer in the rank order of the current values, and a cumsum
along each row gives the mass C_k the adversary may move onto its k
preferred states. By Abel summation the row's value is
lo.V + min(C, budget) @ dv, with budget = 1 - sum(lo) and
dv_k = v_k - v_{k+1} in rank order, so there is no per-row sort and no
Python per state.

A sweep orders the live states by descending value and walks them in blocks
of about _BLOCK_CELLS buffer cells: Gauss-Seidel across blocks (each block
sees the values the previous blocks wrote), Jacobi within a block. It stops
once no state moves by tol. The maximin pass takes the max over actions; the
fixed-strategy optimistic pass runs the same sweep on the strategy's rows.
The strategy is extracted once at the converged values: in each state, the
lowest-index action whose value is within tol of the state's best, so
actions that differ only by unconverged noise do not flip on rounding.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .geometry import UNSAFE_ID
from .transitions import TransitionBoundRow

# Buffer cells (rows x states) per block of a sweep. Smaller blocks take
# fewer sweeps (closer to Gauss-Seidel) but pay numpy call overhead more
# often; 2**14 was fastest over the three benchmark workloads and keeps the
# scratch arrays small. The block size moves the sweep count and the values
# within tol, so it is fixed, not a setting.
_BLOCK_CELLS = 1 << 14


@dataclass
class Imdp:
    """Interval MDP over the grid cells. Rows are keyed by (cell id, action
    index); their targets are cell ids plus UNSAFE_ID, the virtual absorbing
    out-of-domain state."""

    actions: tuple[str, ...]
    labels: list[frozenset[str]]
    rows: dict[tuple[int, int], TransitionBoundRow]
    num_cells: int

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    def row(self, cell: int, action_idx: int) -> TransitionBoundRow:
        return self.rows[(cell, action_idx)]

    def validate(self, tol: float = 1e-8) -> None:
        """Sanity checks on every row; raises on violation."""
        if len(self.labels) != self.num_cells:
            raise ValueError("one label set per cell required")
        for (cell, a), row in self.rows.items():
            t = row.targets
            if t.size and (np.any(np.diff(t) <= 0) or t[0] < UNSAFE_ID or t[-1] >= self.num_cells):
                raise ValueError(
                    f"row ({cell}, {a}): targets are not increasing ids in [{UNSAFE_ID}, {self.num_cells})"
                )
            probs = np.r_[row.lower, row.upper]
            if np.any(probs < 0.0) or np.any(probs > 1.0):
                raise ValueError(f"row ({cell}, {a}): probabilities outside [0, 1]")
            if np.any(row.lower > row.upper):
                raise ValueError(f"row ({cell}, {a}): lower bound exceeds upper bound")
            lo_sum = float(row.lower.sum())
            up_sum = float(row.upper.sum())
            if lo_sum > 1.0 + tol or up_sum < 1.0 - tol:
                raise ValueError(f"row ({cell}, {a}): infeasible sums ({lo_sum}, {up_sum})")


class RowStore(Mapping):
    """The rows of an interval MDP over states 0..S-1 as one CSR layout.

    Row r holds entries indptr[r]:indptr[r+1] of `col` (target states,
    increasing, at least one), `lo` and `up`. Rows run in (state, action)
    order, and a state either has all num_actions rows, starting at row
    first[s], or none (first[s] = -1). As a read-only Mapping it yields
    (state, action) -> (targets, lo, up), each a view into the store.

    `sizes` gives each row's entry count in row order; the arrays are
    allocated once and filled row by row with `put`."""

    def __init__(self, first: np.ndarray, num_actions: int, sizes):
        self.first = np.asarray(first, dtype=np.int64)
        self.num_actions = num_actions
        self.indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.indptr[1:])
        if len(sizes) != np.count_nonzero(self.first >= 0) * num_actions:
            raise ValueError("need num_actions rows for every state with rows")
        if np.any(np.diff(self.indptr) < 1):
            raise ValueError("every row needs at least one entry")
        nnz = int(self.indptr[-1])
        self.col = np.empty(nnz, dtype=np.int64)
        self.lo = np.empty(nnz)
        self.up = np.empty(nnz)

    @classmethod
    def from_rows(cls, rows: Mapping, num_states: int, num_actions: int) -> "RowStore":
        """Pack a {(state, action): (targets, lo, up)} mapping."""
        keys = sorted(rows)
        first = np.full(num_states, -1, dtype=np.int64)
        states = sorted({s for s, _ in keys})
        first[states] = np.arange(len(states)) * num_actions
        if keys != [(s, a) for s in states for a in range(num_actions)]:
            raise ValueError("need num_actions rows for every state with rows")
        store = cls(first, num_actions, [len(rows[k][0]) for k in keys])
        for r, key in enumerate(keys):
            if np.any(np.diff(rows[key][0]) <= 0):
                raise ValueError(f"row {key}: targets are not increasing")
            store.put(r, *rows[key])
        return store

    def put(self, r: int, targets: np.ndarray, lo: np.ndarray, up: np.ndarray) -> None:
        sl = slice(self.indptr[r], self.indptr[r + 1])
        self.col[sl], self.lo[sl], self.up[sl] = targets, lo, up

    def _index(self, key) -> int:
        s, a = key
        if not (0 <= s < self.first.size and 0 <= a < self.num_actions) or self.first[s] < 0:
            raise KeyError(key)
        return int(self.first[s]) + a

    def __getitem__(self, key):
        r = self._index(key)
        sl = slice(self.indptr[r], self.indptr[r + 1])
        return self.col[sl], self.lo[sl], self.up[sl]

    def __iter__(self):
        for s in np.flatnonzero(self.first >= 0):
            for a in range(self.num_actions):
                yield int(s), a

    def __len__(self) -> int:
        return self.indptr.size - 1


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


class _BlockKernel:
    """Extreme expectations of V over blocks of rows of `store`: up to
    `per_block` states with `width` rows each, about _BLOCK_CELLS cells of
    one dense (rows, states) buffer. The scratch arrays are allocated once
    per solve and reused by every block: the allocator hands large freed
    temporaries back to the system, so fresh ones per block would have
    their pages faulted in again each time.

    With v the values in the adversary's rank order (descending to maximize,
    ascending to minimize), dv_k = v_k - v_{k+1} (v_{S+1} = 0), C a row's
    cumsum of gaps up - lo in that order and B = max(1 - sum(lo), 0):
        maximize: lo.V + min(C, B) @ dv
        minimize: lo.V + B v_1 - max(B - C, 0) @ dv
    Both are the Abel sum of the ordering method, written so that every
    term is non-negative: small values keep their relative accuracy next to
    values near 1. Row targets must be distinct (each entry owns its cell)."""

    def __init__(self, store: RowStore, num_states: int, width: int):
        self.store = store
        self.S = num_states
        self.width = width
        self.per_block = max(1, _BLOCK_CELLS // (num_states * width))
        max_rows = self.per_block * width
        length = np.diff(store.indptr)
        max_nnz = int(np.sort(length)[-max_rows:].sum())
        self.lo_sum = np.add.reduceat(store.lo, store.indptr[:-1])
        self.cells = np.empty(max_rows * num_states)
        self.ints = np.empty((3, max_nnz), dtype=np.int64)
        self.floats = np.empty((3, max_nnz))
        self.steps = np.arange(max(max_nnz, num_states))
        self.rank = np.empty(num_states, dtype=np.int64)
        self.order = self.steps[:num_states].copy()  # ascending by value
        self.v = np.zeros(num_states + 1)  # values in rank order, then v_{S+1} = 0

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
        budget = np.maximum(1.0 - self.lo_sum[rows], 0.0)

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
    sweeps: int
    residual: float


def _row_store(product) -> RowStore:
    """The product's row store; a plain rows mapping is packed into one."""
    rows = product.rows
    if isinstance(rows, RowStore):
        return rows
    return RowStore.from_rows(rows, product.num_states, product.num_actions)


def _block_sweeps(
    product, kernel: _BlockKernel, rows_of, maximize: bool, tol: float, max_sweeps: int
) -> ValueIterationResult:
    """Sweep V, from 1 on accepting and 0 elsewhere, until no state moves by
    tol. rows_of(states) gives kernel.width rows per state, state-major; a
    state takes the best of its rows' extreme expectations. Frozen
    (accepting or sink) states keep their value.

    Each sweep orders the live states by descending value (stable, ties by
    state index) and updates them in blocks of consecutive states: each block
    reads the values earlier blocks of the sweep wrote (Gauss-Seidel), which
    carries value back from the accepting states in far fewer sweeps than a
    Jacobi pass; the fixed point is the same."""
    V = product.accepting.astype(float)
    frozen = product.accepting | product.sink
    if np.any(kernel.store.first[~frozen] < 0):
        raise ValueError("every state that is neither accepting nor sink needs rows")
    per_block, width = kernel.per_block, kernel.width
    sweeps = 0
    residual = np.inf
    converged = False
    while sweeps < max_sweeps:
        residual = 0.0
        order = np.argsort(-V, kind="stable")
        order = order[~frozen[order]]
        for i in range(0, order.size, per_block):
            states = order[i : i + per_block]
            vals = kernel(V, rows_of(states), maximize)
            best = np.maximum(vals.reshape(states.size, width).max(axis=1), 0.0)
            residual = max(residual, float(np.max(np.abs(best - V[states]))))
            V[states] = best
        sweeps += 1
        if residual < tol:
            converged = True
            break
    return ValueIterationResult(
        values=V, strategy=None, converged=converged, sweeps=sweeps, residual=residual
    )


def robust_value_iteration(
    product,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
) -> ValueIterationResult:
    """Maximin reachability: the controller maximizes, the adversary inside
    the probability intervals minimizes. Returns the pessimistic values
    (lower probability bounds) and the strategy extracted from them.
    Accepting states are fixed at 1, sink states at 0; iteration is monotone
    from below, so values never decrease.

    Extraction evaluates every action once at the converged values and picks,
    per state, the lowest-index action within tol of the best one: values
    are only tol-accurate, so a finer choice would follow rounding noise."""
    store = _row_store(product)
    A = store.num_actions
    steps = np.arange(A)

    def all_rows(states):
        return (store.first[states][:, None] + steps).ravel()

    kernel = _BlockKernel(store, product.num_states, A)
    result = _block_sweeps(product, kernel, all_rows, False, tol, max_sweeps)
    V = result.values

    strategy = np.zeros(product.num_states, dtype=np.int64)
    live = np.flatnonzero(~(product.accepting | product.sink))
    for i in range(0, live.size, kernel.per_block):
        states = live[i : i + kernel.per_block]
        vals = kernel(V, all_rows(states), False).reshape(states.size, A)
        near_best = vals >= vals.max(axis=1, keepdims=True) - tol
        strategy[states] = np.argmax(near_best, axis=1)  # first True: lowest index
    result.strategy = strategy
    return result


def evaluate_strategy_upper(
    product,
    strategy: np.ndarray,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
) -> ValueIterationResult:
    """Optimistic value of a fixed strategy: the adversary inside the
    intervals now maximizes, giving sound upper probability bounds for the
    same strategy that robust_value_iteration certified from below. Same
    blocked sweep as the maximin pass, over the strategy's rows only."""
    store = _row_store(product)
    strategy = np.asarray(strategy, dtype=np.int64)
    result = _block_sweeps(
        product,
        _BlockKernel(store, product.num_states, 1),
        lambda states: store.first[states] + strategy[states],
        True,
        tol,
        max_sweeps,
    )
    result.strategy = strategy
    return result
