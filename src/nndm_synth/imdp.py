"""Interval-probability MDP core: extreme adversaries and robust value
iteration.

The inner optimization (pick a feasible distribution inside the row's
probability intervals that minimizes or maximizes the expected value) is
solved exactly by the ordering method: sort targets by value, hand every
target its lower bound, then walk the sorted order raising entries to their
upper bound until the remaining mass runs out. Value iteration wraps that
inner step with a max over actions (pessimistic synthesis) or a fixed
strategy (optimistic evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transitions import TransitionBoundRow


@dataclass
class Imdp:
    """Interval MDP over the grid cells. Rows are keyed by (cell id, action
    index); the virtual out-of-domain state is absorbing and carries its mass
    in each row's unsafe fields rather than a cell id."""

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
            if t.size and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] >= self.num_cells):
                raise ValueError(f"row ({cell}, {a}): targets are not increasing cell ids")
            probs = np.r_[row.lower, row.upper, row.unsafe_lower, row.unsafe_upper]
            if np.any(probs < 0.0) or np.any(probs > 1.0):
                raise ValueError(f"row ({cell}, {a}): probabilities outside [0, 1]")
            if np.any(row.lower > row.upper) or row.unsafe_lower > row.unsafe_upper:
                raise ValueError(f"row ({cell}, {a}): lower bound exceeds upper bound")
            lo_sum = float(row.lower.sum()) + row.unsafe_lower
            up_sum = float(row.upper.sum()) + row.unsafe_upper
            if lo_sum > 1.0 + tol or up_sum < 1.0 - tol:
                raise ValueError(f"row ({cell}, {a}): infeasible sums ({lo_sum}, {up_sum})")


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


def extreme_expectation(
    lower: np.ndarray,
    upper: np.ndarray,
    values: np.ndarray,
    maximize: bool = False,
) -> float:
    """Exact worst-case (or best-case) expectation over the interval row."""
    gamma = extreme_distribution(lower, upper, values, maximize)
    return float(gamma @ np.asarray(values, dtype=float))


def _row_extreme(vals: np.ndarray, lo: np.ndarray, up: np.ndarray, lo_sum: float, maximize: bool) -> float:
    # hot path of value iteration: no validation, no gamma materialization
    order = np.argsort(-vals if maximize else vals, kind="stable")
    acc = float(lo @ vals)
    budget = 1.0 - lo_sum
    if budget <= 0.0:
        return acc
    gaps = (up - lo)[order]
    cum = np.cumsum(gaps)
    k = int(np.searchsorted(cum, budget))
    sv = vals[order]
    if k > 0:
        acc += float(gaps[:k] @ sv[:k])
        budget -= float(cum[k - 1])
    if k < len(order):
        acc += budget * float(sv[k])
    return acc


@dataclass
class ValueIterationResult:
    values: np.ndarray
    strategy: np.ndarray | None
    converged: bool
    sweeps: int
    residual: float


def _sweep_rows(product):
    """Materialize per-state row lists once; rows of frozen states are None."""
    frozen = product.accepting | product.sink
    rows = []
    for s in range(product.num_states):
        if frozen[s]:
            rows.append(None)
            continue
        per_action = []
        for a in range(product.num_actions):
            targets, lo, up = product.row(s, a)
            per_action.append((targets, lo, up, float(lo.sum())))
        rows.append(per_action)
    return rows


def _gauss_seidel(
    V: np.ndarray,
    rows: list,
    maximize: bool,
    tol: float,
    max_sweeps: int,
) -> ValueIterationResult:
    """Sweep V in place until no state moves by tol. Each state takes the
    best over its row list of the adversary's extreme expectation (the
    adversary maximizes if `maximize`, else minimizes); frozen states
    (rows None) keep their value.

    Sweeps are Gauss-Seidel in descending value order (deterministic: stable
    sort, ties by state index), which propagates value backward from the
    accepting states in far fewer sweeps than a Jacobi pass; the fixed point
    is the same."""
    sweeps = 0
    residual = np.inf
    converged = False
    while sweeps < max_sweeps:
        residual = 0.0
        for s in np.argsort(-V, kind="stable"):
            per_action = rows[s]
            if per_action is None:
                continue
            best = 0.0
            for targets, lo, up, lo_sum in per_action:
                val = _row_extreme(V[targets], lo, up, lo_sum, maximize)
                if val > best:
                    best = val
            residual = max(residual, abs(best - V[s]))
            V[s] = best
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
    (lower probability bounds) and the greedy strategy extracted from the
    converged values. Accepting states are fixed at 1, sink states at 0;
    iteration is monotone from below, so values never decrease."""
    rows = _sweep_rows(product)
    result = _gauss_seidel(product.accepting.astype(float), rows, False, tol, max_sweeps)
    V = result.values

    strategy = np.zeros(product.num_states, dtype=np.int64)
    for s in range(product.num_states):
        per_action = rows[s]
        if per_action is None:
            continue
        action_vals = np.array(
            [_row_extreme(V[t], lo, up, ls, maximize=False) for t, lo, up, ls in per_action]
        )
        strategy[s] = int(np.argmax(action_vals))  # first max: lowest action index
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
    Gauss-Seidel sweep as the maximin pass, over the strategy's rows only."""
    rows = [
        None if per_action is None else [per_action[int(strategy[s])]]
        for s, per_action in enumerate(_sweep_rows(product))
    ]
    result = _gauss_seidel(product.accepting.astype(float), rows, True, tol, max_sweeps)
    result.strategy = strategy
    return result
