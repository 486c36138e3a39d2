"""Finite-trace specifications as DFAs over region labels, plus the product
of the cell-level interval MDP with a DFA.

A run of the closed-loop system satisfies the specification once the DFA
(stepped on the label of each visited region, including the initial one)
enters an accepting state; on finite traces acceptance is locked in, so
accepting product states are absorbing. The reserved proposition "unsafe"
labels the virtual out-of-domain state.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import UNSAFE_ID
from .imdp import Imdp, RowStore

UNSAFE_PROP = "unsafe"

# totality/dead-state analysis enumerates label subsets; specs here have a
# handful of propositions, so cap the alphabet instead of being clever
_MAX_ALPHABET = 12


@dataclass(frozen=True)
class Dfa:
    """Deterministic finite automaton over sets of atomic propositions.

    Transitions match the exact label set; a per-state default covers
    anything without an explicit edge. Every state must be total (default
    present, or explicit edges for every subset of the alphabet)."""

    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    alphabet: frozenset[str]
    transitions: dict[tuple[str, frozenset[str]], str] = field(default_factory=dict)
    defaults: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate DFA state names")
        declared = set(self.states)
        if self.initial not in declared:
            raise ValueError(f"initial state {self.initial!r} not declared")
        for s in self.accepting:
            if s not in declared:
                raise ValueError(f"accepting state {s!r} not declared")
        if len(self.alphabet) > _MAX_ALPHABET:
            raise ValueError(f"alphabet too large ({len(self.alphabet)} propositions)")
        for (s, labels), t in self.transitions.items():
            if s not in declared or t not in declared:
                raise ValueError(f"transition {s!r} -> {t!r} uses undeclared states")
            if not labels <= self.alphabet:
                raise ValueError(f"transition guard {sorted(labels)} uses unknown propositions")
        for s, t in self.defaults.items():
            if s not in declared or t not in declared:
                raise ValueError(f"default {s!r} -> {t!r} uses undeclared states")
        for s in self.states:
            if s in self.defaults:
                continue
            for combo in _subsets(self.alphabet):
                if (s, combo) not in self.transitions:
                    raise ValueError(
                        f"state {s!r} has no transition for label set {sorted(combo)} and no default"
                    )

    def step(self, state: str, labels: frozenset[str] | set[str]) -> str:
        labels = frozenset(labels)
        if not labels <= self.alphabet:
            raise ValueError(f"labels {sorted(labels)} not in the DFA alphabet {sorted(self.alphabet)}")
        nxt = self.transitions.get((state, labels))
        if nxt is not None:
            return nxt
        if state in self.defaults:
            return self.defaults[state]
        raise ValueError(f"state {state!r} has no transition for {sorted(labels)}")

    def dead_states(self) -> frozenset[str]:
        """States from which no accepting state is reachable under any label
        sequence (exact, by enumerating label subsets)."""
        succ = {
            s: {self.step(s, combo) for combo in _subsets(self.alphabet)}
            for s in self.states
        }
        alive = set(self.accepting)
        changed = True
        while changed:
            changed = False
            for s in self.states:
                if s not in alive and succ[s] & alive:
                    alive.add(s)
                    changed = True
        return frozenset(set(self.states) - alive)

    def to_json(self) -> dict:
        edges = [
            {"from": s, "when": sorted(labels), "to": t}
            for (s, labels), t in sorted(
                self.transitions.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
            )
        ]
        edges += [{"from": s, "default": t} for s, t in sorted(self.defaults.items())]
        return {
            "states": list(self.states),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "ap": sorted(self.alphabet),
            "transitions": edges,
        }


def _subsets(alphabet) -> list[frozenset[str]]:
    props = sorted(alphabet)
    out = []
    for r in range(len(props) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(props, r))
    return out


def parse_dfa(raw: dict) -> Dfa:
    for key in ("states", "initial", "accepting", "ap", "transitions"):
        if key not in raw:
            raise ValueError(f"DFA document missing key {key!r}")
    transitions: dict[tuple[str, frozenset[str]], str] = {}
    defaults: dict[str, str] = {}
    for k, edge in enumerate(raw["transitions"]):
        if "from" not in edge:
            raise ValueError(f"transition {k} missing 'from'")
        src = edge["from"]
        if "default" in edge:
            if src in defaults:
                raise ValueError(f"state {src!r} has two default transitions")
            defaults[src] = edge["default"]
        elif "when" in edge and "to" in edge:
            guard = frozenset(edge["when"])
            if (src, guard) in transitions:
                raise ValueError(f"duplicate transition from {src!r} on {sorted(guard)}")
            transitions[(src, guard)] = edge["to"]
        else:
            raise ValueError(f"transition {k} needs either 'when'/'to' or 'default'")
    return Dfa(
        states=tuple(raw["states"]),
        initial=raw["initial"],
        accepting=frozenset(raw["accepting"]),
        alphabet=frozenset(raw["ap"]),
        transitions=transitions,
        defaults=defaults,
    )


def load_dfa(path: str) -> Dfa:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from None
    return parse_dfa(raw)


def dfa_template(name: str, labels: dict[str, str]) -> Dfa:
    """Built-in specification shapes.

    reach_avoid: labels {"avoid": .., "reach": ..} - reach the goal region
    while never touching the avoid region (or leaving the domain).
    reach_two_avoid: labels {"avoid": .., "reach1": .., "reach2": ..} - visit
    both goal regions, in any order, under the same avoidance constraint.
    The avoid proposition wins whenever a label set contains it.
    """
    if name == "reach_avoid":
        required = ("avoid", "reach")
    elif name == "reach_two_avoid":
        required = ("avoid", "reach1", "reach2")
    else:
        raise ValueError(f"unknown template {name!r}")
    missing = [k for k in required if k not in labels]
    if missing:
        raise ValueError(f"template {name!r} needs label keys {missing}")
    vals = [labels[k] for k in required]
    if len(set(vals)) != len(vals) or UNSAFE_PROP in vals:
        raise ValueError(f"template labels must be distinct and not {UNSAFE_PROP!r}")

    if name == "reach_avoid":
        avoid, reach = labels["avoid"], labels["reach"]
        alphabet = frozenset({avoid, reach, UNSAFE_PROP})
        bad = {avoid, UNSAFE_PROP}

        def delta(state, s):
            if state in ("accepted", "dead"):
                return state
            if s & bad:
                return "dead"
            if reach in s:
                return "accepted"
            return "trying"

        states = ("trying", "accepted", "dead")
        initial, accepting = "trying", frozenset({"accepted"})
    else:
        avoid, r1, r2 = labels["avoid"], labels["reach1"], labels["reach2"]
        alphabet = frozenset({avoid, r1, r2, UNSAFE_PROP})
        bad = {avoid, UNSAFE_PROP}

        def delta(state, s):
            if state in ("accepted", "dead"):
                return state
            if s & bad:
                return "dead"
            got1 = state == "got1" or r1 in s
            got2 = state == "got2" or r2 in s
            if got1 and got2:
                return "accepted"
            if got1:
                return "got1"
            if got2:
                return "got2"
            return "waiting"

        states = ("waiting", "got1", "got2", "accepted", "dead")
        initial, accepting = "waiting", frozenset({"accepted"})

    transitions = {
        (state, combo): delta(state, set(combo))
        for state in states
        for combo in _subsets(alphabet)
    }
    return Dfa(
        states=states,
        initial=initial,
        accepting=accepting,
        alphabet=alphabet,
        transitions=transitions,
    )


# -- product construction ----------------------------------------------------

@dataclass
class ProductImdp:
    """Interval MDP over (cell, DFA-state) pairs, restricted to the part
    reachable from the per-cell initial states. Cell UNSAFE_ID marks the
    virtual out-of-domain component. next_tbl[q, d] is the DFA state entered
    from DFA state d on moving into target q (UNSAFE_ID selects its last
    row). `rows` holds the product rows, keyed (pid, action): each a base row
    with its targets renamed to pids, sharing the bounds of imdp.rows."""

    imdp: Imdp
    dfa: Dfa
    states: list[tuple[int, int]]
    accepting: np.ndarray
    sink: np.ndarray
    rows: RowStore
    initial_pid: np.ndarray
    next_tbl: np.ndarray

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions(self) -> int:
        return self.imdp.num_actions


def build_product(imdp: Imdp, dfa: Dfa) -> ProductImdp:
    """Synchronous product: a transition into cell q' advances the DFA on
    L(q'), and a cell's initial product state consumes its own label first.
    A product row is its base row with targets renamed to pids: the product's
    RowStore, in (pid, action) order, holds only that pid column and reads
    the bounds from the base store's lo and up, in base order.
    Accepting DFA states are absorbing; dead DFA states and the non-accepting
    out-of-domain states form the sink."""
    used = set().union(*imdp.labels) if imdp.labels else set()
    if not used <= set(dfa.alphabet):
        raise ValueError(
            f"grid labels {sorted(used - set(dfa.alphabet))} missing from the DFA alphabet"
        )
    if UNSAFE_PROP not in dfa.alphabet:
        raise ValueError(f"DFA alphabet must include the reserved proposition {UNSAFE_PROP!r}")

    dfa_idx = {s: i for i, s in enumerate(dfa.states)}
    n_dfa = len(dfa.states)
    num_cells = imdp.num_cells

    # tables indexed by a target: num_cells + 1 rows, the last one UNSAFE_ID's
    unsafe = frozenset({UNSAFE_PROP})
    column = {labels: [dfa_idx[dfa.step(s, labels)] for s in dfa.states]
              for labels in {*imdp.labels, unsafe}}
    next_tbl = np.array([column[labels] for labels in (*imdp.labels, unsafe)], dtype=np.int64)

    acc = {dfa_idx[s] for s in dfa.accepting}
    dead = {dfa_idx[s] for s in dfa.dead_states()}

    pid_tbl = np.full((num_cells + 1, n_dfa), -1, dtype=np.int64)
    states: list[tuple[int, int]] = []  # also the breadth-first work list

    def ensure(cell: int, d: int) -> int:
        pid = pid_tbl[cell, d]
        if pid < 0:
            pid = len(states)
            pid_tbl[cell, d] = pid
            states.append((cell, d))
        return int(pid)

    d0 = dfa_idx[dfa.initial]
    initial_pid = np.empty(num_cells, dtype=np.int64)
    for q in range(num_cells):
        initial_pid[q] = ensure(q, int(next_tbl[q, d0]))

    # one pass over the states as they are reached: a live state's rows are
    # its cell's A base rows renamed to pids; of the pid column's room only
    # the pages written are touched
    A = imdp.num_actions
    base = imdp.rows
    col = np.empty(int(base.indptr[-1]) * n_dfa, dtype=np.int64)
    end = 0
    live: list[int] = []
    for pid, (cell, d) in enumerate(states):  # grows while it is walked
        if d in acc or d in dead or cell == UNSAFE_ID:
            continue  # terminal in the product: no outgoing rows needed
        live.append(pid)
        r = base.first[cell]
        succ = base.col[base.indptr[r] : base.indptr[r + A]]
        d_next = next_tbl[succ, d]
        pids = pid_tbl[succ, d_next]
        for m in np.flatnonzero(pids < 0):
            pids[m] = ensure(int(succ[m]), int(d_next[m]))
        col[end : end + pids.size] = pids
        end += pids.size

    first = np.full(len(states), -1, dtype=np.int64)
    first[live] = np.arange(len(live)) * A
    cells = np.array([states[pid][0] for pid in live], dtype=np.int64)
    base_rows = (base.first[cells][:, None] + np.arange(A)).ravel()
    sizes = np.diff(base.indptr)[base_rows]
    col.resize(end, refcheck=False)  # in place: a view would pin the rest
    rows = RowStore(first, A, sizes, col, base.lo, base.up, at=base.indptr[base_rows])

    accepting = np.array([d in acc for (_, d) in states], dtype=bool)
    sink = np.array(
        [(d in dead or c == UNSAFE_ID) and d not in acc for (c, d) in states], dtype=bool
    )
    return ProductImdp(
        imdp=imdp,
        dfa=dfa,
        states=states,
        accepting=accepting,
        sink=sink,
        rows=rows,
        initial_pid=initial_pid,
        next_tbl=next_tbl,
    )
