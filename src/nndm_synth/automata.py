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
from dataclasses import dataclass, field

import numpy as np

from .geometry import UNSAFE_ID
from .imdp import Imdp, RowStore
from .networks import _check_keys, _load_json, _name, _names

UNSAFE_PROP = "unsafe"

# totality/dead-state analysis enumerates label subsets; specs here have a
# handful of propositions, so cap the alphabet instead of being clever
_MAX_ALPHABET = 12

# successor entries build_product gathers per block of its work list: the
# block's temporaries stay near 1 MB however large the base store is (64 Ki
# saved about 1 ms on vehicle3d_certify but left 0.45 MiB more in the heap)
_PRODUCT_BLOCK = 1 << 14


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

    def state_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(accepting, dead): bool arrays in `states` order, flagging the
        accepting states and dead_states()."""
        dead = self.dead_states()
        return (np.array([s in self.accepting for s in self.states]),
                np.array([s in dead for s in self.states]))

    def check_labels(self, labels) -> None:
        """Refuse labels outside the alphabet, or the reserved UNSAFE_PROP, which it must hold."""
        used = set(labels)
        if not used <= self.alphabet:
            raise ValueError(f"grid labels {sorted(used - self.alphabet)} missing from the DFA alphabet")
        if UNSAFE_PROP not in self.alphabet:
            raise ValueError(f"DFA alphabet must include the reserved proposition {UNSAFE_PROP!r}")
        if UNSAFE_PROP in used:
            raise ValueError(f"region label {UNSAFE_PROP!r} is reserved for leaving the domain")

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
    """The DFA of a JSON document in the layout of Dfa.to_json, read as
    strictly as a config: the document holds exactly `states`, `initial`,
    `accepting`, `ap` and `transitions`, and each edge exactly `from`,
    `when` and `to`, or `from` and `default`; an unknown or a missing key is
    an error, and so is a non-list where a list belongs or a non-string name."""
    _check_keys(raw, "the DFA document", ("states", "initial", "accepting", "ap", "transitions"))
    if not isinstance(raw["transitions"], list):
        raise ValueError(f"DFA 'transitions' must be a list of edges, got {raw['transitions']!r}")
    transitions: dict[tuple[str, frozenset[str]], str] = {}
    defaults: dict[str, str] = {}
    for k, edge in enumerate(raw["transitions"]):
        is_default = isinstance(edge, dict) and "default" in edge
        _check_keys(edge, f"transition {k}", ("from", "default") if is_default else ("from", "when", "to"))
        src = _name(edge["from"], f"transition {k} 'from'")
        if is_default:
            if src in defaults:
                raise ValueError(f"state {src!r} has two default transitions")
            defaults[src] = _name(edge["default"], f"transition {k} 'default'")
        else:
            guard = frozenset(_names(edge["when"], f"transition {k} 'when'"))
            if (src, guard) in transitions:
                raise ValueError(f"duplicate transition from {src!r} on {sorted(guard)}")
            transitions[(src, guard)] = _name(edge["to"], f"transition {k} 'to'")
    return Dfa(
        states=tuple(_names(raw["states"], "DFA 'states'")),
        initial=_name(raw["initial"], "DFA 'initial'"),
        accepting=frozenset(_names(raw["accepting"], "DFA 'accepting'")),
        alphabet=frozenset(_names(raw["ap"], "DFA 'ap'")),
        transitions=transitions,
        defaults=defaults,
    )


def load_dfa(path: str) -> Dfa:
    """parse_dfa of the file at path; every error starts with the path."""
    return _load_json(path, parse_dfa)


# Built-in specification shapes: the label keys of the goals, and the name of
# each waiting state, keyed by the indices of the goals seen so far (sorted).
_TEMPLATES = {
    "reach_avoid": (("reach",), {(): "trying"}),
    "reach_two_avoid": (("reach1", "reach2"), {(): "waiting", (0,): "got1", (1,): "got2"}),
}


def dfa_template(name: str, labels: dict[str, str]) -> Dfa:
    """Built-in specification shapes: visit every goal region, in any order,
    while never touching the avoid region (or leaving the domain); the avoid
    proposition wins whenever a label set contains it. reach_avoid takes
    labels {"avoid": .., "reach": ..}, reach_two_avoid {"avoid": ..,
    "reach1": .., "reach2": ..}. labels must hold exactly the template's keys,
    each with a string value: an unknown or a missing key, or a value that is
    not a string, is an error."""
    if _name(name, "'template'") not in _TEMPLATES:
        raise ValueError(f"unknown template {name!r}")
    goal_keys, waiting = _TEMPLATES[name]
    required = ("avoid", *goal_keys)
    _check_keys(labels, f"'labels' of template {name!r}", required)
    vals = [_name(labels[k], f"label {k!r} of template {name!r}") for k in required]
    if len(set(vals)) != len(vals) or UNSAFE_PROP in vals:
        raise ValueError(f"template labels must be distinct and not {UNSAFE_PROP!r}")
    bad, goals = {vals[0], UNSAFE_PROP}, vals[1:]
    seen_in = {state: set(seen) for seen, state in waiting.items()}

    def delta(state, s):
        if state not in seen_in:  # accepted and dead are absorbing
            return state
        if s & bad:
            return "dead"
        seen = seen_in[state] | {i for i, g in enumerate(goals) if g in s}
        return "accepted" if len(seen) == len(goals) else waiting[tuple(sorted(seen))]

    states = (*waiting.values(), "accepted", "dead")
    alphabet = frozenset({*vals, UNSAFE_PROP})
    transitions = {(q, combo): delta(q, combo) for q in states for combo in _subsets(alphabet)}
    return Dfa(states=states, initial=states[0], accepting=frozenset({"accepted"}),
               alphabet=alphabet, transitions=transitions)


# -- product construction ----------------------------------------------------

@dataclass
class ProductImdp:
    """Interval MDP over (cell, DFA-state) pairs, restricted to the part
    reachable from the per-cell initial states. states[pid] is the pair
    (cell, DFA state index) of product state pid, an (S, 2) int64 array;
    pid q < imdp.num_cells is cell q's initial state. Cell UNSAFE_ID marks
    the virtual out-of-domain component. next_tbl[q, d] is the DFA state
    entered from DFA state d on moving into target q (UNSAFE_ID selects its
    last row). `rows` holds the product rows, keyed (pid, action): each a
    base row with its targets renamed to pids and its remainder, reading the
    targets and bounds of imdp.rows in place."""

    imdp: Imdp
    dfa: Dfa
    states: np.ndarray
    accepting: np.ndarray
    sink: np.ndarray
    rows: RowStore
    next_tbl: np.ndarray

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions(self) -> int:
        return self.imdp.num_actions

    def solve_order(self) -> list[np.ndarray]:
        """The live states (neither accepting nor sink) in groups, one per
        SCC of the DFA graph d -> next_tbl[:, d] that holds some live state's
        DFA state, each group's pids ascending. A row of (cell, d) moves to
        DFA state next_tbl[q', d], so it names only states of its own group,
        of a group whose SCC d reaches, or frozen states; groups are ordered
        by how many DFA states their SCC reaches, so every group comes after
        all the groups it names."""
        n = len(self.dfa.states)
        reach = np.eye(n, dtype=bool)
        reach[np.arange(n)[:, None], self.next_tbl.T] = True
        while True:  # transitive closure; a DFA has a handful of states
            wider = (reach.astype(np.int64) @ reach) > 0
            if np.array_equal(wider, reach):
                break
            reach = wider
        live = ~(self.accepting | self.sink)
        d_of = self.states[:, 1]
        held = np.flatnonzero(np.bincount(d_of[live], minlength=n))  # not np.unique: see geometry._insert_cuts
        sccs = {tuple(np.flatnonzero(reach[d] & reach[:, d])) for d in held.tolist()}
        order = sorted(sccs, key=lambda scc: (np.count_nonzero(reach[scc[0]]), scc))
        return [np.flatnonzero(live & np.isin(d_of, scc)) for scc in order]


def build_product(imdp: Imdp, dfa: Dfa) -> ProductImdp:
    """Synchronous product: a transition into cell q' advances the DFA on
    L(q'), and a cell's initial product state consumes its own label first;
    pids 0..num_cells-1 go to the cells' initial states in cell order, so
    pid q is cell q's, and the rest in breadth-first order.
    A product row is its base row with targets renamed to pids: the product's
    RowStore, in (pid, action) order, holds no array per entry. It reads
    col, lo and up of each row's base row in place (at[r]), and renames a
    target q of a row of DFA state d to the pid of (q, next_tbl[q, d])
    through one int32 table of n_dfa * (num_cells + 1) pids (names, read at
    shift[r] + q); it holds each row's remainder.
    Accepting DFA states are absorbing; dead DFA states and the non-accepting
    out-of-domain states form the sink."""
    dfa.check_labels(set().union(*imdp.labels))

    dfa_idx = {s: i for i, s in enumerate(dfa.states)}
    n_dfa = len(dfa.states)
    num_cells = imdp.num_cells

    # tables indexed by a target: num_cells + 1 rows, the last one UNSAFE_ID's
    unsafe = frozenset({UNSAFE_PROP})
    column = {labels: [dfa_idx[dfa.step(s, labels)] for s in dfa.states]
              for labels in {*imdp.labels, unsafe}}
    next_tbl = np.array([column[labels] for labels in (*imdp.labels, unsafe)], dtype=np.int64)

    acc, dead = dfa.state_masks()
    A = imdp.num_actions
    base = imdp.rows
    # cell c's successor entries: its A rows, side by side in the base store
    succ_at = base.indptr[base.first]
    succ_n = base.indptr[base.first + A] - succ_at

    # the breadth-first work list, in pid order: row pid is (cell, DFA state).
    # Pair (target, d) is read at target * n_dfa + d from next_flat, the next
    # DFA state, and from pid_flat, its pid or -1 before it is reached;
    # UNSAFE_ID (-1) reads the last row of each
    work = np.empty(((num_cells + 1) * n_dfa, 2), dtype=np.int64)
    init = next_tbl[:num_cells, dfa_idx[dfa.initial]]
    work[:num_cells, 0] = np.arange(num_cells)
    work[:num_cells, 1] = init
    size = num_cells
    next_flat = next_tbl.ravel()
    pid_flat = np.full(next_flat.size, -1, dtype=np.int64)
    pid_flat[np.arange(num_cells) * n_dfa + init] = np.arange(num_cells)

    # the work list in blocks of at most _PRODUCT_BLOCK successor entries
    # (at least one state): a live state's rows are its cell's A base rows,
    # whose targets reach the pairs (target, next DFA state), and the pairs a
    # block reaches first get pids in first-occurrence order, which is the
    # order a walk one state at a time gives
    done = 0
    while done < size:
        cell, d = work[done : min(size, done + _PRODUCT_BLOCK)].T
        live = ~(acc[d] | dead[d] | (cell == UNSAFE_ID))  # terminal states have no rows
        n = np.where(live, succ_n[cell], 0)
        stop = max(1, int(np.searchsorted(np.cumsum(n), _PRODUCT_BLOCK, side="right")))
        done += stop
        keep = np.flatnonzero(live[:stop])
        cell, d, n = cell[keep], d[keep], n[keep]
        total = int(n.sum())
        if total == 0:
            continue
        pair = base.col[np.repeat(succ_at[cell] - (np.cumsum(n) - n), n) + np.arange(total)] * np.int64(n_dfa)
        pair += next_flat[pair + np.repeat(d, n)]  # target * n_dfa + its next DFA state
        new = pair[pid_flat[pair] < 0]
        if new.size:
            order = np.argsort(new, kind="stable")
            key = new[order]
            fresh = new[np.sort(order[np.r_[True, key[1:] != key[:-1]]])]  # first occurrences
            ids = np.arange(size, size + fresh.size)
            pid_flat[fresh] = ids
            work[ids, 0], work[ids, 1] = np.divmod(fresh, n_dfa)
            size += fresh.size

    states = work[:size].copy()
    accepting = acc[states[:, 1]]
    sink = (dead[states[:, 1]] | (states[:, 0] == UNSAFE_ID)) & ~accepting
    live = np.flatnonzero(~(accepting | sink))
    first = np.full(len(states), -1, dtype=np.int64)
    first[live] = np.arange(live.size) * A
    base_rows = (base.first[states[live, 0]][:, None] + np.arange(A)).ravel()
    sizes = np.diff(base.indptr)[base_rows]
    # names[d * (num_cells + 1) + 1 + q]: the pid of (q, next_tbl[q, d]), the
    # state a row of DFA state d enters on target q (UNSAFE_ID is slot 0);
    # -1 where no live state of d names q
    q = np.arange(UNSAFE_ID, num_cells)
    names = pid_flat[q * n_dfa + next_tbl[q].T].astype(np.int32).ravel()
    shift = np.repeat(states[live, 1] * (num_cells + 1) + 1, A)
    rows = RowStore(first, A, sizes, base.col, base.lo, base.up, at=base.indptr[base_rows],
                    rem=base.rem[base_rows], names=names, shift=shift)
    return ProductImdp(
        imdp=imdp,
        dfa=dfa,
        states=states,
        accepting=accepting,
        sink=sink,
        rows=rows,
        next_tbl=next_tbl,
    )
