"""DFA semantics, spec templates, JSON round trips, and the product of the
cell-level interval MDP with a DFA."""

import json

import numpy as np
import pytest

from nndm_synth.automata import (
    UNSAFE_PROP,
    Dfa,
    build_product,
    dfa_template,
    load_dfa,
    parse_dfa,
)
from nndm_synth.geometry import UNSAFE_ID
from nndm_synth.imdp import Imdp, RowStore


def simple_dfa():
    return Dfa(
        states=("s", "t"),
        initial="s",
        accepting=frozenset({"t"}),
        alphabet=frozenset({"p"}),
        transitions={("s", frozenset({"p"})): "t"},
        defaults={"s": "s", "t": "t"},
    )


class TestDfa:
    def test_explicit_edge_beats_default(self):
        d = simple_dfa()
        assert d.step("s", {"p"}) == "t"
        assert d.step("s", set()) == "s"

    def test_step_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match="alphabet"):
            simple_dfa().step("s", {"q"})

    def test_dead_states(self):
        d = Dfa(
            states=("s", "t", "u"),
            initial="s",
            accepting=frozenset({"t"}),
            alphabet=frozenset({"p"}),
            transitions={("s", frozenset({"p"})): "t"},
            defaults={"s": "s", "t": "t", "u": "u"},
        )
        assert d.dead_states() == frozenset({"u"})

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dfa(states=("a", "a"), initial="a", accepting=frozenset(),
                alphabet=frozenset(), defaults={"a": "a"})
        with pytest.raises(ValueError, match="initial"):
            Dfa(states=("a",), initial="z", accepting=frozenset(),
                alphabet=frozenset(), defaults={"a": "a"})
        with pytest.raises(ValueError, match="accepting"):
            Dfa(states=("a",), initial="a", accepting=frozenset({"z"}),
                alphabet=frozenset(), defaults={"a": "a"})
        with pytest.raises(ValueError, match="alphabet too large"):
            Dfa(states=("a",), initial="a", accepting=frozenset(),
                alphabet=frozenset(f"p{i}" for i in range(13)), defaults={"a": "a"})
        with pytest.raises(ValueError, match="undeclared"):
            Dfa(states=("a",), initial="a", accepting=frozenset(),
                alphabet=frozenset({"p"}),
                transitions={("a", frozenset({"p"})): "z"}, defaults={"a": "a"})
        with pytest.raises(ValueError, match="unknown propositions"):
            Dfa(states=("a",), initial="a", accepting=frozenset(),
                alphabet=frozenset({"p"}),
                transitions={("a", frozenset({"q"})): "a"}, defaults={"a": "a"})
        with pytest.raises(ValueError, match="no transition"):
            Dfa(states=("a", "b"), initial="a", accepting=frozenset(),
                alphabet=frozenset({"p"}),
                transitions={("a", frozenset()): "a", ("a", frozenset({"p"})): "b"},
                defaults={"a": "a"})


class TestTemplates:
    def test_reach_avoid_traces(self):
        d = dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"})
        assert d.initial == "trying"
        assert d.step("trying", set()) == "trying"
        assert d.step("trying", {"goal"}) == "accepted"
        assert d.step("trying", {"obst"}) == "dead"
        assert d.step("trying", {"obst", "goal"}) == "dead"  # avoid wins
        assert d.step("trying", {UNSAFE_PROP}) == "dead"
        assert d.step("accepted", {"obst"}) == "accepted"
        assert d.step("dead", {"goal"}) == "dead"
        assert d.dead_states() == frozenset({"dead"})

    def test_reach_two_avoid_traces(self):
        d = dfa_template(
            "reach_two_avoid", {"avoid": "obst", "reach1": "r1", "reach2": "r2"}
        )
        assert d.step("waiting", {"r1"}) == "got1"
        assert d.step("got1", {"r1"}) == "got1"
        assert d.step("got1", {"r2"}) == "accepted"
        assert d.step("waiting", {"r2"}) == "got2"
        assert d.step("got2", {"r1"}) == "accepted"
        assert d.step("waiting", {"r1", "r2"}) == "accepted"
        assert d.step("got1", {"obst", "r2"}) == "dead"
        assert d.step("waiting", {UNSAFE_PROP}) == "dead"

    def test_template_validation(self):
        with pytest.raises(ValueError, match="unknown template"):
            dfa_template("nope", {})
        with pytest.raises(ValueError, match="needs label keys"):
            dfa_template("reach_avoid", {"avoid": "a"})
        with pytest.raises(ValueError, match="distinct"):
            dfa_template("reach_avoid", {"avoid": "same", "reach": "same"})
        with pytest.raises(ValueError, match="distinct"):
            dfa_template("reach_avoid", {"avoid": "a", "reach": UNSAFE_PROP})


class TestJsonRoundTrip:
    def test_template_roundtrip(self):
        d = dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"})
        d2 = parse_dfa(d.to_json())
        assert d2.states == d.states
        assert d2.initial == d.initial
        assert d2.accepting == d.accepting
        assert d2.alphabet == d.alphabet
        from nndm_synth.automata import _subsets
        for s in d.states:
            for combo in _subsets(d.alphabet):
                assert d2.step(s, combo) == d.step(s, combo)

    def test_load_dfa(self, tmp_path):
        d = simple_dfa()
        path = tmp_path / "spec_dfa.json"
        path.write_text(json.dumps(d.to_json()))
        d2 = load_dfa(str(path))
        assert d2.step("s", {"p"}) == "t"

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="missing key"):
            parse_dfa({"states": ["a"]})
        base = simple_dfa().to_json()
        bad = dict(base, transitions=[{"when": ["p"], "to": "t"}])
        with pytest.raises(ValueError, match="missing 'from'"):
            parse_dfa(bad)
        bad = dict(base, transitions=[{"from": "s"}])
        with pytest.raises(ValueError, match="needs either"):
            parse_dfa(bad)
        bad = dict(base, transitions=base["transitions"] + [{"from": "s", "default": "s"}])
        with pytest.raises(ValueError, match="two default"):
            parse_dfa(bad)
        dup = [e for e in base["transitions"] if "when" in e]
        bad = dict(base, transitions=base["transitions"] + dup)
        with pytest.raises(ValueError, match="duplicate transition"):
            parse_dfa(bad)


def _mk_row(targets, lower, upper, ul=0.0, uu=0.0):
    """A row over `targets`, led by an UNSAFE_ID entry [ul, uu] when uu > 0."""
    if uu > 0:
        targets, lower, upper = [UNSAFE_ID, *targets], [ul, *lower], [uu, *upper]
    return np.asarray(targets, dtype=np.int64), np.asarray(lower, float), np.asarray(upper, float)


def two_goal_imdp():
    labels = [frozenset(), frozenset({"r1"}), frozenset({"r2"})]
    specs = {
        (0, 0): ([0, 1, 2], [0.2, 0.2, 0.1], [0.5, 0.5, 0.4], 0.0, 0.2),
        (0, 1): ([1, 2], [0.4, 0.3], [0.6, 0.7], 0.0, 0.0),
        (1, 0): ([0, 2], [0.3, 0.3], [0.6, 0.6], 0.05, 0.1),
        (1, 1): ([1], [0.9], [1.0], 0.0, 0.1),
        (2, 0): ([0, 1], [0.5, 0.3], [0.6, 0.5], 0.0, 0.0),
        (2, 1): ([2], [1.0], [1.0], 0.0, 0.0),
    }
    rows = {(c, a): _mk_row(t, lo, up, ul, uu) for (c, a), (t, lo, up, ul, uu) in specs.items()}
    imdp = Imdp(actions=("a0", "a1"), labels=labels, rows=RowStore.from_rows(rows, 3, 2))
    imdp.validate()
    dfa = dfa_template("reach_two_avoid", {"avoid": "obst", "reach1": "r1", "reach2": "r2"})
    return imdp, dfa


class TestProduct:
    def test_initial_states_consume_own_label(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        idx = {s: i for i, s in enumerate(dfa.states)}
        assert prod.states[prod.initial_pid[0]] == (0, idx["waiting"])
        assert prod.states[prod.initial_pid[1]] == (1, idx["got1"])
        assert prod.states[prod.initial_pid[2]] == (2, idx["got2"])

    def test_rows_reindex_base_bounds(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        idx = {s: i for i, s in enumerate(dfa.states)}
        for (pid, a), (targets, lo, up) in prod.rows.items():
            cell, d = prod.states[pid]
            base = imdp.rows[cell, a]
            assert len(targets) == len(base.targets)
            for t_pid, l, u in zip(targets, lo, up):
                c2, d2 = prod.states[t_pid]
                m = int(np.flatnonzero(base.targets == c2)[0])
                assert l == base.lower[m] and u == base.upper[m]
                label = {UNSAFE_PROP} if c2 == UNSAFE_ID else imdp.labels[c2]
                assert d2 == idx[dfa.step(dfa.states[d], label)]

    def test_unsafe_target_only_when_mass_possible(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        for (pid, a), (targets, _, _) in prod.rows.items():
            cell, _ = prod.states[pid]
            has_unsafe = any(prod.states[t][0] == -1 for t in targets)
            assert has_unsafe == (imdp.rows[cell, a].targets[0] == UNSAFE_ID)

    def test_unsafe_entry_enters_the_out_of_domain_state(self):
        # two cells, so a table without UNSAFE_ID's extra slot would send the
        # out-of-domain mass to the last cell, cell 1
        rows = {
            (0, 0): _mk_row([0, 1], [0.3, 0.2], [0.6, 0.5], 0.1, 0.3),
            (1, 0): _mk_row([0, 1], [0.2, 0.5], [0.4, 0.7], 0.0, 0.2),
        }
        imdp = Imdp(actions=("a0",), labels=[frozenset(), frozenset()],
                    rows=RowStore.from_rows(rows, 2, 1))
        imdp.validate()
        dfa = dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"})
        prod = build_product(imdp, dfa)
        dead = dfa.states.index("dead")
        assert len(prod.rows) == 2
        for (pid, a), (targets, lo, up) in prod.rows.items():
            base = imdp.rows[prod.states[pid][0], a]
            out = [k for k, t in enumerate(targets) if prod.states[t][0] == -1]
            assert len(out) == 1
            assert prod.states[targets[out[0]]] == (-1, dead)
            assert (lo[out[0]], up[out[0]]) == (base.lower[0], base.upper[0])

    def test_terminal_states_have_no_rows(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        live = ~(prod.accepting | prod.sink)
        for s in range(prod.num_states):
            here = [k for k in prod.rows if k[0] == s]
            if live[s]:
                assert len(here) == imdp.num_actions
            else:
                assert not here

    def test_accepting_and_sink_flags(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        idx = {s: i for i, s in enumerate(dfa.states)}
        for s, (cell, d) in enumerate(prod.states):
            assert prod.accepting[s] == (d == idx["accepted"])
            assert prod.sink[s] == ((d == idx["dead"] or cell == -1) and d != idx["accepted"])

    def test_row_targets_distinct(self):
        # the kernel needs distinct targets; rows keep the base order, so
        # the pids need not increase
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        for targets, _, _ in prod.rows.values():
            assert np.unique(targets).size == targets.size

    def test_rows_share_the_base_bounds(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        assert prod.rows.lo is imdp.rows.lo and prod.rows.up is imdp.rows.up

    def test_rebuild_is_deterministic(self):
        imdp, dfa = two_goal_imdp()
        p1 = build_product(imdp, dfa)
        p2 = build_product(imdp, dfa)
        assert p1.states == p2.states
        assert np.array_equal(p1.initial_pid, p2.initial_pid)
        assert set(p1.rows) == set(p2.rows)
        for k in p1.rows:
            for x, y in zip(p1.rows[k], p2.rows[k]):
                assert np.array_equal(x, y)

    def test_label_outside_alphabet_rejected(self):
        imdp, _ = two_goal_imdp()
        dfa = dfa_template("reach_avoid", {"avoid": "obst", "reach": "r1"})
        with pytest.raises(ValueError, match="missing from the DFA alphabet"):
            build_product(imdp, dfa)  # grid uses r2 as well

    def test_unsafe_prop_required(self):
        labels = [frozenset({"g"})]
        row = _mk_row([0], [1.0], [1.0])
        imdp = Imdp(actions=("a0",), labels=labels, rows=RowStore.from_rows({(0, 0): row}, 1, 1))
        d = Dfa(states=("s",), initial="s", accepting=frozenset(),
                alphabet=frozenset({"g"}), defaults={"s": "s"})
        with pytest.raises(ValueError, match="reserved proposition"):
            build_product(imdp, d)
