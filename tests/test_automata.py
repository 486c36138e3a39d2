"""DFA semantics, spec templates, JSON round trips, and the product of the
cell-level interval MDP with a DFA."""

import itertools
import json

import numpy as np
import pytest

from nndm_synth import automata
from nndm_synth.automata import (
    UNSAFE_PROP,
    Dfa,
    build_product,
    dfa_template,
    load_dfa,
    parse_dfa,
)
from nndm_synth.fixtures import directional_dynamics, reach_avoid_2d, vehicle_3d
from nndm_synth.geometry import UNSAFE_ID, HyperRect
from nndm_synth.imdp import Imdp
from nndm_synth.networks import Activation, DenseLayer, NeuralDynamics
from nndm_synth.pipeline import PipelineConfig, apply_refinement, build_abstraction, synthesize
from nndm_synth.refinement import RefinementConfig, refine_round

from oracles import from_rows, mk_row, product_walk


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
        accepting, dead = d.state_masks()
        assert accepting.tolist() == [False, True, False] and dead.tolist() == [False, False, True]

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

    @pytest.mark.parametrize("name, labels, seen_in", [
        ("reach_avoid", {"avoid": "obst", "reach": "goal"}, {"trying": set()}),
        ("reach_avoid", {"avoid": "b", "reach": "a"}, {"trying": set()}),
        ("reach_two_avoid", {"avoid": "obst", "reach1": "r1", "reach2": "r2"},
         {"waiting": set(), "got1": {"r1"}, "got2": {"r2"}}),
        ("reach_two_avoid", {"avoid": "x", "reach1": "b", "reach2": "a"},
         {"waiting": set(), "got1": {"b"}, "got2": {"a"}}),
    ])
    def test_every_transition_matches_the_spec(self, name, labels, seen_in):
        # the whole table against the spec stated directly: avoid or unsafe
        # is fatal, and the run is accepted once it has seen every goal;
        # seen_in names each waiting state by the goals seen on entering it
        avoid = labels["avoid"]
        goals = {v for k, v in labels.items() if k != "avoid"}
        d = dfa_template(name, labels)
        assert d.states == (*seen_in, "accepted", "dead")
        assert d.initial == next(iter(seen_in))
        assert d.accepting == frozenset({"accepted"})
        assert d.alphabet == frozenset({avoid, *goals, UNSAFE_PROP})
        assert d.defaults == {} and d.dead_states() == frozenset({"dead"})
        props = sorted(d.alphabet)
        combos = [frozenset(c) for r in range(len(props) + 1)
                  for c in itertools.combinations(props, r)]
        assert len(d.transitions) == len(d.states) * len(combos)
        for state in d.states:
            for combo in combos:
                if state in ("accepted", "dead"):
                    expect = state
                elif avoid in combo or UNSAFE_PROP in combo:
                    expect = "dead"
                else:
                    seen = seen_in[state] | (combo & goals)
                    expect = "accepted" if seen == goals else next(
                        w for w, g in seen_in.items() if g == seen)
                assert d.transitions[state, combo] == expect, (state, sorted(combo))
                assert d.step(state, combo) == expect
        assert parse_dfa(d.to_json()) == d

    def test_template_validation(self):
        with pytest.raises(ValueError, match="unknown template"):
            dfa_template("nope", {})
        with pytest.raises(ValueError, match="missing key 'reach' in 'labels' of template 'reach_avoid'"):
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

    @pytest.mark.parametrize("edit, what", [
        (lambda doc: doc.pop("initial"), "missing key 'initial' in the DFA document"),
        (lambda doc: doc.update(extra=1), "unknown config key 'extra' in the DFA document"),
        (lambda doc: doc.update(initial="nowhere"), "initial state 'nowhere' not declared"),
    ])
    def test_load_dfa_errors_name_the_file(self, tmp_path, edit, what):
        doc = simple_dfa().to_json()
        edit(doc)
        path = tmp_path / "spec_dfa.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=what) as err:
            load_dfa(str(path))
        assert str(err.value).startswith(f"{path}: ")

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="missing key"):
            parse_dfa({"states": ["a"]})
        base = simple_dfa().to_json()
        bad = dict(base, transitions=[{"when": ["p"], "to": "t"}])
        with pytest.raises(ValueError, match="missing key 'from' in transition 0"):
            parse_dfa(bad)
        bad = dict(base, transitions=[{"from": "s"}])
        with pytest.raises(ValueError, match="missing key 'when' in transition 0"):
            parse_dfa(bad)
        bad = dict(base, transitions=base["transitions"] + [{"from": "s", "default": "s"}])
        with pytest.raises(ValueError, match="two default"):
            parse_dfa(bad)
        dup = [e for e in base["transitions"] if "when" in e]
        bad = dict(base, transitions=base["transitions"] + dup)
        with pytest.raises(ValueError, match="duplicate transition"):
            parse_dfa(bad)
        # read as strictly as a config: a string is never a list of its
        # characters, a name is a string, and an unknown key is an error
        when = [dict(e, when="p") if "when" in e else e for e in base["transitions"]]
        for change, match in [
            ({"states": "st"}, "'states' must be a list of strings"),
            ({"ap": "p"}, "'ap' must be a list of strings"),
            ({"accepting": "t"}, "'accepting' must be a list of strings"),
            ({"transitions": {"from": "s", "default": "s"}}, "'transitions' must be a list"),
            ({"transitions": when}, "'when' must be a list of strings"),
            ({"transitions": ["s"]}, "transition 0 must be a JSON object"),
            ({"states": ["s", 1]}, "'states' must be a list of strings"),
            ({"initial": 0}, "'initial' must be a string"),
            ({"transitions": [{"from": 0, "default": "s"}]}, "'from' must be a string"),
            ({"transitions": [{"from": "s", "when": [], "to": ["t"]}]}, "'to' must be a string"),
            ({"transitions": [{"from": "s", "default": 1}]}, "'default' must be a string"),
            ({"transitions": [{"from": "s", "when": [1], "to": "t"}]}, "'when' must be a list of strings"),
            ({"extra": 1}, "unknown config key 'extra' in the DFA document"),
            ({"transitions": [{"from": "s", "default": "s", "to": "t"}]},
             "unknown config key 'to' in transition 0"),
            ({"transitions": [{"from": "s", "when": [], "to": "t", "why": ""}]},
             "unknown config key 'why' in transition 0"),
        ]:
            with pytest.raises(ValueError, match=match):
                parse_dfa(dict(base, **change))
        with pytest.raises(ValueError, match="the DFA document must be a JSON object"):
            parse_dfa(["states"])


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
    rows = {(c, a): mk_row(t, lo, up, ul, uu) for (c, a), (t, lo, up, ul, uu) in specs.items()}
    imdp = Imdp(actions=("a0", "a1"), labels=labels, rows=from_rows(rows, 3, 2))
    imdp.validate()
    dfa = dfa_template("reach_two_avoid", {"avoid": "obst", "reach1": "r1", "reach2": "r2"})
    return imdp, dfa


TWO_GOALS = dfa_template("reach_two_avoid", {"avoid": "obst", "reach1": "r1", "reach2": "r2"})
ONE_GOAL = dfa_template("reach_avoid", {"avoid": "obst", "reach": "r1"})


def random_dfa_product(dfa, seed, num_cells=8, num_actions=2):
    """The product of `dfa` with a random interval MDP whose cell 0 is
    labelled r1, cell 1 r2 and cell 2 obst (each label only if the DFA
    knows it); every row names a few cells and may leave the domain."""
    rng = np.random.default_rng(seed)
    labels = [frozenset({p}) & dfa.alphabet for p in ("r1", "r2", "obst")]
    labels += [frozenset()] * (num_cells - 3)
    rows = {}
    for key in itertools.product(range(num_cells), range(num_actions)):
        k = int(rng.integers(2, 5))
        targets = np.r_[UNSAFE_ID, np.sort(rng.choice(num_cells, size=k, replace=False))]
        p = rng.dirichlet(np.r_[0.2, np.ones(k)])
        lo = p * rng.uniform(0.5, 1.0, k + 1)
        up = np.minimum(p + (1.0 - p) * rng.uniform(0.0, 0.3, k + 1), 1.0)
        rows[key] = (targets, lo, up)
    imdp = Imdp(actions=tuple(f"a{a}" for a in range(num_actions)), labels=labels,
                rows=from_rows(rows, num_cells, num_actions))
    imdp.validate()
    return build_product(imdp, dfa)


class TestSolveOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_groups_come_after_every_group_they_name(self, seed):
        prod = random_dfa_product(TWO_GOALS, seed)
        groups = prod.solve_order()
        held = [{prod.dfa.states[prod.states[pid][1]] for pid in g} for g in groups]
        assert sorted(map(sorted, held[:2])) == [["got1"], ["got2"]] and held[2] == {"waiting"}
        live = ~(prod.accepting | prod.sink)
        assert np.array_equal(np.sort(np.concatenate(groups)), np.flatnonzero(live))  # each once
        rank = np.full(prod.num_states, -1)  # frozen states rank before every group
        for k, g in enumerate(groups):
            assert np.all(np.diff(g) > 0)
            rank[g] = k
        for (pid, _), (targets, _, _) in prod.rows.items():
            assert np.all(rank[targets] <= rank[pid])

    def test_reach_avoid_is_one_group(self):
        prod = random_dfa_product(ONE_GOAL, 1)
        groups = prod.solve_order()
        assert len(groups) == 1
        assert np.array_equal(groups[0], np.flatnonzero(~(prod.accepting | prod.sink)))


class TestProduct:
    def test_initial_states_consume_own_label(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        idx = {s: i for i, s in enumerate(dfa.states)}
        assert tuple(prod.states[0]) == (0, idx["waiting"])
        assert tuple(prod.states[1]) == (1, idx["got1"])
        assert tuple(prod.states[2]) == (2, idx["got2"])

    def test_pid_q_is_cell_q_initial_state(self):
        imdp, dfa = two_goal_imdp()
        prod = build_product(imdp, dfa)
        n = imdp.num_cells
        assert prod.states.shape == (prod.num_states, 2) and prod.states.dtype == np.int64
        assert np.array_equal(prod.states[:n, 0], np.arange(n))
        d0 = dfa.states.index(dfa.initial)
        assert np.array_equal(prod.states[:n, 1], prod.next_tbl[:n, d0])
        assert len(set(map(tuple, prod.states.tolist()))) == prod.num_states  # each pair once

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
            (0, 0): mk_row([0, 1], [0.3, 0.2], [0.6, 0.5], 0.1, 0.3),
            (1, 0): mk_row([0, 1], [0.2, 0.5], [0.4, 0.7], 0.0, 0.2),
        }
        imdp = Imdp(actions=("a0",), labels=[frozenset(), frozenset()],
                    rows=from_rows(rows, 2, 1))
        imdp.validate()
        dfa = dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"})
        prod = build_product(imdp, dfa)
        dead = dfa.states.index("dead")
        assert len(prod.rows) == 2
        for (pid, a), (targets, lo, up) in prod.rows.items():
            base = imdp.rows[prod.states[pid][0], a]
            out = [k for k, t in enumerate(targets) if prod.states[t][0] == -1]
            assert len(out) == 1
            assert tuple(prod.states[targets[out[0]]]) == (-1, dead)
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
        # the pid column is the product's own array, stored in half the bytes
        assert prod.rows.col.dtype == np.int32

    def test_rebuild_is_deterministic(self):
        imdp, dfa = two_goal_imdp()
        p1 = build_product(imdp, dfa)
        p2 = build_product(imdp, dfa)
        assert np.array_equal(p1.states, p2.states)
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
        row = mk_row([0], [1.0], [1.0])
        imdp = Imdp(actions=("a0",), labels=labels, rows=from_rows({(0, 0): row}, 1, 1))
        d = Dfa(states=("s",), initial="s", accepting=frozenset(),
                alphabet=frozenset({"g"}), defaults={"s": "s"})
        with pytest.raises(ValueError, match="reserved proposition"):
            build_product(imdp, d)


def _two_goal_tanh():
    """The benchmark's tanh workload: a compass relu fixture with every
    hidden relu swapped for tanh, under a two-goal spec on a 12 x 12 grid."""
    compass = {"east": (0.5, 0.0), "north": (0.0, 0.5), "west": (-0.5, 0.0), "south": (0.0, -0.5)}
    relu = directional_dynamics(2, 64, 4, compass, seed=5)
    nd = NeuralDynamics(dim=2, actions=relu.actions, networks={
        a: tuple(DenseLayer(layer.weights, layer.bias,
                            Activation.TANH if layer.activation is Activation.RELU else layer.activation)
                 for layer in relu.layers(a))
        for a in relu.actions
    })
    config = PipelineConfig(
        domain=HyperRect([-2.0, -2.0], [2.0, 2.0]),
        covariance=0.2 * np.eye(2),
        grid=[12, 12],
        dfa=dfa_template("reach_two_avoid", {"avoid": "obst", "reach1": "g1", "reach2": "g2"}),
        regions=[
            ("g1", HyperRect([0.4, 0.4], [1.4, 1.4])),
            ("g2", HyperRect([-1.4, 0.4], [-0.4, 1.4])),
            ("obst", HyperRect([-1.5, -0.5], [-0.5, 0.5])),
        ],
    )
    return nd, config


def _refined_planar():
    nd, config = reach_avoid_2d()
    ab = build_abstraction(nd, config)
    synth = synthesize(ab, config.dfa)
    rc = RefinementConfig(per_round=10, rounds=1)
    apply_refinement(ab, refine_round(ab.grid, ab.imdp, synth.p_lower, synth.p_upper, rc, ab.bounds))
    return ab.imdp, config.dfa


def _first_grid(build):
    nd, config = build()
    return build_abstraction(nd, config).imdp, config.dfa


PRODUCT_CASES = {
    "vehicle3d_certify": lambda: _first_grid(lambda: vehicle_3d(grid=(10, 8, 6))),
    "planar2d_refine_mc": lambda: _first_grid(reach_avoid_2d),
    "two_goal_tanh": lambda: _first_grid(_two_goal_tanh),
    "planar2d_refined": _refined_planar,
}


def _assert_matches_walk(imdp, dfa, prod):
    states, col = product_walk(imdp, dfa)
    assert prod.states.dtype == states.dtype and np.array_equal(prod.states, states)
    assert prod.rows.col.dtype == col.dtype and np.array_equal(prod.rows.col, col)
    base, A = imdp.rows, imdp.num_actions
    live = np.flatnonzero(~(prod.accepting | prod.sink))
    base_rows = (base.first[states[live, 0]][:, None] + np.arange(A)).ravel()
    assert np.array_equal(prod.rows.at, base.indptr[base_rows])
    assert prod.rows.rem.tobytes() == base.rem[base_rows].tobytes()
    assert np.array_equal(prod.rows.indptr, np.r_[0, np.cumsum(np.diff(base.indptr)[base_rows])])


class TestProductBlocks:
    """build_product walks its work list in blocks with array ops; the
    sequential walk (tests/oracles.product_walk) is the reference."""

    @pytest.mark.parametrize("case", PRODUCT_CASES)
    def test_matches_the_sequential_walk(self, case):
        imdp, dfa = PRODUCT_CASES[case]()
        _assert_matches_walk(imdp, dfa, build_product(imdp, dfa))

    @pytest.mark.parametrize("block", [1, 7, 40])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_size_leaves_the_product_unchanged(self, monkeypatch, seed, block):
        # small blocks: a block ends inside the reached part of the work list,
        # and a state with more successor entries than a block is one block
        monkeypatch.setattr(automata, "_PRODUCT_BLOCK", block)
        prod = random_dfa_product(TWO_GOALS, seed, num_cells=12, num_actions=3)
        _assert_matches_walk(prod.imdp, prod.dfa, prod)
