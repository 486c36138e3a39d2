"""Interval-MDP inner optimization and robust value iteration.

The ordering method for the inner problem is checked against scipy linprog
on random feasible interval rows; value iteration is checked against a
literal Jacobi iteration whose inner step is an LP solve per state-action.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from nndm_synth.geometry import UNSAFE_ID
from nndm_synth.imdp import (
    Imdp,
    RowStore,
    _BlockKernel,
    _GAIN,
    _evaluate,
    _groups,
    _improve,
    _traps,
    evaluate_strategy_upper,
    robust_value_iteration,
)
from nndm_synth.transitions import _prune

from oracles import (
    FakeProduct,
    extreme_distribution,
    from_rows,
    jacobi_lp_values,
    lp_extreme,
    mk_row,
    plain_mdp_values,
    random_product,
)
from test_automata import ONE_GOAL, TWO_GOALS, random_dfa_product

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def random_bounds(rng, k):
    p = rng.dirichlet(np.ones(k))
    lo = np.clip(p - rng.uniform(0, 0.4, k), 0.0, 1.0)
    up = np.clip(p + rng.uniform(0, 0.4, k), 0.0, 1.0)
    return lo, up


class TestExtremeDistribution:
    def test_hand_case_minimize(self):
        gamma = extreme_distribution(
            np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6, 0.7]),
            np.array([1.0, 2.0, 3.0]))
        assert np.allclose(gamma, [0.5, 0.2, 0.3], atol=1e-15)

    def test_hand_case_maximize(self):
        gamma = extreme_distribution(
            np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6, 0.7]),
            np.array([1.0, 2.0, 3.0]), maximize=True)
        assert np.allclose(gamma, [0.1, 0.2, 0.7], atol=1e-15)

    def test_value_ties_resolve_to_lower_index(self):
        lo, up = np.zeros(3), np.ones(3)
        g_min = extreme_distribution(lo, up, np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(g_min, [0.0, 0.0, 1.0])
        g_max = extreme_distribution(lo, up, np.array([1.0, 1.0, 0.0]), maximize=True)
        assert np.array_equal(g_max, [1.0, 0.0, 0.0])

    def test_zero_budget_returns_lower(self):
        lo = np.array([0.4, 0.6])
        gamma = extreme_distribution(lo, np.array([0.9, 0.9]), np.array([0.0, 1.0]))
        assert np.array_equal(gamma, lo)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            lo, up = random_bounds(rng, k)
            vals = rng.normal(0, 1, k)
            for maximize in (False, True):
                g = extreme_distribution(lo, up, vals, maximize)
                assert np.all(g >= lo - 1e-12) and np.all(g <= up + 1e-12)
                assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="matching shapes"):
            extreme_distribution(np.zeros(2), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="lower <= upper"):
            extreme_distribution(np.array([0.5]), np.array([0.2]), np.array([1.0]))
        with pytest.raises(ValueError, match="feasible"):
            extreme_distribution(np.array([0.6, 0.6]), np.array([0.7, 0.7]), np.zeros(2))
        with pytest.raises(ValueError, match="feasible"):
            extreme_distribution(np.array([0.1, 0.1]), np.array([0.3, 0.3]), np.zeros(2))


class TestExtremeExpectation:
    def test_matches_linprog(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(2, 10))
            lo, up = random_bounds(rng, k)
            vals = rng.normal(0, 2, k)
            for maximize in (False, True):
                got = extreme_distribution(lo, up, vals, maximize) @ vals
                want = lp_extreme(vals, lo, up, maximize)
                assert got == pytest.approx(want, abs=1e-8)


def kernel_rows(rng, num_states):
    """Rows of different lengths over num_states states, with every special
    case of the ordering method: zero budget (sum lo = 1), a budget that
    takes every gap (sum up = 1), single-entry rows and generic rows."""
    rows = []
    for kind in ("generic", "zero_budget", "all_gaps", "single", "single_slack") * 4:
        k = 1 if kind.startswith("single") else int(rng.integers(2, num_states + 1))
        targets = np.sort(rng.choice(num_states, size=k, replace=False)).astype(np.int64)
        p = rng.dirichlet(np.ones(k))
        if kind == "generic":
            lo, up = random_bounds(rng, k)
        elif kind == "zero_budget":
            lo, up = p, np.minimum(p + rng.uniform(0, 0.3, k), 1.0)
        elif kind == "all_gaps":
            lo, up = p * rng.uniform(0.0, 1.0, k), p
        elif kind == "single":
            lo, up = np.ones(1), np.ones(1)
        else:
            lo, up = np.array([0.3]), np.ones(1)
        rows.append((targets, lo, up))
    return rows


def kernel_values(store, S, V, rows, maximize):
    """Each row's extreme expectation of V, read from the kernel's
    distributions over the states 0..S-1."""
    kernel = _BlockKernel(store, np.arange(S))
    D, worth_one = kernel.distributions(V, rows, maximize)
    return D @ kernel.v + worth_one


class TestBlockKernel:
    """The rank-space block kernel against the literal ordering method."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_extreme_distribution(self, seed):
        rng = np.random.default_rng(seed)
        S = 12
        rows = kernel_rows(rng, S)
        store = from_rows({(r, 0): row for r, row in enumerate(rows)}, len(rows), 1)
        value_sets = [
            rng.uniform(0, 1, S),
            rng.choice([0.0, 0.25, 0.5, 1.0], S),  # heavy value ties
            np.r_[1.0, 0.0, rng.uniform(0, 1e-12, S - 2)],  # tiny values beside 0 and 1
        ]
        for V in value_sets:
            block = rng.permutation(len(rows))  # any row order, lengths mixed
            for maximize in (False, True):
                got = kernel_values(store, S, V, block, maximize)
                want = [extreme_distribution(lo, up, V[t], maximize) @ V[t]
                        for t, lo, up in (rows[r] for r in block)]
                assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_remainder_matches_a_virtual_target(self, seed):
        # a row's remainder is a target the row does not name, with bounds
        # [0, rem] and value 0 to the minimizer and 1 to the maximizer; rows
        # are cut so that some need their remainder to reach a sum of 1
        rng = np.random.default_rng(seed)
        S = 12
        rows, rem = [], []
        for t, lo, up in kernel_rows(rng, S):
            cut = up - rng.uniform(0.0, 1.0) * (up - lo)  # lower the upper bounds
            up = cut if rng.uniform() < 0.5 else up
            rows.append((t, lo, up))
            rem.append(min(1.0, max(0.0, 1.0 - up.sum()) + rng.choice([0.0, 1e-7, 0.2])))
        packed = from_rows({(r, 0): row for r, row in enumerate(rows)}, len(rows), 1)
        store = RowStore(packed.first, 1, np.diff(packed.indptr), packed.col, packed.lo, packed.up,
                         rem=rem)
        up_sum = np.add.reduceat(store.up, store.indptr[:-1])
        assert np.any(store.rem == 0.0) and np.any((store.rem > 0.0) & (up_sum >= 1.0))
        assert np.any(up_sum < 1.0 - 1e-3), "fixture should have rows that need their remainder"
        for V in (rng.uniform(0, 1, S), rng.choice([0.0, 0.5, 1.0], S)):
            block = rng.permutation(len(rows))
            for maximize in (False, True):
                got = kernel_values(store, S, V, block, maximize)
                want = []
                for r in block:
                    t, lo, up = rows[r]
                    vals = np.r_[V[t], float(maximize)]
                    gamma = extreme_distribution(np.r_[lo, 0.0], np.r_[up, rem[r]], vals, maximize)
                    want.append(gamma @ vals)
                assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_distributions_match_extreme_distribution(self, seed):
        # the kernel's distribution of each row, read back at its targets,
        # is the ordering method's, with the remainder a virtual target whose
        # mass the maximizer's worth_one carries; values are distinct, as
        # the two may break ties differently
        rng = np.random.default_rng(seed)
        S = 12
        rows, rem = [], []
        for t, lo, up in kernel_rows(rng, S):
            up = up - rng.uniform(0.0, 1.0) * (up - lo) if rng.uniform() < 0.5 else up
            rows.append((t, lo, up))
            rem.append(min(1.0, max(0.0, 1.0 - up.sum()) + rng.choice([0.0, 0.2])))
        packed = from_rows({(r, 0): row for r, row in enumerate(rows)}, len(rows), 1)
        store = RowStore(packed.first, 1, np.diff(packed.indptr), packed.col, packed.lo, packed.up,
                         rem=rem)
        V = (rng.permutation(S) + 1.0) / (S + 1)  # distinct, and none ties the remainder's 0 or 1
        kernel = _BlockKernel(store, np.arange(S))
        block = rng.permutation(len(rows))
        for maximize in (False, True):
            D, worth_one = kernel.distributions(V, block, maximize)
            for i, r in enumerate(block):
                t, lo, up = rows[r]
                vals = np.r_[V[t], float(maximize)]
                gamma = extreme_distribution(np.r_[lo, 0.0], np.r_[up, rem[r]], vals, maximize)
                assert np.max(np.abs(D[i, kernel.rank[t]] - gamma[:-1])) < 1e-12
                assert D[i].sum() + (worth_one[i] if maximize else gamma[-1]) == pytest.approx(1.0, abs=1e-12)
                assert worth_one[i] == pytest.approx(gamma[-1] if maximize else 0.0, abs=1e-12)

    def test_shared_bounds_and_unsorted_targets(self):
        # rows that read another store's bounds in its order, with targets
        # renamed so that target 0, first in its base row as UNSAFE_ID is,
        # becomes the largest id, as the out-of-domain pid often is in the
        # product
        rng = np.random.default_rng(6)
        S = 12
        rows = kernel_rows(rng, S)
        base = from_rows({(r, 0): row for r, row in enumerate(rows)}, len(rows), 1)
        rename = np.r_[S - 1, rng.permutation(S - 1)]
        picked = rng.permutation(len(rows))
        length = np.diff(base.indptr)[picked]
        col = np.concatenate([rename[rows[r][0]] for r in picked])
        store = RowStore(np.arange(len(picked)), 1, length, col, base.lo, base.up,
                         at=base.indptr[picked])
        assert any(np.any(np.diff(t) < 0) for t, _, _ in store.values())
        V = rng.uniform(0, 1, S)
        for maximize in (False, True):
            got = kernel_values(store, S, V, np.arange(len(picked)), maximize)
            want = [extreme_distribution(lo, up, V[rename[t]], maximize) @ V[rename[t]]
                    for t, lo, up in (rows[r] for r in picked)]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_store_views_round_trip(self):
        rng = np.random.default_rng(4)
        some = kernel_rows(rng, 5)
        rows = {(0, 0): some[0], (0, 1): some[1], (3, 0): some[2], (3, 1): some[3]}
        store = from_rows(rows, 5, 2)
        assert list(store) == [(0, 0), (0, 1), (3, 0), (3, 1)]
        assert len(store) == 4 and store.indptr[-1] == sum(len(t) for t, _, _ in rows.values())
        for key, (t, lo, up) in store.items():
            for x, y in zip((t, lo, up), rows[key]):
                assert np.array_equal(x, y)
        for missing in ((1, 0), (0, 2), (5, 0), (-1, 0)):
            assert missing not in store

    def test_store_rejects_bad_layouts(self):
        row = (np.array([0, 1]), np.array([0.2, 0.3]), np.array([0.7, 0.8]))
        with pytest.raises(ValueError, match="num_actions rows"):
            from_rows({(0, 0): row}, 2, 2)
        with pytest.raises(ValueError, match="increasing"):
            from_rows({(0, 0): (row[0][::-1], row[1], row[2])}, 2, 1)
        with pytest.raises(ValueError, match="at least one entry"):
            from_rows({(0, 0): (np.zeros(0, np.int64), np.zeros(0), np.zeros(0))}, 2, 1)


def tiny_chain(extra_action=False):
    # state 0 live, 1 accepting, 2 sink
    accepting = np.array([False, True, False])
    sink = np.array([False, False, True])
    rows = {
        (0, 0): (np.array([1, 2]), np.array([0.3, 0.2]), np.array([0.7, 0.6])),
    }
    n_actions = 1
    if extra_action:
        rows[(0, 1)] = (np.array([1, 2]), np.array([0.5, 0.1]), np.array([0.8, 0.5]))
        n_actions = 2
    return FakeProduct(accepting, sink, rows, n_actions)


def test_pruned_mass_decides_the_bound():
    # state 0 reaches the goal (state 2) but for a sliver that may end in the
    # sink (state 3), and state 1 the other way round; the slivers' upper
    # bounds lie below the pruning threshold of old (1e-12) and of now, so
    # they leave the rows. Without a remainder the adversary cannot place
    # them: p_lower came out 1 and p_upper 0, both on the wrong side.
    lower = np.array([[0.0, 0.0, 1.0 - 1e-12, 5e-13], [0.0, 0.0, 5e-13, 1.0 - 1e-12]])
    upper = np.array([[0.0, 0.0, 1.0, 9e-13], [0.0, 0.0, 9e-13, 1.0]])
    rem = _prune(lower, upper)
    assert np.array_equal(rem, [9e-13, 9e-13])
    keep = upper > 0.0
    rows = {(s, 0): (np.flatnonzero(keep[s]), lower[s, keep[s]], upper[s, keep[s]]) for s in (0, 1)}
    product = FakeProduct(np.array([False, False, True, False]), np.array([False, False, False, True]),
                          rows, 1)
    packed = product.rows
    values = {}
    for name, r in (("pruned", rem), ("dropped", np.zeros(2))):
        product.rows = RowStore(packed.first, 1, np.diff(packed.indptr), packed.col, packed.lo,
                                packed.up, rem=r)
        low = robust_value_iteration(product, tol=1e-15)
        high = evaluate_strategy_upper(product, low.strategy)
        values[name] = low.values[0], high.values[1]
    # the extremes over the unpruned rows: the sliver at its upper bound
    assert values["pruned"][0] == pytest.approx(1.0 - 9e-13, abs=1e-16)
    assert values["pruned"][1] == pytest.approx(9e-13, abs=1e-16)
    assert values["dropped"] == (1.0, 0.0)


def test_shortfall_counts_for_the_maximizer():
    # state 0 may reach the goal (state 1) or the sink (state 2); its upper
    # bounds plus remainder sum to 1 - 5e-9, a shortfall the row rule
    # forgives. Mass no interval holds may land anywhere, so the maximizer
    # values it at 1, as it values the remainder: fill the remainder (0.05),
    # then the goal's gap (0.1), then the sink's, and the 5e-9 left over
    # goes to the goal too. p_lower is unchanged: the minimizer values both
    # at 0.
    rows = {(0, 0): (np.array([1, 2]), np.array([0.3, 0.5]), np.array([0.4, 0.55 - 5e-9]))}
    product = FakeProduct(np.array([False, True, False]), np.array([False, False, True]), rows, 1)
    packed = product.rows
    product.rows = RowStore(packed.first, 1, np.diff(packed.indptr), packed.col, packed.lo,
                            packed.up, rem=[0.05])
    assert product.rows.first_violation(3) is None
    low = robust_value_iteration(product, tol=1e-15)
    high = evaluate_strategy_upper(product, low.strategy)
    assert low.values[0] == pytest.approx(0.4, abs=1e-15)
    assert high.values[0] == pytest.approx(0.45 + 5e-9, abs=1e-15)


class TestValueIteration:
    def test_hand_chain_pessimistic(self):
        res = robust_value_iteration(tiny_chain(), tol=1e-12)
        assert res.converged
        assert res.values[0] == pytest.approx(0.4, abs=1e-12)
        assert res.values[1] == 1.0 and res.values[2] == 0.0

    def test_hand_chain_optimistic(self):
        prod = tiny_chain()
        res = evaluate_strategy_upper(prod, np.zeros(3, dtype=np.int64))
        assert res.values[0] == pytest.approx(0.7, abs=1e-12)

    def test_strategy_picks_better_action(self):
        res = robust_value_iteration(tiny_chain(extra_action=True), tol=1e-12)
        assert res.values[0] == pytest.approx(0.5, abs=1e-12)
        assert res.strategy[0] == 1

    def test_action_tie_prefers_lowest_index(self):
        chain = tiny_chain()
        row = chain.rows[(0, 0)]
        prod = FakeProduct(chain.accepting, chain.sink, {(0, 0): row, (0, 1): row}, 2)
        res = robust_value_iteration(prod, tol=1e-12)
        assert res.strategy[0] == 0

    @staticmethod
    def _two_action_chain(p0, p1):
        # state 0 reaches the goal (state 1) with exactly p0 under action 0
        # and p1 under action 1, else the sink (state 2)
        rows = {(0, a): (np.array([1, 2]), np.array([p, 1.0 - p]), np.array([p, 1.0 - p]))
                for a, p in enumerate((p0, p1))}
        return FakeProduct(np.array([False, True, False]), np.array([False, False, True]), rows, 2)

    def test_action_better_within_tol_is_emitted(self):
        # action 1 beats action 0 by 0.4 tol: less than tol, more than
        # _GAIN, so the held strategy switches to it, and p_lower is its value
        tol = 1e-6
        p1 = 0.4 + 0.4 * tol
        prod = self._two_action_chain(0.4, p1)
        res = robust_value_iteration(prod, tol=tol)
        assert res.strategy[0] == 1
        assert res.values[0] == pytest.approx(p1, abs=1e-15)
        assert evaluate_strategy_upper(prod, res.strategy).values[0] == pytest.approx(p1, abs=1e-15)

    def test_action_beyond_tol_is_taken(self):
        tol = 1e-6
        res = robust_value_iteration(self._two_action_chain(0.4, 0.4 + 3 * tol), tol=tol)
        assert res.strategy[0] == 1
        res = robust_value_iteration(self._two_action_chain(0.4 + 3 * tol, 0.4), tol=tol)
        assert res.strategy[0] == 0

    def test_strategy_ignores_sub_gain_noise(self):
        # each state's actions come in clusters 0.1 apart with spread tol/5
        # inside a cluster: the emitted action is the state's best one, not
        # the lowest index within tol of it. A rival raised above it by less
        # than _GAIN does not flip it on a search started from it
        tol, n_live, n_actions = 1e-6, 30, 5
        rng = np.random.default_rng(8)
        base = rng.choice([0.1, 0.2, 0.3], size=(n_live, n_actions))
        base += rng.uniform(0, tol / 5, size=base.shape)
        want = base.argmax(axis=1)
        live = np.arange(n_live)
        rival = base.copy()
        rival[live, (want + 1) % n_actions] = base[live, want] + rng.uniform(0, _GAIN / 2, n_live)
        accepting = np.r_[np.zeros(n_live, bool), True, False]
        sink = np.r_[np.zeros(n_live, bool), False, True]

        def product(p):
            rows = {(s, a): (np.array([n_live, n_live + 1]), np.array([p[s, a], 1 - p[s, a]]),
                             np.array([p[s, a], 1 - p[s, a]]))
                    for s in range(n_live) for a in range(n_actions)}
            return FakeProduct(accepting, sink, rows, n_actions)

        res = robust_value_iteration(product(base), tol=tol)
        assert np.array_equal(res.strategy[:n_live], want)
        assert np.array_equal(res.values[:n_live], base[live, want])
        res = robust_value_iteration(product(rival), tol=tol, start=res.strategy)
        assert np.array_equal(res.strategy[:n_live], want)

    def test_frozen_states_never_move(self):
        res = robust_value_iteration(tiny_chain(), tol=1e-12)
        assert res.values[1] == 1.0
        assert res.values[2] == 0.0

    def test_matches_lp_oracle(self):
        for seed in (3, 11, 29):
            prod = random_product(seed)
            got = robust_value_iteration(prod, tol=1e-10, max_sweeps=5000)
            assert got.converged
            want = jacobi_lp_values(prod)
            assert np.max(np.abs(got.values - want)) < 1e-6

    def test_strategy_evaluation_matches_lp_oracle(self):
        prod = random_product(7)
        res = robust_value_iteration(prod, tol=1e-10)
        upper = evaluate_strategy_upper(prod, res.strategy)
        want = jacobi_lp_values(prod, strategy=res.strategy)
        assert np.max(np.abs(upper.values - want)) < 1e-6

    def test_lower_never_exceeds_upper(self):
        for seed in (2, 5):
            prod = random_product(seed)
            res = robust_value_iteration(prod, tol=1e-10)
            upper = evaluate_strategy_upper(prod, res.strategy)
            assert np.all(res.values <= upper.values + 1e-9)

    def test_degenerate_intervals_reduce_to_plain_mdp(self):
        prod = random_product(13, degenerate=True)
        got = robust_value_iteration(prod, tol=1e-10)
        # plain value iteration: the only feasible distribution is p itself
        V = plain_mdp_values(prod, 2000)
        assert np.max(np.abs(got.values - V)) < 2e-6

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_every_stopping_point_is_a_sound_lower_bound(self, seed):
        # a pass cut after any improvement step or exact evaluation of the
        # held strategy must still be below the fixed point, and a longer
        # pass never lower
        prod = random_product(seed, n_actions=3)
        want = jacobi_lp_values(prod)
        prev = np.zeros(prod.num_states)
        for k in range(1, 41):
            got = robust_value_iteration(prod, tol=1e-10, max_sweeps=k)
            assert got.sweeps <= k
            assert np.all(got.values <= want + 1e-9)
            assert np.all(got.values >= prev)
            prev = got.values

    def test_a_stable_strategy_ends_the_pass(self):
        # below the rounding of an exact evaluation the Bellman residual
        # never reaches tol; once an improvement step switches no held
        # action, the held strategy's value is the fixed point to 1e-12
        # and the pass ends there instead of spending its budget
        for seed in (3, 11):
            res = robust_value_iteration(random_product(seed, n_actions=3), tol=1e-16, max_sweeps=50)
            assert res.converged and res.sweeps < 20
            assert res.residual < 1e-12

    def test_held_strategy_is_refreshed(self):
        # action 0 self-loops, action 1 moves one state up with 0.9, else to
        # the sink; at the first improvement step only state 5 sees the
        # goal, so every other state holds the self-loop until a later one
        n = 6
        accepting = np.r_[np.zeros(n, bool), True, False]
        sink = np.r_[np.zeros(n, bool), False, True]
        rows = {}
        for s in range(n):
            rows[(s, 0)] = (np.array([s]), np.ones(1), np.ones(1))
            rows[(s, 1)] = (np.array([s + 1, n + 1]), np.array([0.9, 0.1]), np.array([0.9, 0.1]))
        res = robust_value_iteration(FakeProduct(accepting, sink, rows, 2), tol=1e-12)
        assert res.converged
        assert np.allclose(res.values[:n], 0.9 ** (n - np.arange(n)), rtol=0, atol=1e-15)
        assert res.full_sweeps > 1

    def test_cut_after_an_evaluation_is_not_converged(self):
        # an exact evaluation of the held strategy counts as one sweep, and
        # only an improvement step can end the pass
        prod = random_product(11, n_actions=3)
        whole = robust_value_iteration(prod, tol=1e-10)
        assert whole.converged and whole.full_sweeps < whole.sweeps
        cut_after_evaluation = 0
        prev_full = 0
        for k in range(1, whole.sweeps):
            got = robust_value_iteration(prod, tol=1e-10, max_sweeps=k)
            assert got.sweeps == k and not got.converged
            cut_after_evaluation += got.full_sweeps == prev_full  # sweep k evaluated the strategy
            prev_full = got.full_sweeps
        assert cut_after_evaluation > 0

    def test_fixed_strategy_sweeps_are_all_full(self):
        prod = random_product(7, n_actions=3)
        res = robust_value_iteration(prod, tol=1e-10)
        upper = evaluate_strategy_upper(prod, res.strategy)
        assert upper.converged and upper.full_sweeps == upper.sweeps > 1

    @pytest.mark.parametrize("bad", [2, -1])
    def test_strategy_outside_the_actions_rejected(self, bad):
        prod = random_product(3)
        strategy = robust_value_iteration(prod, tol=1e-10).strategy
        strategy[4] = bad
        with pytest.raises(ValueError, match=r"strategy\[4\]"):
            evaluate_strategy_upper(prod, strategy)

    def test_strategy_not_of_integers_rejected(self):
        # a float strategy was once truncated to its integer part, and a bool
        # one read as actions 0 and 1
        prod = random_product(3)
        strategy = robust_value_iteration(prod, tol=1e-10).strategy
        for bad in (strategy + 0.7, strategy > 0):
            with pytest.raises(ValueError, match=f"dtype {bad.dtype}"):
                evaluate_strategy_upper(prod, bad)

    def test_strategy_of_wrong_length_rejected(self):
        prod = random_product(3)
        with pytest.raises(ValueError, match="first bad state 5"):
            evaluate_strategy_upper(prod, np.zeros(5, dtype=np.int64))

    @pytest.mark.parametrize("bad, match", [
        (np.zeros(5, dtype=np.int64), r"start has shape \(5,\).*first bad state 5"),
        (np.zeros(12), "start has dtype float64"),
        (np.zeros(12, dtype=bool), "start has dtype bool"),
        (np.r_[0, 0, 0, 0, 2, np.zeros(7, dtype=np.int64)], r"start\[4\] = 2 is not an action index"),
        (np.r_[0, 0, 0, 0, -1, np.zeros(7, dtype=np.int64)], r"start\[4\] = -1 is not an action index"),
    ])
    def test_bad_start_rejected(self, bad, match):
        # the start strategy is checked by evaluate_strategy_upper's rule
        with pytest.raises(ValueError, match=match):
            robust_value_iteration(random_product(3), tol=1e-10, start=bad)

    def test_deterministic_across_runs(self):
        prod = random_product(19)
        a = robust_value_iteration(prod, tol=1e-8)
        b = robust_value_iteration(prod, tol=1e-8)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.strategy, b.strategy)
        assert a.sweeps == b.sweeps


class TestWarmStart:
    """The maximin pass started from a given strategy, and the optimistic
    pass whose first pick is ranked by given values."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-16])
    def test_an_optimal_start_ends_after_two_sweeps(self, tol):
        # its evaluation, then an improvement step that switches nothing:
        # below rounding (1e-16) that step ends the pass, as after any
        # evaluation, and the pass emits the start it held
        for seed in (3, 11, 29):
            prod = random_product(seed, n_actions=3)
            cold = robust_value_iteration(prod, tol=tol)
            warm = robust_value_iteration(prod, tol=tol, start=cold.strategy)
            assert cold.converged and cold.sweeps > 2
            assert warm.converged and warm.sweeps == 2 and warm.full_sweeps == 1
            assert np.array_equal(warm.strategy, cold.strategy)
            assert np.max(np.abs(warm.values - cold.values)) < 1e-12

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_any_start_reaches_the_fixed_point(self, seed):
        prod = random_product(seed, n_actions=3)
        want = jacobi_lp_values(prod)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            start = rng.integers(0, 3, prod.num_states)
            got = robust_value_iteration(prod, tol=1e-10, start=start)
            assert got.converged
            assert np.max(np.abs(got.values - want)) < 1e-9

    @pytest.mark.parametrize("start", [0, 1])
    def test_a_self_loop_start_is_left(self, start):
        # action 0 self-loops, action 1 reaches the goal: from the self-loop
        # the evaluation values the state at 0 and the next step switches
        stay = (np.array([0]), np.ones(1), np.ones(1))
        go = (np.array([1]), np.ones(1), np.ones(1))
        prod = _one_live_state({0: stay, 1: go})
        got = robust_value_iteration(prod, tol=1e-12, start=np.array([start, 0, 0]))
        assert got.converged and got.values.tolist() == [1.0, 1.0, 0.0]
        assert got.values[0] == jacobi_lp_values(prod)[0]
        assert got.sweeps == (4 if start == 0 else 2)

    def test_a_start_spends_no_budget_a_group_lacks(self):
        # the first groups may use up the budget: a later group then takes
        # no start evaluation, and no cut exceeds max_sweeps
        prod = random_dfa_product(TWO_GOALS, 3, num_actions=3)
        want = jacobi_lp_values(prod)
        start = np.random.default_rng(5).integers(0, 3, prod.num_states)
        whole = robust_value_iteration(prod, tol=1e-10, start=start)
        assert whole.converged
        assert np.max(np.abs(whole.values - want)) < 1e-6
        for k in range(1, whole.sweeps):
            got = robust_value_iteration(prod, tol=1e-10, max_sweeps=k, start=start)
            assert got.sweeps == k and not got.converged
            assert np.all(got.values <= want + 1e-9)

    @pytest.mark.parametrize("make", [lambda: random_product(7, n_actions=3),
                                      lambda: random_dfa_product(TWO_GOALS, 2, num_actions=3)],
                             ids=["one_group", "three_groups"])
    def test_a_ranked_upper_pass_is_the_cold_one(self, make):
        prod = make()
        low = robust_value_iteration(prod, tol=1e-10)
        cold = evaluate_strategy_upper(prod, low.strategy)
        ranked = evaluate_strategy_upper(prod, low.strategy, rank=low.values)
        assert cold.converged and ranked.converged
        assert np.max(np.abs(ranked.values - cold.values)) < 1e-12
        assert np.max(np.abs(ranked.values - jacobi_lp_values(prod, strategy=low.strategy))) < 1e-6
        assert ranked.sweeps <= cold.sweeps

    def test_rank_of_wrong_length_rejected(self):
        prod = random_product(3)
        with pytest.raises(ValueError, match="rank has shape"):
            evaluate_strategy_upper(prod, np.zeros(12, dtype=np.int64), rank=np.zeros(5))


def _one_live_state(rows):
    """State 0 live with the rows {action: (targets, lo, up)}, state 1 the
    goal, state 2 the sink."""
    accepting, sink = np.array([False, True, False]), np.array([False, False, True])
    return FakeProduct(accepting, sink, {(0, a): row for a, row in rows.items()}, len(rows))


class TestExactEvaluation:
    """The held strategy is evaluated by chain solves, not by sweeps."""

    def test_crawling_values_are_exact(self):
        # the state stays with 0.999 and otherwise reaches the goal, so its
        # value is 1; sweeps crawled toward it as 1 - 0.999^k and stood at
        # 0.99328, unconverged, after 5000 of them
        row = (np.array([0, 1]), np.array([0.999, 0.001]), np.array([0.999, 0.001]))
        prod = _one_live_state({0: row})
        low = robust_value_iteration(prod)
        high = evaluate_strategy_upper(prod, low.strategy)
        for res in (low, high):
            assert res.converged
            assert res.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_a_row_the_minimizer_can_hold_forever(self):
        # [0, 1] on itself and [0, 1] on the goal: the minimizer keeps all
        # the mass on the state, the maximizer sends it all to the goal
        prod = _one_live_state({0: (np.array([0, 1]), np.zeros(2), np.ones(2))})
        low = robust_value_iteration(prod)
        high = evaluate_strategy_upper(prod, low.strategy)
        assert low.converged and high.converged
        assert low.values[0] == 0.0 and high.values[0] == 1.0

    def test_the_graph_pass_finds_the_rows_the_minimizer_can_trap(self):
        # states 0-5 live, 6 the goal, 7 the sink, one action each
        rows = {
            (0, 0): ([0, 6], [0.0, 0.0], [1.0, 1.0]),  # may stay forever
            (1, 0): ([1, 6], [0.0, 0.0], [0.5, 1.0]),  # must send half to the goal
            (2, 0): ([0, 6], [0.0, 0.0], [1.0, 1.0]),  # may go to state 0
            (3, 0): ([1, 7], [0.0, 0.0], [1.0, 1.0]),  # may go to the sink, of value 0
            (4, 0): ([1, 4], [0.0, 0.0], [1.0, 1.0]),  # may stay, or go to state 1
            (5, 0): ([0, 6], [0.5, 0.1], [0.9, 0.5]),  # a lower bound on the goal
        }
        rows = {k: (np.array(t), np.array(lo), np.array(up)) for k, (t, lo, up) in rows.items()}
        accepting, sink = np.eye(8, dtype=bool)[6], np.eye(8, dtype=bool)[7]
        prod = FakeProduct(accepting, sink, rows, 1)
        (kernel, inner), = _groups(prod)
        states = np.flatnonzero(inner)
        V = prod.accepting.astype(float)
        trapped = _traps(kernel, V, states, prod.rows.first[states])
        assert trapped.tolist() == [True, False, True, True, True, False]
        low = robust_value_iteration(prod, tol=1e-12)
        assert low.converged
        assert np.array_equal(low.values[:6] == 0.0, trapped)
        assert np.all(low.values[:6] <= jacobi_lp_values(prod)[:6] + 1e-9)

    def test_a_trap_tied_with_its_exit_is_worth_0(self):
        # state 1 may stay on itself or move to state 0, which reaches the
        # goal through state 2 with 0.5. After the first sweep states 0 and
        # 1 are both at 0, and the minimizer's first chain sends state 1 to
        # state 0; solved from above, both then sit at 0.5, tied, and no
        # row gains: without the graph pass state 1 stalled at 0.5
        rows = {
            (0, 0): (np.array([2]), np.ones(1), np.ones(1)),
            (1, 0): (np.array([0, 1]), np.zeros(2), np.ones(2)),
            (2, 0): (np.array([3, 4]), np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        }
        accepting, sink = np.eye(5, dtype=bool)[3], np.eye(5, dtype=bool)[4]
        prod = FakeProduct(accepting, sink, rows, 1)
        low = robust_value_iteration(prod, tol=1e-12)
        assert low.converged
        assert low.values[:3].tolist() == [0.5, 0.0, 0.5]
        assert np.max(np.abs(low.values - jacobi_lp_values(prod))) < 1e-12

    def test_a_tie_keeps_the_held_action(self):
        # action 0 self-loops and action 1 reaches the goal; at V = 1 both
        # are worth 1. The improvement step keeps action 1; an argmax that
        # moved to action 0 would hold the state on a row the evaluation
        # values at 0
        stay = (np.array([0]), np.ones(1), np.ones(1))
        go = (np.array([1]), np.ones(1), np.ones(1))
        prod = _one_live_state({0: stay, 1: go})
        (kernel, inner), = _groups(prod)
        states = np.flatnonzero(inner)
        V = np.array([1.0, 1.0, 0.0])
        choice = np.array([1])
        residual, switched, choice = _improve(kernel, V, states, choice)
        assert residual == 0.0 and not switched and choice[0] == 1
        assert V.tolist() == [1.0, 1.0, 0.0]  # an improvement step only reads V
        _evaluate(kernel, V, states, prod.rows.first[states] + choice, maximize=False)
        assert V[0] == 1.0
        V[0] = 0.0
        _evaluate(kernel, V, states, prod.rows.first[states], maximize=False)  # the self-loop
        assert V[0] == 0.0

    def test_the_emitted_action_reaches_the_goal(self):
        # action 0 self-loops and action 1 reaches the goal. The pass
        # switches to action 1, whose evaluation values the state at 1, and
        # emits that action: its optimistic value is 1 too, with no clamp.
        # An extraction of the lowest-index action within tol at V = 1
        # emitted the self-loop, whose optimistic value is 0
        stay = (np.array([0]), np.ones(1), np.ones(1))
        go = (np.array([1]), np.ones(1), np.ones(1))
        prod = _one_live_state({0: stay, 1: go})
        low = robust_value_iteration(prod)
        assert low.converged and low.strategy[0] == 1
        high = evaluate_strategy_upper(prod, low.strategy)
        assert high.values[0] == low.values[0] == 1.0

    def test_no_evaluation_lowers_the_values(self):
        # a chain of states that each may self-loop or move on, and a state
        # that ties a self-loop with the goal once the first evaluation has
        # valued it at 1: no later evaluation lowers any value
        n = 6
        accepting = np.r_[np.zeros(n + 1, bool), True, False]
        sink = np.r_[np.zeros(n + 1, bool), False, True]
        rows = {(n, 0): (np.array([n]), np.ones(1), np.ones(1)),
                (n, 1): (np.array([n + 1]), np.ones(1), np.ones(1))}
        for s in range(n):
            rows[(s, 0)] = (np.array([s]), np.ones(1), np.ones(1))
            rows[(s, 1)] = (np.array([s + 1, n + 2]), np.array([0.8, 0.1]), np.array([0.9, 0.2]))
        prod = FakeProduct(accepting, sink, rows, 2)
        whole = robust_value_iteration(prod, tol=1e-12)
        assert whole.converged and whole.full_sweeps > 2
        prev = np.zeros(prod.num_states)
        for k in range(1, whole.sweeps + 1):
            got = robust_value_iteration(prod, tol=1e-12, max_sweeps=k)
            assert np.all(got.values >= prev)
            assert got.values[n] == (1.0 if k >= 2 else 0.0)  # the first evaluation is sweep 2
            prev = got.values
        want = jacobi_lp_values(prod, sweeps=2000)
        assert np.max(np.abs(whole.values - want)) < 1e-9

    def test_the_maximizer_solves_only_what_reaches_value(self):
        # a closed pair of states and a self-loop are worth 0 to the
        # maximizer too; a state that may reach the goal is worth 1. A first
        # pick ranked as if every state were worth 1 floors no value
        rows = {
            (0, 0): (np.array([1]), np.ones(1), np.ones(1)),
            (1, 0): (np.array([0]), np.ones(1), np.ones(1)),
            (2, 0): (np.array([2]), np.ones(1), np.ones(1)),
            (3, 0): (np.array([0, 3, 4]), np.zeros(3), np.ones(3)),
        }
        accepting, sink = np.eye(6, dtype=bool)[4], np.eye(6, dtype=bool)[5]
        prod = FakeProduct(accepting, sink, rows, 1)
        for rank in (None, np.ones(6)):
            high = evaluate_strategy_upper(prod, np.zeros(6, dtype=np.int64), rank=rank)
            assert high.converged
            assert high.values[:4].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_synthesis_loads_no_scipy_linalg_or_sparse(self):
        # the package needs only numpy: importing scipy.special alone costs
        # about 0.25 s and 25 MiB, scipy.linalg or scipy.sparse 6 to 11 MiB
        # more. The run covers the abstraction, synthesis, one refinement
        # round and the Monte Carlo check.
        code = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from nndm_synth import fixtures, pipeline\n"
            "from nndm_synth.refinement import RefinementConfig\n"
            "nd, config = fixtures.reach_avoid_2d(grid=(4, 4))\n"
            "config = replace(config, refinement=RefinementConfig(per_round=2, rounds=1), sim_trials=50)\n"
            "result = pipeline.run_pipeline(config, nd=nd, monte_carlo=True)\n"
            "assert len(result.rounds) == 1 and result.validation is not None\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"


class TestGroupedSolve:
    """Products whose DFA has several live states, solved one group of
    product.solve_order() at a time."""

    def test_each_group_spans_only_its_reach(self):
        prod = random_dfa_product(TWO_GOALS, 1)
        widths = []
        for kernel, inner in _groups(prod):
            named = np.concatenate([prod.rows[s, a].targets for s in np.flatnonzero(inner)
                                    for a in range(prod.num_actions)])
            assert np.array_equal(kernel.order, np.union1d(np.flatnonzero(inner), named))
            widths.append(kernel.S)
        assert len(widths) == 3 and max(widths) < prod.num_states
        prod = random_dfa_product(ONE_GOAL, 1)
        assert [kernel.S for kernel, _ in _groups(prod)] == [prod.num_states]

    def test_both_passes_match_lp_oracle(self):
        prod = random_dfa_product(TWO_GOALS, 2)
        low = robust_value_iteration(prod, tol=1e-10)
        high = evaluate_strategy_upper(prod, low.strategy)
        assert low.converged and high.converged
        assert np.max(np.abs(low.values - jacobi_lp_values(prod))) < 1e-6
        assert np.max(np.abs(high.values - jacobi_lp_values(prod, strategy=low.strategy))) < 1e-6
        assert np.all(low.values <= high.values + 1e-9)

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_sweep_budget_spans_the_groups(self, upper):
        prod = random_dfa_product(TWO_GOALS, 3, num_actions=3)
        strategy = robust_value_iteration(prod, tol=1e-10).strategy

        def solve(**kw):
            if upper:
                return evaluate_strategy_upper(prod, strategy, **kw)
            return robust_value_iteration(prod, tol=1e-10, **kw)

        whole = solve()
        assert whole.converged
        for k in range(1, whole.sweeps):
            got = solve(max_sweeps=k)
            assert got.sweeps == k and not got.converged
            assert np.all(got.values <= whole.values)


def _store(rows, num_cells, num_actions, rem=None):
    """rows, a list of (targets, lower, upper) in (cell, action) order, as a
    store with all of each cell's rows and the remainders `rem` (default 0),
    packed as given: unlike from_rows, this does not refuse
    unordered targets, so Imdp.validate sees them."""
    targets, lower, upper = (np.concatenate(field) for field in zip(*rows))
    first = np.full(num_cells, -1)
    first[: len(rows) // num_actions] = np.arange(0, len(rows), num_actions)
    return RowStore(first, num_actions, [len(t) for t, _, _ in rows], targets, lower, upper, rem=rem)


class TestImdpValidate:
    labels = [frozenset(), frozenset({"goal"})]

    def _imdp(self, row, rem=0.0):
        return Imdp(actions=("a0",), labels=self.labels, rows=_store([row], 2, 1, [rem]))

    def test_valid_row_passes(self):
        self._imdp(mk_row([0, 1], [0.2, 0.3], [0.6, 0.7], uu=0.1)).validate()

    def test_label_count_mismatch(self):
        no_rows = from_rows({}, 2, 1)
        bad = Imdp(actions=("a0",), labels=[frozenset()], rows=no_rows)
        with pytest.raises(ValueError, match="label"):
            bad.validate()

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            self._imdp(mk_row([0, 1], [-0.1, 0.3], [0.6, 1.0])).validate()

    def test_lower_exceeds_upper(self):
        with pytest.raises(ValueError, match="exceeds"):
            self._imdp(mk_row([0, 1], [0.7, 0.3], [0.6, 1.0])).validate()

    def test_targets_must_be_increasing_cell_ids(self):
        for targets in ([1, 0], [1, 1], [-2, 1], [0, 2]):
            with pytest.raises(ValueError, match="targets"):
                self._imdp(mk_row(targets, [0.2, 0.3], [0.6, 0.7], uu=0.1)).validate()

    def test_target_ids_run_from_unsafe_id_to_the_last_cell(self):
        self._imdp(mk_row([UNSAFE_ID, 1], [0.2, 0.3], [0.6, 0.7])).validate()
        for targets in ([-2, 1], [0, 2]):
            with pytest.raises(ValueError, match="targets"):
                self._imdp(mk_row(targets, [0.2, 0.3], [0.6, 0.7])).validate()

    def test_infeasible_sums(self):
        with pytest.raises(ValueError, match="infeasible"):
            self._imdp(mk_row([0, 1], [0.6, 0.6], [0.7, 0.7])).validate()
        with pytest.raises(ValueError, match="infeasible"):
            self._imdp(mk_row([0, 1], [0.1, 0.1], [0.3, 0.3])).validate()

    def test_remainder_counts_in_the_upper_sum(self):
        # upper sums to 0.9: the row is feasible once its remainder makes up
        # the rest, and the error reports the sum with the remainder
        row = mk_row([0, 1], [0.2, 0.3], [0.4, 0.5])
        self._imdp(row, rem=0.1).validate()
        with pytest.raises(ValueError, match=r"infeasible sums \(lower 0.5, upper with remainder 0.95"):
            self._imdp(row, rem=0.05).validate()

    @pytest.mark.parametrize("rem", [-1e-9, 1.0 + 1e-9, np.nan])
    def test_remainder_outside_unit_interval(self, rem):
        # the second action's row of cell 1 is the only bad one
        good = mk_row([0, 1, 2], [0.2, 0.3, 0.1], [0.6, 0.7, 0.5])
        rows = _store([good] * 6, 3, 2, [0.0, 0.0, 0.0, rem, 0.0, 0.0])
        imdp = Imdp(actions=("a0", "a1"), labels=[frozenset()] * 3, rows=rows)
        with pytest.raises(ValueError, match=r"row \(1, 1\): remainder outside \[0, 1\]"):
            imdp.validate()
        self._imdp(mk_row([0, 1], [0.2, 0.3], [0.6, 0.7]), rem=1.0).validate()  # 1 is allowed

    @pytest.mark.parametrize("bad, match", [
        (mk_row([0, 1, 2], [0.5, 0.4, 0.3], [0.6, 0.7, 0.5]), "infeasible"),
        (mk_row([0, 1, 2], [0.2, 0.8, 0.1], [0.6, 0.7, 0.5]), "exceeds"),
        (mk_row([0, 1, 2], [0.2, 0.3, 0.1], [0.6, 1.2, 0.5]), "outside"),
        (mk_row([0, 2, 1], [0.2, 0.3, 0.1], [0.6, 0.7, 0.5]), "targets"),
    ])
    def test_names_the_bad_row_of_a_stack(self, bad, match):
        # three cells with two actions each; only row (1, 1), in the middle
        # of the store, fails, and the error names it, not the first row
        good = mk_row([0, 1, 2], [0.2, 0.3, 0.1], [0.6, 0.7, 0.5])
        rows = _store([good, good, good, bad, good, good], 3, 2)
        imdp = Imdp(actions=("a0", "a1"), labels=[frozenset()] * 3, rows=rows)
        with pytest.raises(ValueError, match=rf"row \(1, 1\): .*{match}"):
            imdp.validate()
        Imdp(actions=("a0", "a1"), labels=[frozenset()] * 3, rows=_store([good] * 6, 3, 2)).validate()
