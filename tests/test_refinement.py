"""Refinement scoring, split-dimension choice, and the rows after a round
of splits, checked bit for bit against a full rebuild of the refined grid."""

from dataclasses import replace

import numpy as np
import pytest

from nndm_synth.fixtures import reach_avoid_2d, vehicle_3d
from nndm_synth.geometry import (
    UNSAFE_ID,
    HyperRect,
    RegionGrid,
    build_grid,
    post_image_boxes,
    whitening_transform,
)
from nndm_synth.imdp import Imdp
from nndm_synth.networks import Activation, DenseLayer, NeuralDynamics
from nndm_synth.pipeline import Abstraction, apply_refinement, build_abstraction, synthesize
from nndm_synth.refinement import (
    RefinementConfig,
    RefineOutcome,
    refine_round,
    score_states,
    split_dimension,
)
from nndm_synth.relaxation import LinearBounds, relax_cells
from nndm_synth.transitions import transition_rows

from oracles import from_rows, relax_box


def _lb(*pairs, n=2):
    """A stack of one envelope per (A_lo, A_hi) pair, offsets zero."""
    A_lo = np.array([lo for lo, _ in pairs], float).reshape(-1, n, n)
    A_hi = np.array([hi for _, hi in pairs], float).reshape(-1, n, n)
    return LinearBounds(A_lo=A_lo, b_lo=np.zeros(A_lo.shape[:2]),
                        A_hi=A_hi, b_hi=np.zeros(A_hi.shape[:2]))


class TestSplitDimension:
    def test_edges_picks_largest_column(self):
        b = _lb((np.diag([1.0, 3.0]), np.diag([1.0, 3.0])))
        assert split_dimension(b) == 1

    def test_edges_considers_all_matrices(self):
        b = _lb((np.diag([2.0, 1.0]), np.eye(2)), (np.eye(2), np.diag([1.0, 5.0])))
        assert split_dimension(b) == 1

    def test_tie_resolves_to_lowest(self):
        assert split_dimension(_lb((np.eye(2), np.eye(2)))) == 0


def _score_fixture():
    rows = {
        (0, 0): (np.array([UNSAFE_ID, 0, 1]), np.array([0.0, 0.2, 0.3]), np.array([0.4, 0.4, 0.6])),
        (1, 0): (np.array([UNSAFE_ID, 1]), np.array([0.0, 0.8]), np.array([0.2, 1.0])),
    }
    return Imdp(actions=("a0",), labels=[frozenset(), frozenset()],
                rows=from_rows(rows, 2, 1))


class TestScoreStates:
    def test_scores_are_gap_times_incoming(self):
        imdp = _score_fixture()
        # incoming gap: cell 0 gets 0.2, cell 1 gets 0.3 + 0.2
        scores = score_states(imdp, np.array([0.3, 0.8]), np.array([0.8, 0.9]))
        assert scores == pytest.approx([0.5 * 0.2, 0.1 * 0.5])

    def test_out_of_domain_gap_is_not_scored(self):
        # the UNSAFE_ID gaps (0.4 and 0.2) must not land on the last cell
        scores = score_states(_score_fixture(), np.zeros(2), np.ones(2))
        assert scores == pytest.approx([0.2, 0.3 + 0.2])

    def test_order_flips_with_gaps(self):
        imdp = _score_fixture()
        scores = score_states(imdp, np.array([0.8, 0.1]), np.array([0.9, 0.9]))
        assert scores[1] > scores[0]

    def test_zero_gap_scores_zero(self):
        imdp = _score_fixture()
        p = np.array([0.4, 0.6])
        assert np.all(score_states(imdp, p, p) == 0.0)


@pytest.fixture(scope="module")
def small_problem():
    nd, config = reach_avoid_2d(grid=(6, 6))
    ab = build_abstraction(nd, config)
    syn = synthesize(ab, config.dfa)
    return nd, config, ab, syn


def _unit_cells_in_a_row(n):
    lo = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    return RegionGrid(lo=lo, hi=lo + 1.0, labels=[frozenset()] * n,
                      domain=HyperRect([0.0, 0.0], [float(n), 1.0]),
                      transform=whitening_transform(np.eye(2)))


def _total_volume(grid):
    lows, highs = grid.boxes()
    return float(np.prod(highs - lows, axis=1).sum())


class TestRefineRound:
    def test_zero_per_round_is_a_no_op(self, small_problem):
        _, _, ab, syn = small_problem
        before = ab.grid.num_cells
        out = refine_round(ab.grid, ab.imdp, syn.p_lower, syn.p_upper,
                           RefinementConfig(), ab.bounds)
        assert not out.splits and not out.dirty
        assert ab.grid.num_cells == before

    @pytest.mark.parametrize("settings, key", [
        ({"per_round": -1}, "'per_round'"),
        ({"rounds": -1}, "'rounds'"),
        ({"stop_width": float("-inf")}, "'stop_width'"),
        ({"stop_width": -1.0}, "'stop_width'"),
        ({"stop_width": float("nan")}, "'stop_width'"),
        ({"stop_width": float("inf")}, "'stop_width'"),
        # a fraction or a string: TypeErrors in refine_round, run_pipeline
        # or a comparison, not errors naming the key
        ({"per_round": 2.5}, "'per_round'"),
        ({"rounds": 1.5}, "'rounds'"),
        ({"stop_width": "0"}, "'stop_width'"),
        ({"per_round": True}, "'per_round'"),
    ])
    def test_bad_settings_rejected_before_splitting(self, settings, key):
        # per_round=-1 once took scores[:-1] and split all but the last cell;
        # now no such config can be built or derived, so no round gets one
        with pytest.raises(ValueError, match=key):
            RefinementConfig(**{"per_round": 1, **settings})
        with pytest.raises(ValueError, match=key):
            replace(RefinementConfig(per_round=1), **settings)

    def test_equal_scores_split_the_lower_id_first(self):
        # cell 0 scores 0.12, cells 1 and 2 both 0.6: one split goes to cell 1
        row = (np.arange(3), np.full(3, 0.1), np.full(3, 0.5))
        imdp = Imdp(actions=("a0",), labels=[frozenset()] * 3,
                    rows=from_rows({(c, 0): row for c in range(3)}, 3, 1))
        grid = _unit_cells_in_a_row(3)
        out = refine_round(grid, imdp, np.array([0.5, 0.2, 0.2]), np.array([0.6, 0.7, 0.7]),
                           RefinementConfig(per_round=1), _lb(*[(np.eye(2), np.eye(2))] * 3))
        assert out.splits == [(1, 3, 0)]

    def test_zero_scores_split_nothing(self):
        imdp = _score_fixture()
        p = np.array([0.5, 0.5])
        out = refine_round(_unit_cells_in_a_row(2), imdp, p, p,
                           RefinementConfig(per_round=5), {})
        assert not out.splits


def _unsplit_rows_meeting_parents(ab, out, parent_lo, parent_hi):
    """How many rows outside out.dirty have a post-image rectangle that
    meets a split parent (closed boxes); call before apply_refinement."""
    lows = np.array([parent_lo[low] for low, _, _ in out.splits])
    highs = np.array([parent_hi[low] for low, _, _ in out.splits])
    count = 0
    A = ab.imdp.num_actions
    for r, key in enumerate(ab.imdp.rows):
        if key in out.dirty:
            continue
        assert r == key[0] * A + key[1]  # envelope r is row r's
        box_lo, box_hi = post_image_boxes(ab.bounds[r : r + 1], ab.grid.lo[[key[0]]], ab.grid.hi[[key[0]]])
        rect_lo, rect_hi = box_lo[0].min(axis=0), box_hi[0].max(axis=0)
        count += bool(np.all((highs >= rect_lo) & (lows <= rect_hi), axis=1).any())
    return count


def _refine_once(ab, config, per_round):
    """One refinement round; returns the outcome, how many unsplit rows
    meet a split parent, and how many unsplit rows' remainders moved."""
    syn = synthesize(ab, config.dfa)
    parent_lo, parent_hi = ab.grid.lo.copy(), ab.grid.hi.copy()
    out = refine_round(ab.grid, ab.imdp, syn.p_lower, syn.p_upper,
                       RefinementConfig(per_round=per_round), ab.bounds)
    assert out.splits, "fixture should have positive refinement scores"
    meeting = _unsplit_rows_meeting_parents(ab, out, parent_lo, parent_hi)
    rem = ab.imdp.rows.rem.copy()
    apply_refinement(ab, out)
    ab.imdp.validate()
    A = ab.imdp.num_actions
    unsplit = ~np.isin(np.arange(rem.size) // A, [c for low, new, _ in out.splits for c in (low, new)])
    moved = int(np.count_nonzero(ab.imdp.rows.rem[: rem.size][unsplit] != rem[unsplit]))
    return out, meeting, moved


def _assert_matches_full_rebuild(ab, nd):
    """Every row, its remainder, and its envelope in the stack, equal a
    fresh build bit for bit."""
    grid = ab.grid
    A = len(nd.actions)
    assert ab.imdp.num_cells == grid.num_cells
    assert len(ab.bounds) == len(ab.imdp.rows) == grid.num_cells * A
    for cell in range(grid.num_cells):
        for a, action in enumerate(nd.actions):
            b = relax_box(nd, action, grid.transform, grid.cell(cell))
            kept = ab.bounds[cell * A + a]
            for name in ("A_lo", "b_lo", "A_hi", "b_hi"):
                assert np.array_equal(getattr(kept, name), getattr(b, name)), (cell, a, name)
            rebuilt = transition_rows(grid, [cell], (action,), b[None])
            want = rebuilt[(0, 0)]
            got = ab.imdp.rows[(cell, a)]
            assert np.array_equal(got.targets, want.targets), (cell, a)
            assert np.array_equal(got.lower, want.lower), (cell, a)
            assert np.array_equal(got.upper, want.upper), (cell, a)
            assert ab.imdp.rows.rem[cell * A + a].tobytes() == rebuilt.rem[0].tobytes(), (cell, a)


class TestApplyRefinement:
    def test_matches_full_rebuild_bitwise(self, small_problem):
        nd, config, _, _ = small_problem
        # fresh abstraction: this test mutates it
        ab = build_abstraction(nd, config)
        _, meeting, moved = _refine_once(ab, config, per_round=4)
        # unsplit rows whose rectangles meet a split parent keep the
        # vertex-minimum branch exercised on the children, and unsplit rows'
        # remainders change with the pruned mass of the children
        assert meeting > 0 and moved > 0
        _assert_matches_full_rebuild(ab, nd)

    def test_two_rounds_3d_match_full_rebuild_bitwise(self):
        nd, config = vehicle_3d(grid=(5, 4, 3))
        ab = build_abstraction(nd, config)
        for _ in range(2):
            _, meeting, moved = _refine_once(ab, config, per_round=6)
            assert meeting > 0 and moved > 0
        _assert_matches_full_rebuild(ab, nd)

    def test_keeps_the_unsafe_entry_when_the_last_cell_is_split(self):
        # two unit cells on a domain about as wide as the unit noise: every
        # row carries out-of-domain mass, and UNSAFE_ID (-1) must stay first
        # in each row and not alias the last cell, whose split adds the
        # highest id
        nd = NeuralDynamics(dim=2, actions=("stay",), networks={
            "stay": (DenseLayer(np.eye(2), np.zeros(2), Activation.LINEAR),)})
        grid = build_grid(HyperRect([0.0, 0.0], [2.0, 1.0]), whitening_transform(np.eye(2)), (2, 1))
        cells = np.arange(2)
        bounds = relax_cells(nd, nd.actions, grid.transform, grid.lo, grid.hi)
        imdp = Imdp(actions=nd.actions, labels=grid.labels,
                    rows=transition_rows(grid, cells, nd.actions, bounds))
        ab = Abstraction(dynamics=nd, grid=grid, bounds=bounds, imdp=imdp)
        new = grid.split_cell(1, 0)
        apply_refinement(ab, RefineOutcome(splits=[(1, new, 0)], dirty={(1, 0), (new, 0)}))
        ab.imdp.validate()
        assert len(ab.imdp.rows) == grid.num_cells == 3
        for (cell, _), row in ab.imdp.rows.items():
            assert row.targets[0] == UNSAFE_ID and row.upper[0] > 0.0
            assert np.array_equal(row.targets[1:], np.arange(3))  # every cell, the new one last
            alone = transition_rows(grid, [cell], nd.actions, ab.bounds[cell : cell + 1])[(0, 0)]
            for got, want in zip(row, alone):
                assert np.array_equal(got, want)

    def test_split_bookkeeping(self, small_problem):
        nd, config, _, _ = small_problem
        ab = build_abstraction(nd, config)
        syn = synthesize(ab, config.dfa)
        n_before = ab.grid.num_cells
        vol_before = _total_volume(ab.grid)
        out = refine_round(ab.grid, ab.imdp, syn.p_lower, syn.p_upper,
                           RefinementConfig(per_round=3), ab.bounds)
        apply_refinement(ab, out)
        assert ab.grid.num_cells == n_before + len(out.splits)
        assert _total_volume(ab.grid) == pytest.approx(vol_before, rel=1e-12)
        # labels stay shared and sized with the grid
        assert ab.imdp.labels is ab.grid.labels
        assert len(ab.grid.labels) == ab.grid.num_cells
        for low, new, dim in out.splits:
            assert ab.grid.labels[low] == ab.grid.labels[new]
            assert ab.grid.cell(low).hi[dim] == ab.grid.cell(new).lo[dim]
        # dirty rows are exactly every action of every child
        assert out.dirty == {(c, a) for low, new, _ in out.splits for c in (low, new)
                             for a in range(len(nd.actions))}

    def test_synthesis_still_runs_after_refinement(self, small_problem):
        nd, config, _, _ = small_problem
        ab = build_abstraction(nd, config)
        syn = synthesize(ab, config.dfa)
        out = refine_round(ab.grid, ab.imdp, syn.p_lower, syn.p_upper,
                           RefinementConfig(per_round=2), ab.bounds)
        apply_refinement(ab, out)
        syn2 = synthesize(ab, config.dfa)
        assert syn2.p_lower.shape == (ab.grid.num_cells,)
        assert np.all(syn2.p_lower <= syn2.p_upper + 1e-9)
