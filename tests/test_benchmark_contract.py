"""The names the benchmark harness (perfbench/) wraps and reads must stay live.

The harness times each stage by monkeypatching names on `nndm_synth.pipeline`
and reads the product's rows to count work. A renamed stage would silently
read 0 in the benchmark instead of failing, so the contract is pinned here,
together with the fields, methods and config options the harness reads.
"""

from dataclasses import replace

import numpy as np
import pytest

from nndm_synth import pipeline
from nndm_synth.fixtures import reach_avoid_2d
from nndm_synth.geometry import RegionGrid
from nndm_synth.refinement import RefinementConfig

WRAPPED = (
    "build_abstraction",
    "synthesize",
    "apply_refinement",
    "refine_round",
    "validate_monte_carlo",
    "emit_outputs",
    "build_product",
    "robust_value_iteration",
    "evaluate_strategy_upper",
    "evaluate",
    "build_grid",
    "whitening_transform",
)


@pytest.fixture(scope="module")
def small():
    nd, config = reach_avoid_2d(grid=(4, 4))
    return config, pipeline.build_abstraction(nd, config)


@pytest.mark.parametrize("name", WRAPPED)
def test_wrapped_stage_is_a_pipeline_attribute(name):
    assert callable(getattr(pipeline, name, None))


def test_synthesize_calls_stages_through_the_module(small, monkeypatch):
    config, abstraction = small
    calls = dict.fromkeys(("build_product", "robust_value_iteration", "evaluate_strategy_upper"), 0)
    for name in calls:
        real = getattr(pipeline, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    pipeline.synthesize(abstraction, config.dfa, config.vi_tolerance, config.vi_max_sweeps)
    assert calls == dict.fromkeys(calls, 1)


def test_monte_carlo_evaluates_and_locates_through_the_wrapped_names(small, monkeypatch):
    # the harness counts points at pipeline.evaluate and RegionGrid.locate;
    # every simulated step evaluates and locates the same running runs
    config, abstraction = small
    result = pipeline.run_pipeline(replace(config, sim_trials=50, sim_start_cells=3),
                                   nd=abstraction.dynamics)
    points = {"evaluate": 0, "locate": 0}
    real_evaluate, real_locate = pipeline.evaluate, RegionGrid.locate

    def evaluate(nd, action, x):
        points["evaluate"] += np.atleast_2d(x).shape[0]
        return real_evaluate(nd, action, x)

    def locate(grid, pts):
        points["locate"] += np.atleast_2d(pts).shape[0]
        return real_locate(grid, pts)

    monkeypatch.setattr(pipeline, "evaluate", evaluate)
    monkeypatch.setattr(RegionGrid, "locate", locate)
    pipeline.validate_monte_carlo(result)
    assert points["evaluate"] == points["locate"] > 0


def test_product_rows_items_cover_the_store(small):
    config, abstraction = small
    product = pipeline.build_product(abstraction.imdp, config.dfa)
    total = 0
    for (pid, a), (targets, lo, up) in product.rows.items():
        assert 0 <= pid < product.num_states and 0 <= a < product.num_actions
        assert targets.dtype.kind == "i" and targets.shape == lo.shape == up.shape
        total += len(targets)
    assert total == product.rows.indptr[-1] == product.rows.col.size
    assert len(product.rows) == product.rows.indptr.size - 1
    live = ~(product.accepting | product.sink)
    assert len(product.rows) == np.count_nonzero(live) * product.num_actions


def test_config_takes_seed_and_threads_through_replace(small):
    config, _ = small
    changed = replace(config, seed=1, threads=1)
    assert (changed.seed, changed.threads) == (1, 1)


def test_result_imdp_validates_and_rows_carry_targets(small):
    config, abstraction = small
    one_round = replace(config, refinement=RefinementConfig(per_round=1, rounds=1))
    result = pipeline.run_pipeline(one_round, nd=abstraction.dynamics)
    imdp = result.abstraction.imdp
    imdp.validate()
    rows = list(imdp.rows.values())
    stored = sum(row.lower.size for row in rows)
    assert sum(len(row.targets) for row in rows) == stored == sum(row.upper.size for row in rows)


def test_grid_boxes_are_lo_and_hi(small):
    _, abstraction = small
    grid = abstraction.grid
    lows, highs = grid.boxes()
    assert lows is grid.lo and highs is grid.hi
    assert lows.shape == highs.shape == (grid.num_cells, grid.dim)


def test_refine_outcome_reports_splits_and_dirty_rows(small):
    config, abstraction = small
    ab = pipeline.build_abstraction(abstraction.dynamics, config)  # refine_round mutates the grid
    synth = pipeline.synthesize(ab, config.dfa)
    outcome = pipeline.refine_round(
        ab.grid, ab.imdp, synth.p_lower, synth.p_upper, RefinementConfig(per_round=1), ab.bounds
    )
    assert len(outcome.splits) == 1
    assert len(outcome.dirty) == 2 * ab.imdp.num_actions
