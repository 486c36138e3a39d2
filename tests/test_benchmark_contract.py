"""The names the benchmark harness (perfbench/probe.py) wraps must stay live.

The harness times each stage by monkeypatching names on `nndm_synth.pipeline`
and reads the product's rows to count work. A renamed stage would silently
read 0 in the benchmark instead of failing, so the contract is pinned here.
"""

import numpy as np
import pytest

from nndm_synth import pipeline
from nndm_synth.fixtures import reach_avoid_2d

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
