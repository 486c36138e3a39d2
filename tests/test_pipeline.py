"""Config parsing, end-to-end synthesis runs, output files, and the Monte
Carlo consistency check."""

import copy
import dataclasses
import json
import os
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from nndm_synth.automata import dfa_template, load_dfa
from nndm_synth.fixtures import random_network, reach_avoid_2d, vehicle_3d
from nndm_synth.geometry import HyperRect, RegionGrid, whitening_transform
from nndm_synth.imdp import _evaluate, _groups, evaluate_strategy_upper, robust_value_iteration
from nndm_synth import pipeline, transitions
from nndm_synth.networks import evaluate, load_networks
from nndm_synth.pipeline import (
    PipelineConfig,
    _clopper_pearson,
    _cp_verdict,
    _log_tail,
    _mc_schedule,
    _parse_covariance,
    build_abstraction,
    classify,
    emit_outputs,
    gap_stats,
    run_pipeline,
    synthesize,
    validate_monte_carlo,
)
from nndm_synth.refinement import RefinementConfig
from nndm_synth.relaxation import LinearBounds
from test_automata import simple_dfa


def test_pruned_certificates_contain_the_unpruned(monkeypatch):
    # the same abstraction with rows pruned into remainders and with nothing
    # pruned: the pruned certificate is the looser one, on both sides, for
    # the strategy it emits
    nd, config = reach_avoid_2d(grid=(6, 6))
    pruned = build_abstraction(nd, config)
    monkeypatch.setattr(transitions, "_PRUNE", 0.0)
    full = build_abstraction(nd, config)
    monkeypatch.undo()
    assert not full.imdp.rows.rem.any() and pruned.imdp.rows.rem.max() > 0.0
    assert pruned.imdp.rows.indptr[-1] < full.imdp.rows.indptr[-1]
    got = synthesize(pruned, config.dfa, tol=1e-12)
    ref = synthesize(full, config.dfa, tol=1e-12)
    assert got.lower.converged and ref.lower.converged
    assert np.all(got.p_lower <= ref.p_lower + 1e-12)
    assert np.any(got.p_lower < ref.p_lower - 1e-9), "fixture should have remainders that bind"
    # the emitted strategy on the unpruned product's states; a state only the
    # pruned targets reach is the remainder's there, any action will do
    action = dict(zip(map(tuple, got.product.states.tolist()), got.lower.strategy.tolist()))
    strategy = np.array([action.get(state, 0) for state in map(tuple, ref.product.states.tolist())])
    upper = evaluate_strategy_upper(ref.product, strategy)
    assert upper.converged
    assert np.all(upper.values[: full.imdp.num_cells] <= got.p_upper + 1e-12)


def test_p_lower_is_the_emitted_strategys_value():
    # the pessimistic value of the emitted strategy, evaluated exactly group
    # by group, is at least p_lower: the maximin pass once ended on a full
    # sweep whose values the strategy did not reach, here by 1.5e-7
    nd, config = vehicle_3d(grid=(5, 4, 3))
    synth = synthesize(build_abstraction(nd, config), config.dfa)
    product = synth.product
    V = product.accepting.astype(float)
    for kernel, inner in _groups(product):
        states = np.flatnonzero(inner)
        rows = product.rows.first[states] + synth.lower.strategy[states]
        _evaluate(kernel, V, states, rows, maximize=False)
    assert synth.lower.converged
    assert np.all(synth.p_lower <= V[: product.imdp.num_cells] + 1e-12)


def test_the_maximin_values_evaluate_the_emitted_strategy():
    # every state's maximin value is the emitted strategy's exact
    # pessimistic value, evaluated group by group with every other state
    # frozen at the pass's values, after the whole pass and after every
    # pass cut by the sweep budget; a group the cut left unevaluated still
    # holds the initial 0. An extraction of the lowest-index action within
    # tol emitted strategies whose value lay below p_lower here, in 40
    # cells by up to 1.05e-6
    nd, config = vehicle_3d(grid=(4, 4, 3))
    synth = synthesize(build_abstraction(nd, config), config.dfa, config.vi_tolerance)
    product = synth.product
    assert synth.lower.converged
    passes = [synth.lower] + [
        robust_value_iteration(product, config.vi_tolerance, max_sweeps=k)
        for k in range(1, synth.lower.sweeps + 1)
    ]
    for k, lower in enumerate(passes):
        for kernel, inner in _groups(product):
            states = np.flatnonzero(inner)
            V = lower.values.copy()
            V[states] = 0.0  # _evaluate never ends below its entry values
            _evaluate(kernel, V, states, product.rows.first[states] + lower.strategy[states], maximize=False)
            if k == 0 or np.any(lower.values[states] != 0.0):
                assert np.max(np.abs(lower.values[states] - V[states])) <= 1e-12, k


class TestParseCovariance:
    def test_scalar_isotropic(self):
        assert np.array_equal(_parse_covariance(0.5, 3), 0.5 * np.eye(3))

    def test_vector_diagonal(self):
        got = _parse_covariance([0.1, 0.2], 2)
        assert np.array_equal(got, np.diag([0.1, 0.2]))

    def test_full_matrix(self):
        m = [[0.2, 0.05], [0.05, 0.3]]
        assert np.array_equal(_parse_covariance(m, 2), np.asarray(m))

    def test_wrong_sizes(self):
        with pytest.raises(ValueError, match="entries"):
            _parse_covariance([0.1, 0.2, 0.3], 2)
        with pytest.raises(ValueError, match="covariance must be"):
            _parse_covariance(np.eye(3), 2)


BASE_RAW = {
    "domain": [[-2.0, 2.0], [-2.0, 2.0]],
    "covariance": 0.2,
    "grid": [4, 4],
    "regions": [
        {"label": "goal", "box": [[0.5, 1.5], [0.5, 1.5]]},
        {"label": "obst", "box": [[-1.5, -0.5], [-1.5, -0.5]]},
    ],
    "spec": {"template": "reach_avoid", "labels": {"avoid": "obst", "reach": "goal"}},
}


class TestConfigParsing:
    def test_from_dict_defaults(self):
        cfg = PipelineConfig.from_dict(BASE_RAW)
        assert cfg.domain.dim == 2
        assert np.array_equal(cfg.covariance, 0.2 * np.eye(2))
        assert cfg.grid == (4, 4)
        assert cfg.threshold == 0.95
        assert cfg.refinement.per_round == 0
        assert cfg.dfa.initial == "trying"
        assert dict(cfg.regions)["goal"].lo[0] == 0.5
        # every key left out takes the dataclass's default
        built = PipelineConfig(domain=cfg.domain, covariance=cfg.covariance, grid=[4, 4], dfa=cfg.dfa)
        for name in ("threshold", "refinement", "vi_tolerance", "vi_max_sweeps", "horizon",
                     "sim_trials", "sim_start_cells", "sim_horizon_factor", "seed", "threads"):
            assert getattr(cfg, name) == getattr(built, name), name

    def test_nested_sections(self):
        raw = dict(
            BASE_RAW,
            threshold=0.9,
            refinement={"per_round": 5, "rounds": 3, "stop_width": 0.25},
            vi={"tolerance": 1e-8, "max_sweeps": 100},
            simulation={"trials": 500, "horizon": 25},
            seed=42,
            threads=4,
        )
        cfg = PipelineConfig.from_dict(raw)
        assert cfg.threshold == 0.9
        assert cfg.refinement.per_round == 5 and cfg.refinement.rounds == 3
        assert cfg.refinement.stop_width == 0.25
        assert cfg.vi_tolerance == 1e-8 and cfg.vi_max_sweeps == 100
        assert cfg.sim_trials == 500 and cfg.horizon == 25
        assert cfg.seed == 42 and cfg.threads == 4

    def test_relative_paths_resolve_against_base_dir(self):
        raw = dict(BASE_RAW, network="nets.json")
        cfg = PipelineConfig.from_dict(raw, base_dir="/some/dir")
        assert cfg.network == os.path.join("/some/dir", "nets.json")

    def test_dfa_file_spec(self, tmp_path):
        dfa = dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"})
        (tmp_path / "aut.json").write_text(json.dumps(dfa.to_json()))
        raw = dict(BASE_RAW, spec={"dfa": "aut.json"})
        cfg = PipelineConfig.from_dict(raw, base_dir=str(tmp_path))
        assert cfg.dfa.states == dfa.states

    def test_spec_requires_template_or_dfa(self):
        with pytest.raises(ValueError, match=r"'template' in 'spec' \(a 'template' with its 'labels', or a 'dfa'\)"):
            PipelineConfig.from_dict(dict(BASE_RAW, spec={}))

    def test_bad_domain_shape(self):
        with pytest.raises(ValueError, match="lo, hi"):
            PipelineConfig.from_dict(dict(BASE_RAW, domain=[1.0, 2.0]))

    @pytest.mark.parametrize(
        "raw, key",
        [
            (dict(BASE_RAW, refinment={"rounds": 3}), "refinment"),
            (dict(BASE_RAW, refinement={"round": 3}), "round"),
            (dict(BASE_RAW, vi={"tol": 1e-8}), "tol"),
            (dict(BASE_RAW, simulation={"trails": 10}), "trails"),
            (dict(BASE_RAW, spec=dict(BASE_RAW["spec"], label={})), "label"),
            (dict(BASE_RAW, regions=[{"label": "goal", "bx": [[0, 1], [0, 1]]}]), "bx"),
            # the old default of a removed setting
            (dict(BASE_RAW, refinement={"split_mode": "edges"}), "split_mode"),
            # both spec forms at once: the template once won and 'dfa' was ignored
            (dict(BASE_RAW, spec=dict(BASE_RAW["spec"], dfa="aut.json")), "labels"),
            # a label key the template does not use was ignored
            (dict(BASE_RAW, spec={"template": "reach_avoid",
                                  "labels": {"avoid": "obst", "reach": "goal", "reach2": "x"}}), "reach2"),
        ],
    )
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({k: v for k, v in BASE_RAW.items() if k != "domain"}, "'domain'"),
            ({k: v for k, v in BASE_RAW.items() if k != "grid"}, "'grid'"),
            (dict(BASE_RAW, vi=5), "'vi'"),
            (dict(BASE_RAW, spec=5), "'spec'"),
            (dict(BASE_RAW, regions=[5]), "'regions'"),
            (dict(BASE_RAW, regions=[{"label": "goal"}]), "'box'"),
            (dict(BASE_RAW, spec={"template": "reach_avoid"}), "'labels'"),
            (dict(BASE_RAW, regions=[{"label": "goal", "box": [0.5, 1.5]}]), "'box'"),
            (dict(BASE_RAW, grid=5), "'grid'"),
            (dict(BASE_RAW, threshold=None), "'threshold'"),
            (dict(BASE_RAW, spec={"template": "reach_avoid", "labels": 5}), "'labels'"),
            (dict(BASE_RAW, spec={"template": "reach_avoid", "labels": "avoid reach"}), "'labels'"),
            (dict(BASE_RAW, simulation={"trials": 0}), "'trials'"),
            (dict(BASE_RAW, simulation={"trials": -3}), "'trials'"),
            (dict(BASE_RAW, simulation={"start_cells": -1}), "'start_cells'"),
            (dict(BASE_RAW, simulation={"horizon": 0}), "'horizon'"),
            (dict(BASE_RAW, simulation={"horizon_factor": 0}), "'horizon_factor'"),
            (dict(BASE_RAW, seed=-1), "'seed'"),
            (dict(BASE_RAW, refinement={"per_round": -2}), "'per_round'"),
            (dict(BASE_RAW, refinement={"rounds": -1}), "'rounds'"),
            (dict(BASE_RAW, refinement={"split_mode": "diag"}), "'split_mode'"),
            (dict(BASE_RAW, grid=[4.7, 4]), "'grid'"),
            (dict(BASE_RAW, grid=[True, 4]), "'grid'"),
            (dict(BASE_RAW, grid=["4", 4]), "'grid'"),
            (dict(BASE_RAW, seed=1.5), "'seed'"),
            (dict(BASE_RAW, seed=True), "'seed'"),
            (dict(BASE_RAW, simulation={"trials": 2.5}), "'trials'"),
            (dict(BASE_RAW, simulation={"trials": "10"}), "'trials'"),
            (dict(BASE_RAW, threshold=2.0), "'threshold'"),
            (dict(BASE_RAW, threshold=-1), "'threshold'"),
            (dict(BASE_RAW, threshold=float("nan")), "'threshold'"),
            (dict(BASE_RAW, threshold=True), "'threshold'"),
            (dict(BASE_RAW, threshold="0.9"), "'threshold'"),
            (dict(BASE_RAW, vi={"tolerance": 0}), "'tolerance'"),
            (dict(BASE_RAW, vi={"tolerance": float("nan")}), "'tolerance'"),
            (dict(BASE_RAW, vi={"tolerance": float("inf")}), "'tolerance'"),
            (dict(BASE_RAW, vi={"max_sweeps": 0}), "'max_sweeps'"),
            (dict(BASE_RAW, vi={"max_sweeps": -3}), "'max_sweeps'"),
            (dict(BASE_RAW, vi={"max_sweeps": float("inf")}), "'max_sweeps'"),
            (dict(BASE_RAW, domain=[["-2", True], [-2, 2]]), "'domain'"),
            (dict(BASE_RAW, domain=[[-2, True], [-2, 2]]), "'domain'"),
            (dict(BASE_RAW, domain=[[-2, 2], [-2]]), "'domain'"),
            (dict(BASE_RAW, covariance=True), "'covariance'"),
            (dict(BASE_RAW, covariance="0.2"), "'covariance'"),
            (dict(BASE_RAW, covariance=[0.1, True]), "'covariance'"),
            (dict(BASE_RAW, covariance=None), "'covariance'"),
            (dict(BASE_RAW, regions=[{"label": "goal", "box": [[0.5, "1.5"], [0.5, 1.5]]}]), "'box'"),
            (dict(BASE_RAW, refinement={"stop_width": -1}), "'stop_width'"),
            (dict(BASE_RAW, refinement={"stop_width": float("nan")}), "'stop_width'"),
            (dict(BASE_RAW, grid=[4]), "'grid'"),
            (dict(BASE_RAW, grid=[4, 0]), "'grid'"),
            # a name that is not a string: the first two were read as the
            # labels "5" and "['goal']", the others raised a TypeError
            (dict(BASE_RAW, regions=[{"label": 5, "box": [[0.5, 1.5], [0.5, 1.5]]}]), "'label'"),
            (dict(BASE_RAW, regions=[{"label": ["goal"], "box": [[0.5, 1.5], [0.5, 1.5]]}]), "'label'"),
            (dict(BASE_RAW, network=5), "'network'"),
            (dict(BASE_RAW, network=None), "'network'"),
            (dict(BASE_RAW, spec={"dfa": 5}), "'dfa'"),
            (dict(BASE_RAW, spec=dict(BASE_RAW["spec"], template=["reach_avoid"])), "'template'"),
            (dict(BASE_RAW, spec=dict(BASE_RAW["spec"], labels={"avoid": "obst", "reach": 5})), "'reach'"),
        ],
    )
    def test_malformed_config_names_the_key(self, raw, key):
        with pytest.raises(ValueError, match=key):
            PipelineConfig.from_dict(raw)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_RAW, network="n.json")))
        cfg = PipelineConfig.from_json(str(path))
        assert cfg.network == str(tmp_path / "n.json")

    def test_config_that_is_not_json_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        for text in (json.dumps(BASE_RAW)[:20].encode(), b"\xff{}"):  # truncated, not UTF-8
            path.write_bytes(text)
            with pytest.raises(ValueError, match="not valid JSON") as e:
                PipelineConfig.from_json(str(path))
            assert str(e.value).startswith(f"{path}: ")

    def test_bad_dfa_error_names_both_files(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(dict(simple_dfa().to_json(), initial=5)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_RAW, spec={"dfa": "spec.json"})))
        with pytest.raises(ValueError, match="'initial'") as e:
            PipelineConfig.from_json(str(path))
        assert str(e.value).startswith(f"{path}: {tmp_path / 'spec.json'}: ")


_ODD_VALUES = (5, "x", [1], {}, None, True)


def _replacements(doc):
    """Every copy of the JSON document doc with one value, at any depth,
    replaced by one of _ODD_VALUES."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        for new in (*_ODD_VALUES, *_replacements(value)):
            out = dict(doc) if isinstance(doc, dict) else list(doc)
            out[key] = new
            yield out


@pytest.mark.parametrize("reader", ["config", "networks", "dfa"])
def test_readers_load_or_raise_value_error(tmp_path, reader):
    # whatever value sits where, a reader loads the document or refuses it
    # with a ValueError that starts with the path, never a TypeError,
    # KeyError or AttributeError
    doc, load = {
        "config": (BASE_RAW, PipelineConfig.from_json),
        "networks": ({"dim": 1, "actions": ["a"], "networks": {
            "a": [{"weights": [[1.0]], "bias": [0.0], "activation": "linear"}]}}, load_networks),
        "dfa": (simple_dfa().to_json(), load_dfa),
    }[reader]
    path = tmp_path / "doc.json"
    cases = list(_replacements(doc))
    assert len(cases) >= 6 * 10
    for raw in cases:
        path.write_text(json.dumps(raw))
        try:
            load(str(path))
        except ValueError as e:
            assert str(e).startswith(f"{path}: "), (raw, e)


class TestConfigChecks:
    """A config checks itself however it is built: parsed, in code, or by
    dataclasses.replace."""

    @pytest.mark.parametrize("change, key", [
        ({"threshold": 1.5}, "'threshold'"),
        ({"vi_max_sweeps": 0}, "'max_sweeps'"),
        ({"grid": [6]}, "'grid'"),
        ({"grid": [6, 0]}, "'grid'"),
        ({"covariance": np.eye(3)}, "covariance must be 2x2"),
        ({"covariance": [0.1, 0.2, 0.3]}, "diagonal covariance"),
        # read as 0.2 and as the identity, where a config file refused both
        ({"covariance": "0.2"}, "'covariance'"),
        ({"covariance": True}, "'covariance'"),
        ({"covariance": np.array([True, True])}, "'covariance'"),
    ])
    def test_replace_rechecks(self, change, key):
        # each of these once ran: threshold 1.5 labelled every cell "no",
        # vi_max_sweeps 0 labelled cells from an upper pass that never ran
        _, config = reach_avoid_2d(grid=(6, 6))
        with pytest.raises(ValueError, match=key):
            replace(config, **change)

    def test_network_that_is_not_a_path_is_refused(self):
        # network=5 was accepted, and run_pipeline then read file
        # descriptor 5 and failed with "Bad file descriptor"
        _, config = reach_avoid_2d(grid=(4, 4))
        with pytest.raises(ValueError, match="'network'"):
            replace(config, network=5)
        assert replace(config, network="nets.json").network == "nets.json"

    @pytest.mark.parametrize("name, value, key", [
        ("sim_trials", 2.5, "simulation 'trials'"),
        ("seed", 1.5, "'seed'"),
        ("grid", (4.5, 4), "'grid'"),
        ("horizon", 60.5, "simulation 'horizon'"),
        ("vi_max_sweeps", 10.5, "vi 'max_sweeps'"),
        ("threshold", True, "'threshold'"),
        ("threshold", np.True_, "'threshold'"),
        ("threads", "x", "'threads'"),
        ("vi_tolerance", "1e-6", "vi 'tolerance'"),
    ])
    def test_a_value_json_refuses_is_refused_in_code(self, name, value, key):
        # each of these passed in code and by replace, where only the JSON
        # reader converted: the fractions crashed late as a TypeError, the
        # string tolerance as a TypeError from a comparison, and the rest ran
        _, config = reach_avoid_2d(grid=(4, 4))
        with pytest.raises(ValueError, match=key):
            PipelineConfig(**{**vars(config), name: value})
        with pytest.raises(ValueError, match=key):
            replace(config, **{name: value})

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        # np.int64 settings once ran the whole pipeline, then failed to
        # write summary.json and validation.json ("not JSON serializable")
        nd, config = reach_avoid_2d(grid=(4, 4))
        config = replace(config, seed=np.int64(50), sim_trials=np.int64(20), sim_start_cells=np.int64(2),
                         threshold=np.float64(0.9), grid=np.array([4, 4]),
                         refinement=RefinementConfig(per_round=np.int64(2), rounds=np.int64(1)))
        for value, kind in ((config.seed, int), (config.sim_trials, int), (config.threshold, float),
                            (config.grid[0], int), (config.refinement.per_round, int)):
            assert type(value) is kind
        run_pipeline(config, nd=nd, outdir=str(tmp_path), monte_carlo=True)
        assert json.loads((tmp_path / "summary.json").read_text())["seed"] == 50
        assert len(json.loads((tmp_path / "validation.json").read_text())["cells"]) == 2

    def test_unpickled_config_is_converted_and_checked(self):
        _, config = reach_avoid_2d(grid=(4, 4))
        config = replace(config, refinement=RefinementConfig(per_round=1))
        object.__setattr__(config, "seed", np.int64(5))
        object.__setattr__(config.refinement, "rounds", np.int64(2))
        back = pickle.loads(pickle.dumps(config))
        assert type(back.seed) is int and type(back.refinement.rounds) is int
        for obj, name, key in ((config, "sim_trials", "'trials'"), (config.refinement, "per_round", "'per_round'")):
            object.__setattr__(obj, name, 2.5)
            with pytest.raises(ValueError, match=key):
                pickle.loads(pickle.dumps(config))
            object.__setattr__(obj, name, 1)

    @pytest.mark.parametrize("label, what", [("goal2", "missing from the DFA alphabet"),
                                             ("unsafe", "'unsafe' is reserved")])
    def test_region_label_the_spec_cannot_read_is_refused(self, tmp_path, label, what):
        # refused when the config is built, not after the whole abstraction
        region = {"label": label, "box": [[0.5, 1.5], [-1.5, -0.5]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_RAW, regions=[*BASE_RAW["regions"], region])))
        with pytest.raises(ValueError, match=what) as e:
            PipelineConfig.from_json(str(path))
        assert str(e.value).startswith(f"{path}: ")
        config = PipelineConfig.from_dict(BASE_RAW)
        with pytest.raises(ValueError, match=what):
            replace(config, regions=[*config.regions, (label, HyperRect([0.5, -1.5], [1.5, -0.5]))])

    @pytest.mark.parametrize("covariance", [float("nan"), float("inf"), [[0.2, 0.0], [float("nan"), 0.2]]])
    def test_non_finite_covariance_is_refused(self, covariance):
        # NaN once failed later as "box bounds must be finite", naming no
        # key, and inf warned while scaling the identity and whitening
        with pytest.raises(ValueError, match="'covariance' must be finite"):
            PipelineConfig.from_dict(dict(BASE_RAW, covariance=covariance))
        with pytest.raises(ValueError, match="'covariance' must be finite"):
            replace(PipelineConfig.from_dict(BASE_RAW), covariance=covariance)

    def test_covariance_in_code_takes_the_json_forms(self):
        # a scalar or a diagonal passed in code reads as it does in a config
        # file; whitening once refused the scalar as "not square"
        parsed = PipelineConfig.from_dict(BASE_RAW)
        for raw in (0.2, [0.2, 0.2]):
            built = replace(parsed, covariance=raw)
            assert np.array_equal(built.covariance, parsed.covariance)
            assert not built.covariance.flags.writeable

    def test_fields_cannot_be_assigned(self):
        _, config = reach_avoid_2d(grid=(4, 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.threshold = 1.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.refinement.rounds = 3

    def test_fields_cannot_be_changed_in_place(self):
        # grid and regions are tuples and the covariance and every box bound
        # read-only copies, also in a config built from lists and in one read
        # back from a pickle
        _, config = reach_avoid_2d(grid=(4, 4))
        covariance, lo = np.array(config.covariance), np.array(config.domain.lo)
        built = replace(config, grid=[4, 4], regions=list(config.regions), covariance=covariance,
                        domain=HyperRect(lo, config.domain.hi))
        covariance[0, 0] = 5.0
        lo[0] = 5.0  # above hi: the checked domain must not see it
        assert built.covariance[0, 0] == config.covariance[0, 0]
        assert built.domain.lo[0] == config.domain.lo[0]
        for c in (config, built, pickle.loads(pickle.dumps(built))):
            assert c.grid == (4, 4) and isinstance(c.regions, tuple)
            with pytest.raises(AttributeError):
                c.grid.append(3)
            with pytest.raises(AttributeError):
                c.regions.append(("goal", c.domain))
            with pytest.raises(ValueError, match="read-only"):
                c.covariance[0, 0] = 1.0
            for box in (c.domain, *(box for _, box in c.regions)):
                for bound in (box.lo, box.hi):
                    with pytest.raises(ValueError, match="read-only"):
                        bound[0] = 1.0

    def test_regions_under_a_rotated_covariance_rejected(self):
        # a full covariance parses, but a rotated one would whiten each
        # region into a tilted box that no union of cells equals
        cfg = PipelineConfig.from_dict(dict(BASE_RAW, covariance=[[0.2, 0.05], [0.05, 0.3]]))
        with pytest.raises(ValueError, match="require a diagonal noise covariance"):
            build_abstraction(random_network(2, 8, 1, seed=0), cfg)

    def test_equality_is_identity_and_hash_works(self):
        # field-wise == tested numpy arrays for truth and raised ("truth
        # value ... ambiguous"), and hash(config) raised on the covariance
        nd, config = reach_avoid_2d(grid=(4, 4))
        layer = nd.layers(nd.actions[0])[0]
        bounds = LinearBounds(np.eye(2)[None], np.zeros((1, 2)), np.eye(2)[None], np.ones((1, 2)))
        for obj in (config, config.domain, whitening_transform(config.covariance), layer, nd, bounds):
            twin = copy.copy(obj)
            assert obj == obj and obj != twin, type(obj)
            assert len({obj, twin}) == 2 and hash(obj) == hash(obj)
        assert config != replace(config, seed=3)


class TestClassify:
    def test_thresholding(self):
        out = classify(np.array([0.96, 0.5, 0.2]), np.array([0.99, 0.97, 0.3]), 0.95)
        assert out.tolist() == ["yes", "maybe", "no"]

    def test_boundary_is_yes(self):
        assert classify(np.array([0.95]), np.array([0.95]), 0.95)[0] == "yes"


class TestClopperPearson:
    SIZES = [(n, s) for n in (50, 800, 10_000) for s in sorted({0, 1, n // 2, n - 1, n})]

    @pytest.mark.parametrize("n, s", SIZES)
    def test_tails_match_scipy(self, n, s):
        for p in (1e-4, 0.01, 0.3, 0.5, 0.9, 0.999, max(s - 0.5, 0.5) / n, min(s + 0.5, n - 0.5) / n):
            for upper, ref in ((True, stats.binom.sf(s - 1, n, p)), (False, stats.binom.cdf(s, n, p))):
                got = _log_tail(s, n, p, upper)
                if ref > 1e-200:  # where scipy's tails keep their relative accuracy
                    assert np.exp(got) == pytest.approx(ref, rel=1e-9, abs=0), (p, upper)
                else:
                    assert got < np.log(1e-199), (p, upper)

    def test_tails_at_the_ends_of_p(self):
        for p, x in ((0.0, 0), (1.0, 20)):
            for s in range(21):
                assert _log_tail(s, 20, p, True) == (0.0 if x >= s else -np.inf)
                assert _log_tail(s, 20, p, False) == (0.0 if x <= s else -np.inf)

    @pytest.mark.parametrize("n, s", SIZES)
    def test_intervals_match_scipy(self, n, s):
        # the high end through its distance from 1, the low end of the
        # failures' interval, which keeps its relative accuracy near 1
        for alpha in (0.01, 0.01 / 6, 0.01 / 72):
            lo, hi = _clopper_pearson(s, n, alpha)
            ref_lo = stats.beta.ppf(alpha / 2, s, n - s + 1) if s > 0 else 0.0
            ref_gap = stats.beta.ppf(alpha / 2, n - s, s + 1) if s < n else 0.0
            assert lo == pytest.approx(ref_lo, rel=1e-9, abs=0)
            assert 1.0 - hi == pytest.approx(ref_gap, rel=1e-9, abs=1e-15)

    def test_verdict_reads_the_interval(self):
        # inside, disjoint or across an end of [lo, hi], as the interval
        # scipy's beta quantiles give
        rng = np.random.default_rng(3)
        for n in (50, 800):
            for _ in range(200):
                s = int(rng.integers(0, n + 1))
                lo, hi = np.sort(rng.uniform(-0.05, 1.05, 2)).clip(0.0, 1.0)
                alpha = 0.01 / 12
                ci_lo = stats.beta.ppf(alpha / 2, s, n - s + 1) if s > 0 else 0.0
                ci_hi = stats.beta.isf(alpha / 2, s + 1, n - s) if s < n else 1.0
                want = -1 if ci_hi < lo or ci_lo > hi else int(lo <= ci_lo and ci_hi <= hi)
                assert _cp_verdict(s, n, alpha, lo, hi) == want, (s, n, lo, hi)

    def test_schedule_levels_sum_to_alpha(self):
        for trials, ends in ((10_000, [50, 100, 200, 400, 800, 1600, 3200, 6400, 10_000]),
                             (800, [50, 100, 200, 400, 800]), (50, [50]), (10, [10])):
            schedule = _mc_schedule(trials)
            assert [n for n, _ in schedule] == ends
            assert sum(alpha for _, alpha in schedule) == pytest.approx(0.01, rel=1e-12)

    def test_extremes(self):
        lo, hi = _clopper_pearson(0, 100, 0.01)
        assert lo == 0.0 and 0.0 < hi < 0.2
        lo, hi = _clopper_pearson(100, 100, 0.01)
        assert hi == 1.0 and 0.8 < lo < 1.0

    def test_contains_point_estimate(self):
        for k, n in ((5, 40), (20, 40), (39, 40)):
            lo, hi = _clopper_pearson(k, n, 0.01)
            assert lo < k / n < hi

    def test_monotone_in_successes(self):
        los, his = zip(*(_clopper_pearson(k, 50, 0.01) for k in range(0, 51, 10)))
        assert all(a <= b for a, b in zip(los, los[1:]))
        assert all(a <= b for a, b in zip(his, his[1:]))


def _trivial_config(label):
    domain = HyperRect([-1.0, -1.0], [1.0, 1.0])
    return PipelineConfig(
        domain=domain,
        covariance=0.3 * np.eye(2),
        grid=[2, 2],
        dfa=dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"}),
        regions=[(label, domain)],
    )


class TestTrivialCertainty:
    def test_goal_covering_domain_is_all_yes(self):
        nd = random_network(2, 8, 1, seed=3)
        res = run_pipeline(_trivial_config("goal"), nd=nd)
        assert np.all(res.p_lower == 1.0) and np.all(res.p_upper == 1.0)
        assert all(c == "yes" for c in res.classes)

    def test_obstacle_covering_domain_is_all_no(self):
        nd = random_network(2, 8, 1, seed=3)
        res = run_pipeline(_trivial_config("obst"), nd=nd)
        assert np.all(res.p_lower == 0.0) and np.all(res.p_upper == 0.0)
        assert all(c == "no" for c in res.classes)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    nd, config = reach_avoid_2d(grid=(6, 6))
    outdir = str(tmp_path_factory.mktemp("run"))
    result = run_pipeline(config, nd=nd, outdir=outdir)
    return nd, config, result, outdir


class TestRunPipeline:
    def test_bounds_and_classes(self, small_run):
        _, config, res, _ = small_run
        n = res.abstraction.grid.num_cells
        assert res.p_lower.shape == (n,) and res.p_upper.shape == (n,)
        assert np.all(res.p_lower >= 0) and np.all(res.p_upper <= 1)
        assert np.all(res.p_lower <= res.p_upper)
        assert np.array_equal(res.classes, classify(res.p_lower, res.p_upper, config.threshold))
        counts = {k: sum(c == k for c in res.classes) for k in ("yes", "no", "maybe")}
        assert counts["yes"] > 0 and counts["no"] > 0  # fixture mixes verdicts

    def test_switching_table_matches_strategy(self, small_run):
        _, _, res, _ = small_run
        for pid, (cell, d) in enumerate(res.product.states):
            if cell >= 0:
                assert res.switching.table[cell, d] == res.lower.strategy[pid]

    def test_action_at_point(self, small_run):
        _, _, res, _ = small_run
        a = res.switching.action_at(np.array([0.0, 0.0]), "trying")
        assert a in res.switching.actions
        with pytest.raises(ValueError, match="outside"):
            res.switching.action_at(np.array([5.0, 5.0]), "trying")

    def test_action_at_unknown_dfa_state(self, small_run):
        _, _, res, _ = small_run
        with pytest.raises(ValueError, match=r"unknown DFA state 'nope'.*'trying', 'accepted', 'dead'"):
            res.switching.action_at(np.array([0.0, 0.0]), "nope")

    def test_region_labeled_unsafe_refused(self):
        # "unsafe" is the out-of-domain state's proposition; a region with
        # that label would make its cells act as if they left the domain
        nd, config = reach_avoid_2d(grid=(4, 4))
        with pytest.raises(ValueError, match="'unsafe' is reserved"):
            config = replace(config, regions=[*config.regions, ("unsafe", HyperRect([-2.0, 1.0], [-1.0, 2.0]))])
            run_pipeline(config, nd=nd)

    def test_pid_q_is_cell_q_initial_state_after_refinement(self):
        nd, config = reach_avoid_2d(grid=(4, 4))
        config = replace(config, refinement=RefinementConfig(per_round=3, rounds=2))
        res = run_pipeline(config, nd=nd)
        n = res.abstraction.grid.num_cells
        assert n > 16 and res.rounds
        states, d0 = res.product.states, config.dfa.states.index(config.dfa.initial)
        assert np.array_equal(states[:n, 0], np.arange(n))
        assert np.array_equal(states[:n, 1], res.product.next_tbl[:n, d0])
        assert np.array_equal(res.p_lower, res.lower.values[:n])

    def test_missing_network_is_an_error(self):
        _, config = reach_avoid_2d(grid=(4, 4))
        with pytest.raises(ValueError, match="network"):
            run_pipeline(config)

    def test_prebuilt_abstraction_skips_build(self, small_run):
        nd, config, res, _ = small_run
        ab = build_abstraction(nd, config)
        res2 = run_pipeline(config, abstraction=ab)
        assert res2.timings["abstraction"] == 0.0
        assert np.array_equal(res2.p_lower, res.p_lower)
        assert np.array_equal(res2.p_upper, res.p_upper)

    def test_refinement_rounds_are_recorded(self, small_run):
        nd, config, res, _ = small_run
        cfg = replace(config, refinement=RefinementConfig(per_round=3, rounds=2))
        res2 = run_pipeline(cfg, nd=nd)
        assert len(res2.rounds) == 2
        n0 = res.abstraction.grid.num_cells
        for i, rec in enumerate(res2.rounds):
            assert rec["round"] == i
            assert rec["num_cells"] > n0
            assert set(rec) >= {"splits", "dirty_rows", "mean_gap", "max_gap",
                                "num_product_states"}
        base_gap, _ = gap_stats(res.abstraction.grid, res.p_lower, res.p_upper)
        assert res2.rounds[-1]["mean_gap"] < base_gap
        assert [rec["sweeps"] for rec in res2.rounds][-1] == {"lower": res2.lower.sweeps,
                                                             "upper": res2.upper.sweeps}

    def test_a_warm_round_matches_a_cold_one(self, small_run):
        # each round after a split starts from the last round's strategy;
        # synthesized cold on the same refined abstraction, the strategy is
        # the same and p_lower agrees within tol
        nd, config, _, _ = small_run
        warm = run_pipeline(replace(config, refinement=RefinementConfig(per_round=3, rounds=2)), nd=nd)
        assert len(warm.rounds) == 2
        cold = synthesize(warm.abstraction, config.dfa, config.vi_tolerance, config.vi_max_sweeps)
        assert warm.lower.converged and cold.lower.converged
        assert np.array_equal(warm.lower.strategy, cold.lower.strategy)
        assert np.max(np.abs(warm.p_lower - cold.p_lower)) <= config.vi_tolerance
        assert np.max(np.abs(warm.p_upper - cold.p_upper)) <= config.vi_tolerance
        assert warm.lower.sweeps < cold.lower.sweeps

    def test_a_start_table_of_the_wrong_shape_is_refused(self, small_run):
        _, config, res, _ = small_run
        table = res.switching.table
        with pytest.raises(ValueError, match="start table has shape"):
            synthesize(res.abstraction, config.dfa, start=table[:-1])

    def test_stop_width_ends_refinement_early(self, small_run, tmp_path):
        nd, config, res, _ = small_run
        refine = RefinementConfig(per_round=3, rounds=3)
        full = run_pipeline(replace(config, refinement=refine), nd=nd, outdir=str(tmp_path / "full"))
        gaps = [gap_stats(res.abstraction.grid, res.p_lower, res.p_upper)[0]]
        gaps += [rec["mean_gap"] for rec in full.rounds]
        assert len(gaps) == 4 and gaps[0] > gaps[1] > gaps[2]
        log = (tmp_path / "full" / "refinement.jsonl").read_text().splitlines()
        # between the gaps after rounds 0 and 1: round 1 runs, round 2 does not
        for width, kept in ((0.5 * (gaps[1] + gaps[2]), 2), (1.5 * gaps[0], 0)):
            out = tmp_path / f"stop{kept}"
            cfg = replace(config, refinement=replace(refine, stop_width=width))
            stopped = run_pipeline(cfg, nd=nd, outdir=str(out))
            assert stopped.rounds == full.rounds[:kept]
            assert (out / "refinement.jsonl").read_text().splitlines() == log[:kept]


def _assert_csv_boxes_are_the_cell_hulls(res, outdir):
    """regions.csv's x columns are, exactly, the min and max of each cell's
    corners mapped to original coordinates, and its z columns the cell."""
    grid = res.abstraction.grid
    dim = grid.dim
    with open(os.path.join(outdir, "regions.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) == grid.num_cells
    for i, line in enumerate(rows):
        parts = [float(v) for v in line.split(",")[1 : 1 + 4 * dim]]
        verts = HyperRect(grid.lo[i], grid.hi[i]).vertices() @ grid.transform.inverse.T
        assert parts[: 2 * dim] == [v for l in range(dim) for v in (verts[:, l].min(), verts[:, l].max())]
        assert parts[2 * dim :] == [v for l in range(dim) for v in (grid.lo[i, l], grid.hi[i, l])]


class TestOutputs:
    def test_regions_csv_shape(self, small_run):
        _, config, res, outdir = small_run
        with open(os.path.join(outdir, "regions.csv")) as fh:
            lines = fh.read().splitlines()
        n = res.abstraction.grid.num_cells
        assert len(lines) == n + 1
        header = lines[0].split(",")
        assert header[0] == "id"
        assert header[-5:] == ["label", "p_lower", "p_upper", "action", "class"]
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert int(parts[0]) == i
            assert float(parts[-4]) == res.p_lower[i]
            assert float(parts[-3]) == res.p_upper[i]
            assert parts[-2] in res.switching.actions
            assert parts[-1] == res.classes[i]

    def test_regions_csv_boxes_roundtrip(self, small_run):
        _, _, res, outdir = small_run
        _assert_csv_boxes_are_the_cell_hulls(res, outdir)

    def test_regions_csv_boxes_under_a_rotated_covariance(self, tmp_path):
        # no regions, so a rotated covariance is allowed; each cell's
        # original-coordinate box is then its preimage's hull, not the
        # preimage itself
        nd, config = reach_avoid_2d(grid=(4, 4))
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        config = replace(config, covariance=rot @ np.diag([0.1, 0.4]) @ rot.T, regions=())
        res = run_pipeline(config, nd=nd, outdir=str(tmp_path))
        grid = res.abstraction.grid
        lo, hi = grid.original_bounds()
        back = np.array([HyperRect(lo[i], hi[i]).vertices() @ grid.transform.matrix.T
                         for i in range(grid.num_cells)])
        assert np.all(back.min(axis=1) < grid.lo - 1e-6) and np.all(back.max(axis=1) > grid.hi + 1e-6)
        _assert_csv_boxes_are_the_cell_hulls(res, str(tmp_path))

    def test_strategy_entries_cover_live_states(self, small_run):
        _, _, res, outdir = small_run
        with open(os.path.join(outdir, "strategy.json")) as fh:
            doc = json.load(fh)
        assert doc["actions"] == list(res.switching.actions)
        assert doc["initial_dfa_state"] == res.product.dfa.initial
        got = {(e["region"], e["dfa"]) for e in doc["entries"]}
        want = {
            (cell, res.product.dfa.states[d])
            for pid, (cell, d) in enumerate(res.product.states)
            if cell >= 0 and not res.product.accepting[pid] and not res.product.sink[pid]
        }
        assert got == want
        for e in doc["entries"]:
            assert e["action"] in doc["actions"]

    def test_summary_counts(self, small_run):
        _, config, res, outdir = small_run
        with open(os.path.join(outdir, "summary.json")) as fh:
            doc = json.load(fh)
        assert doc["num_cells"] == res.abstraction.grid.num_cells
        assert doc["num_product_states"] == res.product.num_states
        assert doc["threshold"] == config.threshold
        cls = [str(c) for c in res.classes]
        assert doc["classes"] == {k: cls.count(k) for k in ("yes", "no", "maybe")}
        assert doc["vi"]["lower"]["converged"] and doc["vi"]["upper"]["converged"]
        assert 1 <= doc["vi"]["lower"]["full_sweeps"] <= doc["vi"]["lower"]["sweeps"]
        assert doc["vi"]["upper"]["full_sweeps"] == doc["vi"]["upper"]["sweeps"]
        assert "abstraction" in doc["timings"] and "total" in doc["timings"]

    def test_summary_is_strict_json_when_the_budget_runs_out(self, tmp_path):
        # one sweep for a two-goal product: the first group spends it and
        # the later groups get none; their residual was once inf, which
        # summary.json held as Infinity, not JSON
        nd, config = reach_avoid_2d(grid=(6, 6))
        labels = {"avoid": "obst", "reach1": "goal", "reach2": "goal2"}
        config = replace(config, dfa=dfa_template("reach_two_avoid", labels), vi_max_sweeps=1,
                         regions=[*config.regions, ("goal2", HyperRect([-1.4, 0.4], [-0.4, 1.4]))])
        res = run_pipeline(config, nd=nd, outdir=str(tmp_path))
        assert not res.lower.converged and len(res.product.solve_order()) > 1

        def refuse(constant):
            raise ValueError(f"non-finite number {constant}")

        with open(os.path.join(tmp_path, "summary.json")) as fh:
            doc = json.load(fh, parse_constant=refuse)
        assert doc["vi"]["lower"]["sweeps"] == 1
        assert 0.0 <= doc["vi"]["lower"]["residual"] <= 1.0

    def test_refinement_log_empty_without_rounds(self, small_run):
        _, _, _, outdir = small_run
        with open(os.path.join(outdir, "refinement.jsonl")) as fh:
            assert fh.read() == ""

    def test_rerun_is_byte_identical(self, small_run, tmp_path):
        nd, config, _, outdir = small_run
        res2 = run_pipeline(config, nd=nd, outdir=str(tmp_path))
        for name in ("regions.csv", "strategy.json", "refinement.jsonl"):
            with open(os.path.join(outdir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(tmp_path, name), "rb") as fh:
                b = fh.read()
            assert a == b, name


class TestMonteCarlo:
    def test_label_columns_cover_dfa_steps(self, small_run):
        _, _, res, _ = small_run
        grid = res.abstraction.grid
        dfa = res.product.dfa
        tbl = res.product.next_tbl
        idx = {s: i for i, s in enumerate(dfa.states)}
        for q in range(grid.num_cells):
            for s in dfa.states:
                want = idx[dfa.step(s, grid.labels[q])]
                assert tbl[q, idx[s]] == want
        from nndm_synth.automata import UNSAFE_PROP
        for s in dfa.states:
            want = idx[dfa.step(s, {UNSAFE_PROP})]
            assert tbl[-1, idx[s]] == want

    def test_simulation_consistent_with_certificate(self, small_run):
        _, config, res, _ = small_run
        small = replace(config, sim_trials=400, sim_start_cells=4)
        res_small = replace(res, config=small)
        report = validate_monte_carlo(res_small)
        assert report["trials"] == 400 and report["alpha"] == 0.01
        assert len(report["cells"]) == 4
        assert report["num_inconsistent"] == 0
        levels = dict(_mc_schedule(400))
        for rec in report["cells"]:
            assert rec["consistent"]
            assert rec["trials"] in levels and rec["ci_level"] == 1.0 - levels[rec["trials"]]
            assert rec["decided"] == ("at_cap" if rec["trials"] == 400 else "early")
            assert 0.0 <= rec["freq_horizon"] <= rec["freq"] <= 1.0
            assert rec["ci"][0] <= rec["freq"] <= rec["ci"][1]
        assert any(rec["decided"] == "early" for rec in report["cells"])

    @pytest.mark.parametrize("shift", [0.1, -0.1])
    def test_certificate_off_by_a_tenth_is_flagged(self, small_run, shift):
        # the cell's certificate moved so that its near end lies 0.1 above
        # (or below) the frequency the simulation finds
        _, config, res, _ = small_run
        res_small = replace(res, config=replace(config, sim_trials=2000))
        cell = 3
        freq = validate_monte_carlo(res_small, cells=[cell])["cells"][0]["freq"]
        assert 0.3 < freq < 0.7
        p_lower, p_upper = res.p_lower.copy(), res.p_upper.copy()
        p_lower[cell], p_upper[cell] = (freq + 0.1, 1.0) if shift > 0 else (0.0, freq - 0.1)
        report = validate_monte_carlo(replace(res_small, p_lower=p_lower, p_upper=p_upper), cells=[cell])
        rec = report["cells"][0]
        assert report["num_inconsistent"] == 1 and not rec["consistent"]
        assert rec["ci"][1] < p_lower[cell] if shift > 0 else rec["ci"][0] > p_upper[cell]

    @pytest.mark.parametrize("kind", ["goal", "obstacle"])
    def test_start_cell_that_never_steps_is_decided_at_once(self, small_run, kind):
        # every run from a goal (obstacle) cell ends before its first step:
        # the frequency 1 (0) is exact, and the point certificate [1, 1]
        # ([0, 0]), which no interval lies inside, is decided at the first
        # checkpoint, not at the cap
        _, config, res, _ = small_run
        res_small = replace(res, config=replace(config, sim_trials=2000))
        dfa, grid = res.product.dfa, res.abstraction.grid
        acc, dead = dfa.state_masks()
        d0 = res.product.next_tbl[: grid.num_cells, dfa.states.index(dfa.initial)]
        cell = int(np.flatnonzero(acc[d0] if kind == "goal" else dead[d0])[0])
        freq = 1.0 if kind == "goal" else 0.0
        assert res.p_lower[cell] == res.p_upper[cell] == freq
        first, alpha = _mc_schedule(2000)[0]
        report = validate_monte_carlo(res_small, cells=[cell])
        rec = report["cells"][0]
        assert report["num_inconsistent"] == 0 and rec["consistent"]
        assert rec["trials"] == first and rec["decided"] == "early" and rec["ci_level"] == 1.0 - alpha
        assert rec["freq"] == rec["freq_horizon"] == freq
        # a certificate that leaves out the exact frequency is flagged there
        p_lower, p_upper = res.p_lower.copy(), res.p_upper.copy()
        p_lower[cell], p_upper[cell] = 0.2, 0.8
        report = validate_monte_carlo(replace(res_small, p_lower=p_lower, p_upper=p_upper), cells=[cell])
        assert report["num_inconsistent"] == 1 and report["cells"][0]["trials"] == first

    def test_simulation_seeded_per_cell(self, small_run):
        # a goal and an obstacle cell, both decided before any step, among
        # cells that step: each record equals the cell's own single-cell one
        _, config, res, _ = small_run
        small = replace(config, sim_trials=200)
        res_small = replace(res, config=small)
        dfa, grid = res.product.dfa, res.abstraction.grid
        acc, dead = dfa.state_masks()
        d0 = res.product.next_tbl[: grid.num_cells, dfa.states.index(dfa.initial)]
        goal, obstacle = int(np.flatnonzero(acc[d0])[0]), int(np.flatnonzero(dead[d0])[0])
        assert len({2, 5, 9, goal, obstacle}) == 5
        a = validate_monte_carlo(res_small, cells=[5])
        b = validate_monte_carlo(res_small, cells=[5])
        cells = sorted([2, 5, 9, goal, obstacle])
        c = validate_monte_carlo(res_small, cells=cells)
        assert a == b
        assert c["cells"][cells.index(5)] == a["cells"][0]
        for cell in (goal, obstacle):
            alone = validate_monte_carlo(res_small, cells=[cell])["cells"][0]
            assert c["cells"][cells.index(cell)] == alone
            assert alone["trials"] == _mc_schedule(200)[0][0]

    @pytest.mark.parametrize("pool", [30, 50, 300])
    def test_pool_size_does_not_change_the_report(self, small_run, monkeypatch, pool):
        # batches of 50, 50 and 100 runs: at 30 and 50 each batch runs
        # alone; at 300 a pool holds up to six, six and three batches
        _, config, res, _ = small_run
        res_small = replace(res, config=replace(config, sim_trials=200, sim_start_cells=6))
        want = validate_monte_carlo(res_small)
        monkeypatch.setattr(pipeline, "_MC_POOL", pool)
        assert validate_monte_carlo(res_small) == want

    def test_pool_cap_bounds_every_step(self, small_run, monkeypatch):
        # with a pool of 120, a round of 50-run batches steps two at a time
        # and a round of 100-run batches one at a time: no step advances
        # more than max(_MC_POOL, batch size) runs
        _, config, res, _ = small_run
        res_small = replace(res, config=replace(config, sim_trials=200, sim_start_cells=6))
        want = validate_monte_carlo(res_small)
        sizes = []
        advance = pipeline._advance

        def counted(nd, grid, z, actions, noise):
            sizes.append(z.shape[0])
            return advance(nd, grid, z, actions, noise)

        monkeypatch.setattr(pipeline, "_advance", counted)
        monkeypatch.setattr(pipeline, "_MC_POOL", 120)
        got = validate_monte_carlo(res_small)
        assert got == want
        assert sizes and max(sizes) <= 120
        assert any(rec["trials"] == 200 for rec in got["cells"])  # a 100-run batch ran

    def test_matches_per_cell_reference_and_unfinished_runs_fail(self, small_run):
        _, _, res, _ = small_run
        _assert_matches_reference(res, [0, 7, 14, 21, 28, 35])

    def test_matches_per_cell_reference_under_an_axis_permuting_covariance(self):
        # eigh orders the whitened axes by ascending variance, so T swaps
        # the two axes: the standard normal noise is drawn in whitened
        # coordinates, where a draw for the first original axis would land
        # on the second
        nd, config = reach_avoid_2d(grid=(4, 4))
        config = replace(config, covariance=np.diag([0.1, 0.02]))
        res = run_pipeline(config, nd=nd)
        assert res.abstraction.grid.transform.matrix[0, 0] == 0.0
        _assert_matches_reference(res, [0, 5, 10, 15])

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("sim_trials", 0, "'trials'"),
            ("sim_start_cells", -1, "'start_cells'"),
            ("horizon", 0, "'horizon'"),
            ("sim_horizon_factor", 0, "'horizon_factor'"),
            ("seed", -1, "'seed'"),
        ],
    )
    def test_non_positive_sizes_rejected(self, small_run, field, value, key):
        # refused when the config is built, before any simulation can start
        _, config, _, _ = small_run
        with pytest.raises(ValueError, match=key):
            replace(config, **{field: value})

    def test_start_cell_outside_the_grid_rejected(self, small_run):
        _, config, res, _ = small_run
        res_small = replace(res, config=replace(config, sim_trials=10))
        # 1.5 was once truncated to cell 1, True and np.True_ taken as cell 1,
        # and None, [1] and object() refused by a TypeError
        for cell in (-1, res.abstraction.grid.num_cells, 1.5, True, np.True_, None, [1], object()):
            with pytest.raises(ValueError, match=re.escape(f"start cell {cell} ")):
                validate_monte_carlo(res_small, cells=[0, cell])
        # a repeated cell was once checked twice, and summarize counted it
        # twice with double its trials
        with pytest.raises(ValueError, match=re.escape("start cell 5 is repeated")):
            validate_monte_carlo(res_small, cells=[5, 5])

    def test_zero_start_cells_is_an_empty_check(self, small_run):
        _, config, res, _ = small_run
        report = validate_monte_carlo(replace(res, config=replace(config, sim_start_cells=0)))
        assert report["cells"] == [] and report["num_inconsistent"] == 0


def _assert_matches_reference(result, cells):
    """Two steps in all: most runs are still going at the end and count as
    unsatisfied, against the full trial count; each cell's frequencies equal
    its runs stepped alone by _reference_runs."""
    config = replace(result.config, sim_trials=300, horizon=1, sim_horizon_factor=2)
    res_small = replace(result, config=config)
    report = validate_monte_carlo(res_small, cells=cells)
    assert report["extended_steps"] == 2
    unfinished = 0
    for cell, rec in zip(cells, report["cells"]):
        accepted_at, status = _reference_runs(res_small, cell, 2, rec["trials"])
        unfinished += np.count_nonzero(status == 0)
        assert rec["freq"] == np.count_nonzero(accepted_at >= 0) / rec["trials"]
        assert rec["freq_horizon"] == np.count_nonzero((accepted_at >= 0) & (accepted_at <= 1)) / rec["trials"]
    assert unfinished > 0


def _reference_runs(result, cell, steps, trials):
    """One cell's runs stepped on their own, batch after batch: 50, 50, 100,
    200, ... trials, each batch ending at the next checkpoint below the cap
    config.sim_trials, then at the cap, until `trials` have run. Each batch
    starts once the last has ended, drawing from the cell's generator in
    the same order as the simulation's rounds. Returns the step at which each
    run got accepted (-1 if never) and its final status (0 running,
    1 accepted, 2 failed)."""
    config = result.config
    ends = [n for n in (50 << k for k in range(40)) if n < config.sim_trials] + [config.sim_trials]
    assert trials in ends
    rng = np.random.default_rng([config.seed, 7919, cell])
    runs = [_reference_batch(result, cell, steps, rng, end - start)
            for start, end in zip([0] + ends, ends[: ends.index(trials) + 1])]
    return tuple(np.concatenate(parts) for parts in zip(*runs))


def _reference_batch(result, cell, steps, rng, n):
    grid = result.abstraction.grid
    nd, dfa, next_tbl = result.abstraction.dynamics, result.product.dfa, result.product.next_tbl
    acc_mask = np.array([s in dfa.accepting for s in dfa.states])
    dead_mask = np.array([s in dfa.dead_states() for s in dfa.states])
    z = rng.uniform(grid.lo[cell], grid.hi[cell], size=(n, grid.dim))
    cells = np.full(n, cell)
    d = np.full(n, next_tbl[cell, dfa.states.index(dfa.initial)])
    status = np.where(acc_mask[d], 1, np.where(dead_mask[d], 2, 0))
    accepted_at = np.where(status == 1, 0, -1)
    for t in range(1, steps + 1):
        run = np.flatnonzero(status == 0)
        if run.size == 0:
            break
        a_idx = result.switching.table[cells[run], d[run]]
        x = z[run] @ grid.transform.inverse.T
        x_next = np.empty_like(x)
        for a in np.unique(a_idx):
            m = a_idx == a
            x_next[m] = evaluate(nd, nd.actions[a], x[m])
        # the whitened model the rows certify: T f_a(T^-1 z) + w, w ~ N(0, I)
        z[run] = x_next @ grid.transform.matrix.T + rng.standard_normal(x.shape)
        cells[run] = grid.locate(z[run])
        d[run] = next_tbl[cells[run], d[run]]
        acc = acc_mask[d[run]]
        status[run[acc]] = 1
        accepted_at[run[acc]] = t
        status[run[~acc & (dead_mask[d[run]] | (cells[run] < 0))]] = 2
    return accepted_at, status


class TestGapStats:
    def test_volume_weighting(self):
        grid = RegionGrid(lo=[[0.0], [3.0]], hi=[[3.0], [4.0]], labels=[frozenset()] * 2,
                          domain=HyperRect([0.0], [4.0]), transform=whitening_transform(np.eye(1)))
        mean, mx = gap_stats(grid, np.array([0.0, 0.0]), np.array([0.2, 1.0]))
        assert mean == pytest.approx((3 * 0.2 + 1 * 1.0) / 4)
        assert mx == 1.0
