"""Command line entry point, exercised in process via main()."""

import csv
import hashlib
import json
import os
import pickle
from collections import Counter
from dataclasses import replace
from enum import Enum

import numpy as np
import pytest

from nndm_synth.cli import _ARTIFACT_FORMAT, _EXIT_NOT_CONVERGED, main
from nndm_synth.fixtures import reach_avoid_2d
from nndm_synth.networks import save_networks
from nndm_synth.pipeline import build_abstraction, run_pipeline
from nndm_synth.refinement import RefinementConfig

# sha256 of the pickled classes' field names (see _pickled_fields) under the
# current artifact format. Format 17 kept format 16's classes: it changed the
# fields of the pickled result's validation dict, which the digest does not read.
# Format 18 keeps them too: it narrowed the row store's arrays (int32 target
# ids, float32 bounds), whose dtypes the digest does not read either.
_FORMAT_DIGEST = (18, "1bcdfefab72ca6478eb4c07d1088f668bad8893b59973f0bdee0041c0db93737")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config JSON + network file for a small reach-avoid problem."""
    root = tmp_path_factory.mktemp("cli")
    nd, _ = reach_avoid_2d(grid=(4, 4))
    save_networks(nd, str(root / "nets.json"))
    raw = {
        "domain": [[-2.0, 2.0], [-2.0, 2.0]],
        "covariance": 0.2,
        "grid": [4, 4],
        "regions": [
            {"label": "goal", "box": [[0.4, 1.4], [0.4, 1.4]]},
            {"label": "obst", "box": [[-1.5, -0.5], [-0.5, 0.5]]},
        ],
        "spec": {"template": "reach_avoid", "labels": {"avoid": "obst", "reach": "goal"}},
        "network": "nets.json",
        "threshold": 0.95,
        "simulation": {"trials": 200, "start_cells": 3, "horizon": 30},
        "refinement": {"per_round": 2, "rounds": 1},
    }
    (root / "config.json").write_text(json.dumps(raw))
    return root


def test_run_end_to_end(workdir, capsys):
    out = workdir / "out_run"
    rc = main(["run", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cells" in text and "classes:" in text and "simulation:" in text
    for name in ("regions.csv", "strategy.json", "summary.json",
                 "refinement.jsonl", "validation.json", "result.pkl"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["refinement_rounds"] == 1
    assert "monte_carlo" in summary["timings"]
    # the simulation line is the summary's section, which counts validation.json's records
    report = json.loads((out / "validation.json").read_text())
    sim = summary["simulation"]
    assert sim == {
        "start_cells": 3,
        "trials": sum(rec["trials"] for rec in report["cells"]),
        "trial_cap": 200,
        "decided_early": sum(rec["decided"] == "early" for rec in report["cells"]),
        "inconsistent": report["num_inconsistent"],
    }
    assert text.splitlines()[-1] == (
        f"simulation: 3 start cells, {sim['trials']} trials run (cap 200 per cell), "
        f"{sim['decided_early']} decided early, {sim['inconsistent']} inconsistent"
    )


def test_printed_figures_are_the_summary(workdir, capsys):
    out = workdir / "out_printed"
    rc = main(["refine", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    s = json.loads((out / "summary.json").read_text())
    counts, lower, upper = s["classes"], s["vi"]["lower"], s["vi"]["upper"]
    with open(out / "regions.csv") as fh:
        assert Counter(row["class"] for row in csv.DictReader(fh)) == +Counter(counts)
    assert lines == [
        f"{s['num_cells']} cells, {s['num_product_states']} product states, 1 refinement rounds",
        f"classes: yes={counts['yes']} no={counts['no']} maybe={counts['maybe']}; "
        f"gap mean={s['mean_gap']:.4f} max={s['max_gap']:.4f}",
        f"value iteration: {lower['sweeps']}+{upper['sweeps']} sweeps, converged=True",
    ]


def test_abstract_then_synthesize_reuses_pickle(workdir, capsys):
    out = workdir / "out_staged"
    rc = main(["abstract", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    assert (out / "abstraction.pkl").exists()
    pkl_mtime = os.path.getmtime(out / "abstraction.pkl")

    rc = main(["synthesize", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    assert os.path.getmtime(out / "abstraction.pkl") == pkl_mtime  # untouched
    summary = json.loads((out / "summary.json").read_text())
    assert summary["refinement_rounds"] == 0  # synthesize never refines
    assert summary["timings"]["abstraction"] == 0.0  # reused the pickle
    capsys.readouterr()


def test_refine_overrides_rounds(workdir, capsys):
    out = workdir / "out_refine"
    rc = main([
        "refine", "--config", str(workdir / "config.json"), "--out", str(out),
        "--rounds", "2", "--per-round", "1",
    ])
    assert rc == 0
    lines = (out / "refinement.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert all(len(json.loads(l)["splits"]) == 1 for l in lines)
    capsys.readouterr()


def test_refine_rejects_negative_per_round(workdir, capsys):
    out = workdir / "out_negative_per_round"
    rc = main(["refine", "--config", str(workdir / "config.json"), "--out", str(out),
               "--per-round", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'per_round'" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_updates_saved_result(workdir, capsys):
    out = workdir / "out_staged"  # reuse the synthesize output
    assert (out / "result.pkl").exists()
    rc = main(["simulate", "--out", str(out), "--trials", "100", "--start-cells", "2"])
    assert rc == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["trials"] == 100
    assert len(report["cells"]) == 2
    trials = sum(rec["trials"] for rec in report["cells"])
    assert all(rec["trials"] <= 100 and rec["decided"] in ("early", "at_cap") for rec in report["cells"])
    assert json.loads((out / "summary.json").read_text())["simulation"]["trials"] == trials
    assert capsys.readouterr().out.startswith(f"simulation: 2 start cells, {trials} trials run (cap 100 per cell), ")


def test_result_without_simulation_removes_stale_validation(workdir, capsys):
    # validation.json checks one result; a later synthesize on the same
    # --out replaces the result, so the old check must not survive it
    out = workdir / "out_stale"
    config = str(workdir / "config.json")
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert (out / "validation.json").exists()
    assert main(["synthesize", "--config", config, "--out", str(out)]) == 0
    assert not (out / "validation.json").exists()
    assert main(["simulate", "--out", str(out), "--trials", "50", "--start-cells", "2"]) == 0
    assert len(json.loads((out / "validation.json").read_text())["cells"]) == 2
    capsys.readouterr()


def test_unsafe_region_label_exits_2(workdir, capsys):
    raw = json.loads((workdir / "config.json").read_text())
    raw["regions"].append({"label": "unsafe", "box": [[-2.0, -1.0], [1.0, 2.0]]})
    (workdir / "unsafe_label.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "unsafe_label.json"), "--out", str(workdir / "u")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'unsafe'" in err and "reserved" in err and "Traceback" not in err


@pytest.mark.parametrize("label", ["goal2", "unsafe"])
def test_abstract_refuses_a_region_label_the_spec_cannot_read(workdir, capsys, label):
    # `abstract` once exited 0 and wrote abstraction.pkl for both labels
    raw = json.loads((workdir / "config.json").read_text())
    raw["regions"].append({"label": label, "box": [[-2.0, -1.0], [1.0, 2.0]]})
    (workdir / "bad_label.json").write_text(json.dumps(raw))
    rc = main(["abstract", "--config", str(workdir / "bad_label.json"), "--out", str(workdir / "l")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_label.json" in err and f"'{label}'" in err and "Traceback" not in err
    assert not (workdir / "l" / "abstraction.pkl").exists()


def test_simulate_without_result_fails(workdir, tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "empty")])
    assert rc == 2
    assert "result.pkl" in capsys.readouterr().err


def test_synthesize_refuses_untagged_abstraction(workdir, tmp_path, capsys):
    nd, config = reach_avoid_2d(grid=(4, 4))
    with open(tmp_path / "abstraction.pkl", "wb") as fh:
        pickle.dump(build_abstraction(nd, config), fh)  # no format tag
    rc = main(["synthesize", "--config", str(workdir / "config.json"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "abstraction.pkl" in err and "rebuild" in err


@pytest.mark.parametrize("edit", ["grid", "network"])
def test_synthesize_refuses_abstraction_from_other_inputs(workdir, tmp_path, capsys, edit):
    raw = json.loads((workdir / "config.json").read_text())
    raw["network"] = str(workdir / "nets.json")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["abstract", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
    if edit == "grid":
        raw["grid"] = [5, 4]
    else:
        nets = json.loads((workdir / "nets.json").read_text())
        nets["networks"]["east"][0]["bias"][0] += 1e-9
        (tmp_path / "nets.json").write_text(json.dumps(nets))
        raw["network"] = "nets.json"
    (tmp_path / "config.json").write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["synthesize", "--config", str(tmp_path / "config.json"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "abstraction.pkl" in err and "built from another" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("truncated", [False, True])
def test_simulate_refuses_stale_result(tmp_path, capsys, truncated):
    nd, config = reach_avoid_2d(grid=(4, 4))
    data = pickle.dumps(run_pipeline(config, nd=nd))  # no format tag
    (tmp_path / "result.pkl").write_bytes(data[: len(data) // 2] if truncated else data)
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "result.pkl" in err and "rebuild" in err


def test_simulate_refuses_result_that_unpickles_with_value_error(tmp_path, capsys, monkeypatch):
    # some corrupt pickles raise ValueError inside pickle.load ("'utf-8'
    # codec can't decode byte", "buffer size does not match array size")
    (tmp_path / "result.pkl").write_bytes(b"corrupt")

    def corrupt(fh):
        raise ValueError("buffer size does not match array size")

    monkeypatch.setattr(pickle, "load", corrupt)
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "result.pkl") in err and "rebuild" in err


def test_simulate_refuses_format_3_result(tmp_path, capsys):
    # format 3 held the product rows as a dict of per-row arrays, format 4
    # the out-of-domain interval in dedicated row fields, format 5 value
    # iteration results without full_sweeps, format 6 the abstraction's rows
    # as a dict of per-row objects beside the product's row store, format 7
    # the envelopes as a dict of (cell, action) objects and a transform field,
    # format 8 a product row store with its own copy of the bounds, format 9
    # a config holding its grid and regions as lists and a writable covariance,
    # format 10 row stores without a remainder per row, format 11 a refinement
    # config with a split rule setting and an Imdp with its own cell count,
    # format 12 a product with its states as a list of pairs and an initial_pid,
    # format 16 a validation dict with one ci99 per cell at the full trial count
    nd, config = reach_avoid_2d(grid=(4, 4))
    result = run_pipeline(config, nd=nd)
    for fmt in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16):
        with open(tmp_path / "result.pkl", "wb") as fh:
            pickle.dump({"format": fmt, "fingerprint": None, "object": result}, fh)
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "result.pkl") in err and "rebuild" in err


def test_synthesize_refuses_old_format_tag(workdir, tmp_path, capsys):
    nd, config = reach_avoid_2d(grid=(4, 4))
    abstraction = build_abstraction(nd, config)
    # format 6 held the abstraction's rows as a dict of per-row objects,
    # format 7 its envelopes as a dict keyed (cell, action) and a transform
    # field, format 8 row stores without `at`, format 11 an Imdp with its own
    # cell count, format 12 a product with an initial_pid; format 9 (the result's config changed) goes too, since one
    # tag covers every artifact
    for fmt in (1, 4, 5, 6, 7, 8, 9, 11, 12):
        with open(tmp_path / "abstraction.pkl", "wb") as fh:
            pickle.dump({"format": fmt, "object": abstraction}, fh)
        rc = main(["synthesize", "--config", str(workdir / "config.json"), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "abstraction.pkl" in err and "rebuild" in err


def test_bad_config_path_fails(workdir, capsys):
    rc = main(["run", "--config", str(workdir / "nope.json"), "--out", str(workdir / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_typo_fails(workdir, capsys):
    raw = json.loads((workdir / "config.json").read_text())
    raw["refinment"] = raw.pop("refinement")
    (workdir / "typo.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "typo.json"), "--out", str(workdir / "y")])
    assert rc == 2
    assert "'refinment'" in capsys.readouterr().err


def test_removed_split_rule_setting_fails(workdir, capsys):
    # the key's old default is refused like any unknown key
    raw = json.loads((workdir / "config.json").read_text())
    raw["refinement"]["split_mode"] = "edges"
    (workdir / "removed_key.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "removed_key.json"), "--out", str(workdir / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config key 'split_mode'" in err and "Traceback" not in err


def test_malformed_config_exits_2_without_traceback(workdir, capsys):
    raw = json.loads((workdir / "config.json").read_text())
    del raw["grid"]
    (workdir / "no_grid.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "no_grid.json"), "--out", str(workdir / "z")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'grid'" in err and "Traceback" not in err


def test_non_string_network_exits_2_naming_the_key(workdir, capsys):
    # the path was once joined as given, a TypeError and a traceback
    raw = dict(json.loads((workdir / "config.json").read_text()), network=5)
    (workdir / "network_5.json").write_text(json.dumps(raw))
    rc = main(["abstract", "--config", str(workdir / "network_5.json"), "--out", str(workdir / "w")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'network' must be a string" in err and "Traceback" not in err
    assert f"error: {workdir / 'network_5.json'}: " in err


def test_nan_covariance_exits_2_naming_the_key(workdir, capsys):
    # json reads NaN; it once failed as "box bounds must be finite"
    raw = dict(json.loads((workdir / "config.json").read_text()), covariance=float("nan"))
    (workdir / "nan_covariance.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "nan_covariance.json"), "--out", str(workdir / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'covariance'" in err and "Traceback" not in err


def test_null_threshold_exits_2_without_traceback(workdir, capsys):
    raw = json.loads((workdir / "config.json").read_text())
    raw["threshold"] = None
    (workdir / "null_threshold.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "null_threshold.json"), "--out", str(workdir / "n")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'threshold'" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("domain", [["-2", True], [-2, 2]]),
    ("domain", [[-2, True], [-2, 2]]),
    ("covariance", True),
    ("covariance", "0.2"),
    ("covariance", [0.1, True]),
])
def test_non_number_entry_exits_2_naming_its_key(workdir, capsys, key, value):
    raw = dict(json.loads((workdir / "config.json").read_text()), **{key: value})
    (workdir / "non_number.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "non_number.json"), "--out", str(workdir / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("edit, what", [
    ({"domain": [[-2.0, 2.0], [1.0, 1.0]], "regions": []}, "domain has zero width"),
    ({"regions": [{"label": "goal", "box": [[0.5, 0.5], [0.5, 1.5]]}]}, "'goal' covers no cell"),
])
def test_degenerate_box_exits_2_without_traceback(workdir, capsys, edit, what):
    raw = dict(json.loads((workdir / "config.json").read_text()), **edit)
    (workdir / "degenerate.json").write_text(json.dumps(raw))
    rc = main(["run", "--config", str(workdir / "degenerate.json"), "--out", str(workdir / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert what in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, key", [("--trials", "0", "'trials'"),
                                              ("--start-cells", "-1", "'start_cells'")])
def test_simulate_rejects_bad_sizes(workdir, capsys, flag, value, key):
    out = workdir / "out_staged"  # reuse the synthesize output
    assert (out / "result.pkl").exists()
    rc = main(["simulate", "--out", str(out), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["synthesize", "refine", "run"])
def test_unconverged_value_iteration_fails(workdir, capsys, command):
    raw = json.loads((workdir / "config.json").read_text())
    raw["vi"] = {"max_sweeps": 1}
    (workdir / "one_sweep.json").write_text(json.dumps(raw))
    out = workdir / f"out_one_sweep_{command}"
    rc = main([command, "--config", str(workdir / "one_sweep.json"), "--out", str(out)])
    assert rc == _EXIT_NOT_CONVERGED
    summary = json.loads((out / "summary.json").read_text())  # outputs still written
    assert not summary["vi"]["lower"]["converged"]
    assert (out / "result.pkl").exists()
    err = capsys.readouterr().err
    assert "value iteration pass lower" in err and "did not converge" in err


def test_seed_override(workdir, capsys):
    out = workdir / "out_seed"
    rc = main([
        "synthesize", "--config", str(workdir / "config.json"),
        "--out", str(out), "--seed", "99",
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 99
    capsys.readouterr()


def test_negative_seed_fails_before_building(workdir, capsys):
    out = workdir / "out_negative_seed"
    rc = main(["run", "--config", str(workdir / "config.json"), "--out", str(out), "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_rejects_negative_seed(workdir, capsys):
    out = workdir / "out_staged"  # reuse the synthesize output
    assert (out / "result.pkl").exists()
    rc = main(["simulate", "--out", str(out), "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "Traceback" not in err


def _pickled_state(obj) -> dict:
    """The attributes pickle stores: a class's own __getstate__ if it has
    one (object's default, from Python 3.11, stores vars)."""
    getstate = getattr(type(obj), "__getstate__", None)
    return getstate(obj) if getstate not in (None, getattr(object, "__getstate__", None)) else vars(obj)


def _pickled_fields(*roots) -> list[str]:
    """'Class: field, ...' for every nndm_synth class reachable from roots
    through attributes and containers; an enum lists its values."""
    found, seen, stack = set(), set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls.__module__.startswith("nndm_synth."):
            if isinstance(obj, Enum):
                fields = sorted(str(m.value) for m in cls)
            else:
                state = _pickled_state(obj)
                fields = sorted(state)
                stack.extend(state.values())
            found.add(f"{cls.__module__}.{cls.__qualname__}: {', '.join(fields)}")
        elif isinstance(obj, dict):
            stack.extend([*obj.keys(), *obj.values()])
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray) and obj.dtype == object:
            stack.extend(obj.ravel())
    return sorted(found)


def test_artifact_format_matches_the_pickled_fields():
    # a pickled class that gains, loses or renames a field makes old
    # artifacts stale; the format tag is what refuses them
    nd, config = reach_avoid_2d(grid=(4, 4))
    config = replace(config, refinement=RefinementConfig(per_round=2, rounds=1))
    result = run_pipeline(config, nd=nd, monte_carlo=True)
    fields = _pickled_fields(result.abstraction, result)
    digest = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    assert (_ARTIFACT_FORMAT, digest) == _FORMAT_DIGEST, (
        f"the pickled classes no longer match format {_FORMAT_DIGEST[0]}: bump "
        f"cli._ARTIFACT_FORMAT past it and record (the new format, {digest!r}) as "
        "_FORMAT_DIGEST in tests/test_cli.py; the pickled classes now read:\n" + "\n".join(fields)
    )
