"""One measured process: set up a workload, run the pipeline once, check it.

    python3 perfbench/probe.py --workload NAME --seed N --outdir DIR [--stage full|certify|setup] [--trace]

`run.py` starts this in a fresh process with BLAS pinned to one thread and
`src` on PYTHONPATH. The last stdout line is one JSON record. An exception
propagates: the process exits non-zero and `run.py` counts a failed operation.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before the first heavy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from nndm_synth import pipeline  # noqa: E402
from nndm_synth.geometry import RegionGrid  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUTPUT_FILES = ("regions.csv", "strategy.json", "refinement.jsonl")
LAYERS = ("geometry", "networks", "relaxation", "transitions", "automata", "imdp", "refinement", "pipeline")


def _synthesis_counts(c, args, kwargs, synth):
    """Value-iteration and product counters from one `synthesize` result."""
    product, lower, upper = synth.product, synth.lower, synth.upper
    rows = product.rows
    nnz_all = sum(len(r[0]) for r in rows.values())
    nnz_strategy = sum(len(r[0]) for (pid, a), r in rows.items() if a == lower.strategy[pid])
    c["imdp.vi_passes"] += 2
    c["imdp.vi_unconverged"] += (not lower.converged) + (not upper.converged)
    c["imdp.vi_lower_sweeps"] += lower.sweeps
    c["imdp.vi_upper_sweeps"] += upper.sweeps
    c["imdp.vi_lower_residual"] = max(c["imdp.vi_lower_residual"], lower.residual)
    c["imdp.vi_upper_residual"] = max(c["imdp.vi_upper_residual"], upper.residual)
    c["imdp.vi_nnz_sweeps"] += lower.sweeps * nnz_all + upper.sweeps * nnz_strategy
    c["automata.product_states"] = product.num_states
    c["automata.product_rows"] = len(rows)
    c["automata.product_nnz"] = nnz_all


def _refine_counts(c, args, kwargs, outcome):
    grid, imdp = args[0], args[1]
    c["refinement.splits"] += len(outcome.splits)
    c["refinement.dirty_rows"] += len(outcome.dirty)
    c["refinement.rows"] += grid.num_cells * imdp.num_actions


def _evaluate_points(c, args, kwargs, result):
    c["networks.evaluate_points"] += np.atleast_2d(args[2]).shape[0]


def _locate_points(c, args, kwargs, result):
    c["geometry.locate_points"] += np.atleast_2d(args[1]).shape[0]


def install(rec, traced: bool) -> None:
    """Stage spans always; with `traced`, one span per call into each layer."""
    rec.wrap(pipeline, "build_abstraction", "pipeline.build_abstraction")
    rec.wrap(pipeline, "synthesize", "pipeline.synthesize", _synthesis_counts)
    rec.wrap(pipeline, "apply_refinement", "pipeline.apply_refinement")
    rec.wrap(pipeline, "refine_round", "refinement.refine_round", _refine_counts)
    rec.wrap(pipeline, "validate_monte_carlo", "pipeline.validate_monte_carlo")
    rec.wrap(pipeline, "emit_outputs", "pipeline.emit_outputs")
    if not traced:
        return
    rec.wrap(pipeline, "whitening_transform", "geometry.whitening_transform")
    rec.wrap(pipeline, "build_grid", "geometry.build_grid")
    rec.wrap(RegionGrid, "boxes", "geometry.boxes")
    rec.wrap(RegionGrid, "locate", "geometry.locate", _locate_points)
    rec.wrap(pipeline, "evaluate", "networks.evaluate", _evaluate_points)
    rec.wrap(pipeline, "relax", "relaxation.relax")
    rec.wrap(pipeline, "transition_row", "transitions.transition_row")
    rec.wrap(pipeline, "row_entries_for_targets", "transitions.row_entries_for_targets")
    rec.wrap(pipeline, "build_product", "automata.build_product")
    rec.wrap(pipeline, "robust_value_iteration", "imdp.robust_value_iteration")
    rec.wrap(pipeline, "evaluate_strategy_upper", "imdp.evaluate_strategy_upper")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bounds_problems(p_lower, p_upper) -> list[str]:
    if np.all(p_lower >= 0.0) and np.all(p_lower <= p_upper) and np.all(p_upper <= 1.0):
        return []
    return ["some cell violates 0 <= p_lower <= p_upper <= 1"]


def check(result, outdir: str) -> list[str]:
    """Output checks, run after the timed region. Returns the problems found."""
    problems = bounds_problems(result.p_lower, result.p_upper)
    try:
        result.abstraction.imdp.validate()
    except ValueError as e:
        problems.append(f"Imdp.validate: {e}")
    with open(os.path.join(outdir, "regions.csv")) as fh:
        if sum(1 for _ in fh) != result.abstraction.grid.num_cells + 1:
            problems.append("regions.csv does not hold one line per cell")
    with open(os.path.join(outdir, "refinement.jsonl")) as fh:
        if sum(1 for _ in fh) != len(result.rounds):
            problems.append("refinement.jsonl does not hold one line per round")
    return problems


def layer_metrics(rec, result, record: dict, outdir: str) -> dict:
    """Per-layer metrics of a traced run; also writes its spans to `outdir`."""
    c = rec.counters
    grid, imdp = result.abstraction.grid, result.abstraction.imdp
    nnz = record["repeat"]["nnz"]
    names = rec.by_name()

    def own(name, key="self_s"):
        return names.get(name, {}).get(key, 0)

    lows, highs = grid.boxes()
    layers = rec.by_layer()
    metrics = {
        **{f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS},
        "trace.total_s": record["total_s"],
        # orchestration time in no wrapped layer call, outside outputs and MC
        "trace.unattributed_frac": (
            layers.get("pipeline", 0.0) - own("pipeline.emit_outputs") - own("pipeline.validate_monte_carlo")
        ) / record["total_s"],
        "fixtures.setup_s": record["setup_s"],
        "pipeline.refine_s": record["refine_s"],
        "pipeline.validate_s": record["validate_s"],
        "pipeline.apply_refinement_s": own("pipeline.apply_refinement"),
        "pipeline.mc_inconsistent_frac": record["mc_inconsistent_frac"],
        "transitions.row_s": own("transitions.transition_row"),
        "transitions.row_calls": own("transitions.transition_row", "calls"),
        "transitions.refresh_s": own("transitions.row_entries_for_targets"),
        "transitions.refresh_calls": own("transitions.row_entries_for_targets", "calls"),
        "transitions.nnz": nnz,
        "transitions.kept_ratio": nnz / (len(imdp.rows) * grid.num_cells),
        "geometry.boxes_s": own("geometry.boxes"),
        "geometry.boxes_calls": own("geometry.boxes", "calls"),
        "geometry.distinct_intervals": sum(
            len(np.unique(np.stack([lows[:, d], highs[:, d]], axis=1), axis=0))
            for d in range(grid.dim)
        ),
        "geometry.locate_s": own("geometry.locate"),
        "geometry.locate_points": c["geometry.locate_points"],
        "networks.evaluate_s": own("networks.evaluate"),
        "networks.evaluate_points": c["networks.evaluate_points"],
        "relaxation.relax_s": own("relaxation.relax"),
        "relaxation.relax_calls": own("relaxation.relax", "calls"),
        "automata.product_s": own("automata.build_product"),
        "automata.product_states": c["automata.product_states"],
        "automata.product_rows": c["automata.product_rows"],
        "automata.product_nnz": c["automata.product_nnz"],
        "imdp.vi_lower_s": own("imdp.robust_value_iteration"),
        "imdp.vi_upper_s": own("imdp.evaluate_strategy_upper"),
        "imdp.vi_lower_sweeps": c["imdp.vi_lower_sweeps"],
        "imdp.vi_upper_sweeps": c["imdp.vi_upper_sweeps"],
        "imdp.vi_lower_residual": c["imdp.vi_lower_residual"],
        "imdp.vi_upper_residual": c["imdp.vi_upper_residual"],
        "imdp.vi_nnz_sweeps": c["imdp.vi_nnz_sweeps"],
        "imdp.vi_unconverged_frac": record["vi_unconverged_frac"],
        "refinement.round_s": own("refinement.refine_round"),
        "refinement.splits": c["refinement.splits"],
        "refinement.dirty_rows": c["refinement.dirty_rows"],
        "refinement.dirty_ratio": c["refinement.dirty_rows"] / max(c["refinement.rows"], 1),
    }
    with open(os.path.join(outdir, "spans.jsonl"), "w") as fh:
        for span in rec.records():
            fh.write(json.dumps(span) + "\n")
    return metrics


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def full_run(args, workload, nd, config, setup_s: float) -> dict:
    rec = spans.Recorder()
    install(rec, args.trace)
    try:
        result = rec.call(
            "pipeline.run_pipeline",
            pipeline.run_pipeline,
            (config,),
            {"nd": nd, "outdir": args.outdir, "monte_carlo": True},
        )
    finally:
        rec.restore()

    problems = check(result, args.outdir)
    c = rec.counters
    durs = defaultdict(list)
    for s in rec.spans:
        durs[s.name].append(s.end - s.start)

    grid, imdp = result.abstraction.grid, result.abstraction.imdp
    classes = [str(k) for k in result.classes]
    validation = result.validation or {"num_inconsistent": 0, "cells": []}
    record = {
        "setup_s": setup_s,
        "certify_s": sum(durs["pipeline.build_abstraction"]) + durs["pipeline.synthesize"][0],
        "refine_s": sum(durs["refinement.refine_round"]) + sum(durs["pipeline.apply_refinement"])
        + sum(durs["pipeline.synthesize"][1:]),
        "validate_s": sum(durs["pipeline.validate_monte_carlo"]),
        "total_s": durs["pipeline.run_pipeline"][0],
        "mean_gap": pipeline.gap_stats(grid, result.p_lower, result.p_upper)[0],
        "maybe_frac": classes.count("maybe") / len(classes),
        "vi_unconverged_frac": c["imdp.vi_unconverged"] / max(c["imdp.vi_passes"], 1),
        "mc_inconsistent_frac": validation["num_inconsistent"] / max(len(validation["cells"]), 1),
        "problems": problems,
        "hashes": {f: _sha256(os.path.join(args.outdir, f)) for f in OUTPUT_FILES},
        # counters that must repeat exactly for the same code and seed
        "repeat": {
            "cells": grid.num_cells,
            "rows": len(imdp.rows),
            "nnz": sum(len(row.targets) for row in imdp.rows.values()),
            "product_states": c["automata.product_states"],
            "product_rows": c["automata.product_rows"],
            "product_nnz": c["automata.product_nnz"],
            "vi_lower_sweeps": c["imdp.vi_lower_sweeps"],
            "vi_upper_sweeps": c["imdp.vi_upper_sweeps"],
            "dirty_rows": sum(r["dirty_rows"] for r in result.rounds),
            "mc_start_cells": len(validation["cells"]),
            "mc_digest": digest(validation),
        },
        "absent": rec.absent,
    }
    if args.trace:
        record["repeat"]["evaluate_points"] = c["networks.evaluate_points"]
        record["repeat"]["locate_points"] = c["geometry.locate_points"]
        record["layers"] = layer_metrics(rec, result, record, args.outdir)
    return record


def certify_run(args, workload, nd, config, setup_s: float) -> dict:
    """Config to first certificate only, as `run_pipeline` starts."""
    rec = spans.Recorder()
    install(rec, traced=False)
    try:
        ab = pipeline.build_abstraction(nd, config)
        synth = pipeline.synthesize(ab, config.dfa, config.vi_tolerance, config.vi_max_sweeps)
    finally:
        rec.restore()
    return {
        "setup_s": setup_s,
        "certify_s": sum(s.end - s.start for s in rec.spans),
        "problems": bounds_problems(synth.p_lower, synth.p_upper),
        "repeat": {"certify_product_nnz": rec.counters["automata.product_nnz"]},
        "hashes": {},
        "absent": rec.absent,
    }


def setup_run(args, workload, nd, config, setup_s: float) -> dict:
    return {"setup_s": setup_s, "problems": [], "repeat": {}, "hashes": {}, "absent": []}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--stage", choices=("full", "certify", "setup"), default="full")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    nd, config = workload.inputs(args.seed)
    setup_s = time.perf_counter() - T0
    run = {"full": full_run, "certify": certify_run, "setup": setup_run}[args.stage]
    record = run(args, workload, nd, config, setup_s)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    # CPU time beside wall time: time the process was ready but not running
    # (host steal included) is wall minus CPU
    record["process_wall_s"] = time.perf_counter() - T0
    record["process_cpu_s"] = usage.ru_utime + usage.ru_stime
    print(json.dumps(record))


if __name__ == "__main__":
    main()
