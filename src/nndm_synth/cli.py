"""Command line front end.

Subcommands mirror the pipeline stages: `abstract` builds the interval
abstraction, `synthesize` runs the DFA product and value iteration without
refinement, `refine` runs the full refinement loop, `simulate` Monte Carlo
checks a saved result, and `run` does everything including the simulation
check. Artifacts travel between invocations as pickles in the output
directory (abstraction.pkl, result.pkl), tagged with _ARTIFACT_FORMAT.
abstraction.pkl also carries a fingerprint of the inputs it was built from,
and `synthesize` refuses one whose inputs differ from its config.

Exit status: 0 on success, 2 on a bad config, input or artifact, and
_EXIT_NOT_CONVERGED when synthesize, refine or run wrote their outputs but a
value-iteration pass stopped at max_sweeps before it converged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
from dataclasses import replace

import numpy as np

from .networks import NeuralDynamics, load_networks
from .pipeline import (
    PipelineConfig,
    build_abstraction,
    emit_outputs,
    run_pipeline,
    summarize,
    validate_monte_carlo,
)

# Bump whenever a pickled class or the pickled dict changes its fields.
_ARTIFACT_FORMAT = 18
_EXIT_NOT_CONVERGED = 3


def _overrides(args, **flags) -> dict:
    """{field: value} of each flag (field=flag name) given on the command line."""
    return {name: getattr(args, flag) for name, flag in flags.items() if getattr(args, flag) is not None}


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.from_json(args.config)
    return replace(config, **_overrides(args, threads="threads", seed="seed"))


def _require_network(config: PipelineConfig):
    if config.network is None:
        raise ValueError("config must name a network file")
    return load_networks(config.network)


def _fingerprint(config: PipelineConfig, nd: NeuralDynamics) -> str:
    """sha256 over everything an abstraction is built from: the domain, grid
    counts, noise covariance, labeled regions and network weights."""
    doc = {
        "domain": [config.domain.lo.tolist(), config.domain.hi.tolist()],
        "grid": list(config.grid),
        "covariance": np.asarray(config.covariance).tolist(),
        "regions": [[label, box.lo.tolist(), box.hi.tolist()] for label, box in config.regions],
        "dim": nd.dim,
        "networks": [
            [a, [[l.weights.tolist(), l.bias.tolist(), l.activation.value] for l in nd.layers(a)]]
            for a in nd.actions
        ],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _load_pickle(outdir: str, name: str, fingerprint: str | None = None):
    """The pickled object, or None when the file does not exist. With a
    fingerprint, an artifact built from other inputs is refused."""
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
    except (AttributeError, ImportError, EOFError, ValueError, pickle.UnpicklingError):
        doc = None
    if not isinstance(doc, dict) or doc.get("format") != _ARTIFACT_FORMAT:
        raise ValueError(f"{path} is unreadable or from another version of nndm-synth; rebuild it")
    if fingerprint is not None and doc["fingerprint"] != fingerprint:
        raise ValueError(
            f"{path} was built from another domain, grid, covariance, regions or network "
            "than this config; rebuild it"
        )
    return doc["object"]


def _save_pickle(outdir: str, name: str, obj, fingerprint: str | None = None) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "wb") as fh:
        pickle.dump({"format": _ARTIFACT_FORMAT, "fingerprint": fingerprint, "object": obj}, fh)
    return path


def _print_result(result) -> None:
    """The run's summary.json figures (pipeline.summarize), in short."""
    s = summarize(result)
    counts, lower, upper = s["classes"], s["vi"]["lower"], s["vi"]["upper"]
    print(
        f"{s['num_cells']} cells, {s['num_product_states']} product states, "
        f"{s['refinement_rounds']} refinement rounds"
    )
    print(
        f"classes: yes={counts['yes']} no={counts['no']} maybe={counts['maybe']}; "
        f"gap mean={s['mean_gap']:.4f} max={s['max_gap']:.4f}"
    )
    print(
        f"value iteration: {lower['sweeps']}+{upper['sweeps']} sweeps, "
        f"converged={lower['converged'] and upper['converged']}"
    )
    if s["simulation"] is not None:
        _print_simulation(s["simulation"])


def _print_simulation(sim: dict) -> None:
    """The summary's Monte Carlo figures: trials run against the cap."""
    print(
        f"simulation: {sim['start_cells']} start cells, {sim['trials']} trials run "
        f"(cap {sim['trial_cap']} per cell), {sim['decided_early']} decided early, "
        f"{sim['inconsistent']} inconsistent"
    )


def _convergence_status(result) -> int:
    """Report each value-iteration pass of the final synthesis that did not
    converge; the outputs are already written, so they can be inspected."""
    status = 0
    for name, vi in (("lower (maximin)", result.lower), ("upper (fixed strategy)", result.upper)):
        if not vi.converged:
            print(
                f"error: value iteration pass {name} did not converge: "
                f"{vi.sweeps} sweeps, residual {vi.residual:.3g}",
                file=sys.stderr,
            )
            status = _EXIT_NOT_CONVERGED
    return status


def _cmd_abstract(args) -> int:
    config = _load_config(args)
    nd = _require_network(config)
    abstraction = build_abstraction(nd, config)
    path = _save_pickle(args.out, "abstraction.pkl", abstraction, _fingerprint(config, nd))
    print(
        f"abstraction: {abstraction.grid.num_cells} cells x {len(nd.actions)} actions "
        f"-> {len(abstraction.imdp.rows)} transition rows"
    )
    print(f"saved {path}")
    return 0


def _cmd_pipeline(args) -> int:
    """synthesize, refine and run, told apart by their subparser defaults:
    the refinement overrides (`rounds` is 0 for synthesize), `reuse`, to
    start from a matching abstraction.pkl, and `monte_carlo`."""
    config = _load_config(args)
    refinement = replace(config.refinement, **_overrides(args, rounds="rounds", per_round="per_round"))
    config = replace(config, refinement=refinement)
    nd = _require_network(config)
    abstraction = _load_pickle(args.out, "abstraction.pkl", _fingerprint(config, nd)) if args.reuse else None
    result = run_pipeline(config, nd=nd, outdir=args.out, monte_carlo=args.monte_carlo,
                          abstraction=abstraction)
    _save_pickle(args.out, "result.pkl", result)
    _print_result(result)
    return _convergence_status(result)


def _cmd_simulate(args) -> int:
    result = _load_pickle(args.out, "result.pkl")
    if result is None:
        raise ValueError(f"no result.pkl in {args.out}; run synthesize/refine/run first")
    flags = _overrides(args, sim_trials="trials", sim_start_cells="start_cells", seed="seed")
    result.config = replace(result.config, **flags)
    result.validation = validate_monte_carlo(result)
    emit_outputs(result, args.out)
    _save_pickle(args.out, "result.pkl", result)
    _print_simulation(summarize(result)["simulation"])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nndm-synth",
        description="Certified controller synthesis for neural dynamic models "
        "with additive Gaussian noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        if config_required:
            sp.add_argument("--config", required=True, help="pipeline config JSON")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--threads", type=int, help="accepted, ignored (kept for old scripts)")
        sp.add_argument("--seed", type=int, help="override the config seed")

    sp = sub.add_parser("abstract", help="build the interval abstraction only")
    common(sp)
    sp.set_defaults(fn=_cmd_abstract)

    sp = sub.add_parser("synthesize", help="product + value iteration, no refinement")
    common(sp)
    sp.set_defaults(fn=_cmd_pipeline, rounds=0, per_round=None, reuse=True, monte_carlo=False)

    sp = sub.add_parser("refine", help="full pipeline with refinement rounds")
    common(sp)
    sp.add_argument("--rounds", type=int, help="override refinement rounds")
    sp.add_argument("--per-round", dest="per_round", type=int, help="override cells split per round")
    sp.set_defaults(fn=_cmd_pipeline, reuse=False, monte_carlo=False)

    sp = sub.add_parser("simulate", help="Monte Carlo check of a saved result")
    common(sp, config_required=False)
    sp.add_argument("--trials", type=int, help="most trajectories per start cell")
    sp.add_argument("--start-cells", dest="start_cells", type=int, help="number of start cells")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("run", help="everything: abstraction, synthesis, refinement, simulation")
    common(sp)
    sp.set_defaults(fn=_cmd_pipeline, rounds=None, per_round=None, reuse=False, monte_carlo=True)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
