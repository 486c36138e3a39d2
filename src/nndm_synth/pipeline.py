"""End-to-end certified controller synthesis.

Wires the stages together: noise whitening and grid construction, affine
envelopes (per action, in batches of cells), transition bound rows, DFA
product, value iteration from both sides, uncertainty-guided refinement, and
finally the certified classification with its on-disk outputs and an
optional Monte Carlo check.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .automata import Dfa, ProductImdp, build_product, dfa_template, load_dfa
from .geometry import (
    HyperRect,
    RegionGrid,
    Transform,
    build_grid,
    whitening_transform,
)
from .imdp import (
    Imdp,
    ValueIterationResult,
    evaluate_strategy_upper,
    robust_value_iteration,
)
from .networks import NeuralDynamics, evaluate, load_networks
from .refinement import RefinementConfig, RefineOutcome, refine_round
from .relaxation import LinearBounds, relax_cells
from .transitions import refresh_rows, transition_rows


def _parse_covariance(raw, dim: int) -> np.ndarray:
    """Scalar -> isotropic, vector -> diagonal, matrix -> as given."""
    if np.isscalar(raw):
        return float(raw) * np.eye(dim)
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        if arr.size != dim:
            raise ValueError(f"diagonal covariance needs {dim} entries, got {arr.size}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ValueError(f"covariance must be {dim}x{dim}, got {arr.shape}")
    return arr


_TOP_KEYS = {
    "domain", "covariance", "grid", "regions", "spec", "network", "threshold",
    "refinement", "vi", "simulation", "seed", "threads",
}
_SECTION_KEYS = {
    "refinement": {"per_round", "rounds", "stop_width", "split_mode"},
    "vi": {"tolerance", "max_sweeps"},
    "simulation": {"trials", "start_cells", "horizon", "horizon_factor"},
    "spec": {"template", "labels", "dfa"},
}
_REGION_KEYS = {"label", "box"}


def _check_keys(raw, allowed: set[str], where: str) -> None:
    """A misspelt key would otherwise fall back to its default silently."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")


def _require(raw: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ValueError(f"missing config key {missing[0]!r} in {where}")


def _box(raw, where: str) -> HyperRect:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{where} must be a list of [lo, hi] pairs")
    return HyperRect(arr[:, 0], arr[:, 1])


@dataclass
class PipelineConfig:
    """Everything one synthesis run needs. Built directly in code or parsed
    from JSON via from_json / from_dict (see the README for the schema)."""

    domain: HyperRect
    covariance: np.ndarray
    grid: list[int]
    dfa: Dfa
    regions: list[tuple[str, HyperRect]] = field(default_factory=list)
    network: str | None = None
    threshold: float = 0.95
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    vi_tolerance: float = 1e-6
    vi_max_sweeps: int = 5000
    horizon: int = 100
    sim_trials: int = 10_000
    sim_start_cells: int = 20
    sim_horizon_factor: int = 5
    seed: int = 0
    threads: int = 1  # accepted and ignored: rows are built in one thread

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str = ".") -> "PipelineConfig":
        _check_keys(raw, _TOP_KEYS, "the config")
        _require(raw, ("domain", "covariance", "grid", "spec"), "the config")
        for name, allowed in _SECTION_KEYS.items():
            _check_keys(raw.get(name, {}), allowed, repr(name))
        reg_raw = raw.get("regions", [])
        if not isinstance(reg_raw, list):
            raise ValueError("'regions' must be a list")
        for reg in reg_raw:
            _check_keys(reg, _REGION_KEYS, "a 'regions' entry")
            _require(reg, ("label", "box"), "a 'regions' entry")
        domain = _box(raw["domain"], "'domain'")
        covariance = _parse_covariance(raw["covariance"], domain.dim)
        regions = [(str(reg["label"]), _box(reg["box"], "a region 'box'")) for reg in reg_raw]

        spec = raw["spec"]
        if "template" in spec:
            _require(spec, ("labels",), "'spec'")
            dfa = dfa_template(spec["template"], spec["labels"])
        elif "dfa" in spec:
            path = spec["dfa"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            dfa = load_dfa(path)
        else:
            raise ValueError("spec needs either a 'template' name or a 'dfa' path")

        ref_raw = raw.get("refinement", {})
        vi_raw = raw.get("vi", {})
        sim_raw = raw.get("simulation", {})
        network = raw.get("network")
        if network is not None and not os.path.isabs(network):
            network = os.path.join(base_dir, network)
        return cls(
            domain=domain,
            covariance=covariance,
            grid=[int(c) for c in raw["grid"]],
            dfa=dfa,
            regions=regions,
            network=network,
            threshold=float(raw.get("threshold", 0.95)),
            refinement=RefinementConfig(
                per_round=int(ref_raw.get("per_round", 0)),
                rounds=int(ref_raw.get("rounds", 0)),
                stop_width=float(ref_raw.get("stop_width", 0.0)),
                split_mode=str(ref_raw.get("split_mode", "edges")),
            ),
            vi_tolerance=float(vi_raw.get("tolerance", 1e-6)),
            vi_max_sweeps=int(vi_raw.get("max_sweeps", 5000)),
            horizon=int(sim_raw.get("horizon", 100)),
            sim_trials=int(sim_raw.get("trials", 10_000)),
            sim_start_cells=int(sim_raw.get("start_cells", 20)),
            sim_horizon_factor=int(sim_raw.get("horizon_factor", 5)),
            seed=int(raw.get("seed", 0)),
            threads=int(raw.get("threads", 1)),
        )

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# -- abstraction --------------------------------------------------------------


@dataclass
class Abstraction:
    """Grid, per-row affine envelopes, and the interval MDP built from them.
    imdp.labels aliases grid.labels so refinement splits stay in sync."""

    dynamics: NeuralDynamics
    transform: Transform
    grid: RegionGrid
    bounds: dict[tuple[int, int], LinearBounds]
    imdp: Imdp


def _compute_rows(nd, grid, keys):
    """Envelope + transition row for each (cell, action index) key. Per
    action, all of that action's cells go through one relax_cells and one
    transition_rows call."""
    cells_of: dict[int, list[int]] = {}
    for cell, a in keys:
        cells_of.setdefault(a, []).append(cell)
    out = {}
    for a, cells in cells_of.items():
        ids = np.asarray(cells, dtype=np.int64)
        envs = relax_cells(nd, nd.actions[a], grid.transform, grid.lo[ids], grid.hi[ids])
        rows = transition_rows(grid, ids, nd.actions[a], envs)
        for cell, b, row in zip(cells, envs, rows):
            out[(cell, a)] = (b, row)
    return out


def build_abstraction(nd: NeuralDynamics, config: PipelineConfig) -> Abstraction:
    if nd.dim != config.domain.dim:
        raise ValueError(f"network dim {nd.dim} does not match domain dim {config.domain.dim}")
    if len(config.grid) != nd.dim:
        raise ValueError("grid counts must have one entry per dimension")
    transform = whitening_transform(config.covariance)
    grid = build_grid(config.domain, transform, config.grid, config.regions)

    keys = [(c, a) for c in range(grid.num_cells) for a in range(len(nd.actions))]
    computed = _compute_rows(nd, grid, keys)
    bounds: dict[tuple[int, int], LinearBounds] = {}
    rows = {}
    for key in sorted(computed):
        b, row = computed[key]
        bounds[key] = b
        rows[key] = row
    imdp = Imdp(actions=nd.actions, labels=grid.labels, rows=rows, num_cells=grid.num_cells)
    return Abstraction(dynamics=nd, transform=transform, grid=grid, bounds=bounds, imdp=imdp)


def apply_refinement(abstraction: Abstraction, outcome: RefineOutcome) -> None:
    """Bring the abstraction in line with a round of grid splits: rebuild the
    split cells' rows (outcome.dirty) from fresh envelopes, and recompute
    every other row's entries at the split cells' ids from its cached
    envelope, so each row matches a full rebuild bit for bit."""
    grid = abstraction.grid
    imdp = abstraction.imdp
    dirty = sorted(outcome.dirty)
    computed = _compute_rows(abstraction.dynamics, grid, dirty)
    for key in dirty:
        abstraction.bounds[key], imdp.rows[key] = computed[key]

    clean = [key for key in sorted(imdp.rows) if key not in outcome.dirty]
    if outcome.splits and clean:
        changed = np.sort(np.array(outcome.splits, dtype=np.int64)[:, :2], axis=None)
        fresh = refresh_rows(grid, [imdp.rows[key] for key in clean],
                             [abstraction.bounds[key] for key in clean], changed)
        imdp.rows.update(zip(clean, fresh))

    imdp.num_cells = grid.num_cells
    imdp.rows = {key: imdp.rows[key] for key in sorted(imdp.rows)}


# -- synthesis ----------------------------------------------------------------


@dataclass
class Synthesis:
    product: ProductImdp
    lower: ValueIterationResult
    upper: ValueIterationResult
    p_lower: np.ndarray  # per cell, at the cell's initial product state
    p_upper: np.ndarray


def synthesize(
    abstraction: Abstraction,
    dfa: Dfa,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
) -> Synthesis:
    """Product construction plus the two value iterations: the maximin pass
    certifies the strategy from below, the fixed-strategy optimistic pass
    bounds the same strategy from above."""
    product = build_product(abstraction.imdp, dfa)
    lower = robust_value_iteration(product, tol=tol, max_sweeps=max_sweeps)
    upper = evaluate_strategy_upper(product, lower.strategy, tol=tol, max_sweeps=max_sweeps)
    p_lower = lower.values[product.initial_pid]
    p_upper = np.maximum(upper.values[product.initial_pid], p_lower)
    return Synthesis(product=product, lower=lower, upper=upper, p_lower=p_lower, p_upper=p_upper)


def classify(p_lower: np.ndarray, p_upper: np.ndarray, threshold: float) -> np.ndarray:
    """Per-cell verdicts: "yes" when even the pessimistic bound clears the
    threshold, "no" when even the optimistic one misses it, "maybe" between."""
    out = np.full(np.shape(p_lower), "maybe", dtype=object)
    out[np.asarray(p_lower) >= threshold] = "yes"
    out[np.asarray(p_upper) < threshold] = "no"
    return out


def gap_stats(grid: RegionGrid, p_lower: np.ndarray, p_upper: np.ndarray) -> tuple[float, float]:
    """Volume-weighted mean and max certificate gap over the grid."""
    vols = np.prod(grid.hi - grid.lo, axis=1)
    gap = np.asarray(p_upper, dtype=float) - np.asarray(p_lower, dtype=float)
    return float((vols * gap).sum() / vols.sum()), float(gap.max())


@dataclass
class SwitchingStrategy:
    """DFA-state-dependent memoryless controller: a table of action indices
    over (cell, dfa state). Pairs synthesis never reached keep action 0."""

    actions: tuple[str, ...]
    dfa: Dfa
    grid: RegionGrid
    table: np.ndarray

    def action_at(self, x: np.ndarray, dfa_state: str) -> str:
        """Action for one original-coordinate point."""
        z = np.asarray(x, dtype=float) @ self.grid.transform.matrix.T
        cell = int(self.grid.locate(z.reshape(1, -1))[0])
        if cell < 0:
            raise ValueError("point is outside the certified domain")
        d = self.dfa.states.index(dfa_state)
        return self.actions[int(self.table[cell, d])]


def map_strategy(product: ProductImdp, strategy: np.ndarray, grid: RegionGrid) -> SwitchingStrategy:
    table = np.zeros((grid.num_cells, len(product.dfa.states)), dtype=np.int64)
    for pid, (cell, d) in enumerate(product.states):
        if cell >= 0:
            table[cell, d] = strategy[pid]
    return SwitchingStrategy(actions=product.imdp.actions, dfa=product.dfa, grid=grid, table=table)


# -- full run -----------------------------------------------------------------


@dataclass
class PipelineResult:
    config: PipelineConfig
    dynamics: NeuralDynamics
    abstraction: Abstraction
    product: ProductImdp
    lower: ValueIterationResult
    upper: ValueIterationResult
    p_lower: np.ndarray
    p_upper: np.ndarray
    classes: np.ndarray
    switching: SwitchingStrategy
    rounds: list[dict]
    timings: dict[str, float]
    validation: dict | None = None


def run_pipeline(
    config: PipelineConfig,
    nd: NeuralDynamics | None = None,
    outdir: str | None = None,
    monte_carlo: bool = False,
    abstraction: Abstraction | None = None,
) -> PipelineResult:
    """Run every stage on one config. A prebuilt abstraction can be passed in
    to skip the envelope/row stage (refinement rounds mutate it in place)."""
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    if abstraction is not None:
        nd = abstraction.dynamics
        timings["abstraction"] = 0.0
    else:
        if nd is None:
            if config.network is None:
                raise ValueError("config has no network path and no dynamics were passed in")
            nd = load_networks(config.network)
        t = time.perf_counter()
        abstraction = build_abstraction(nd, config)
        timings["abstraction"] = time.perf_counter() - t

    t = time.perf_counter()
    synth = synthesize(abstraction, config.dfa, config.vi_tolerance, config.vi_max_sweeps)
    timings["synthesis"] = time.perf_counter() - t

    rounds: list[dict] = []
    t = time.perf_counter()
    for rnd in range(config.refinement.rounds):
        mean_gap, _ = gap_stats(abstraction.grid, synth.p_lower, synth.p_upper)
        if 0.0 < config.refinement.stop_width and mean_gap <= config.refinement.stop_width:
            break
        outcome = refine_round(
            abstraction.grid,
            abstraction.imdp,
            synth.p_lower,
            synth.p_upper,
            config.refinement,
            abstraction.bounds,
        )
        if not outcome.splits:
            break
        apply_refinement(abstraction, outcome)
        synth = synthesize(abstraction, config.dfa, config.vi_tolerance, config.vi_max_sweeps)
        mean_gap, max_gap = gap_stats(abstraction.grid, synth.p_lower, synth.p_upper)
        rounds.append(
            {
                "round": rnd,
                "splits": [[int(a), int(b), int(d)] for a, b, d in outcome.splits],
                "dirty_rows": len(outcome.dirty),
                "num_cells": abstraction.grid.num_cells,
                "num_product_states": synth.product.num_states,
                "mean_gap": mean_gap,
                "max_gap": max_gap,
            }
        )
    timings["refinement"] = time.perf_counter() - t

    result = PipelineResult(
        config=config,
        dynamics=nd,
        abstraction=abstraction,
        product=synth.product,
        lower=synth.lower,
        upper=synth.upper,
        p_lower=synth.p_lower,
        p_upper=synth.p_upper,
        classes=classify(synth.p_lower, synth.p_upper, config.threshold),
        switching=map_strategy(synth.product, synth.lower.strategy, abstraction.grid),
        rounds=rounds,
        timings=timings,
    )

    if monte_carlo:
        t = time.perf_counter()
        result.validation = validate_monte_carlo(result)
        timings["monte_carlo"] = time.perf_counter() - t

    timings["total"] = time.perf_counter() - t_start
    if outdir is not None:
        emit_outputs(result, outdir)
    return result


# -- outputs ------------------------------------------------------------------


def emit_outputs(result: PipelineResult, outdir: str) -> None:
    """Write regions.csv, strategy.json, refinement.jsonl and summary.json.
    Every file except summary.json (which carries timings) is a pure function
    of the inputs, so reruns produce byte-identical content."""
    os.makedirs(outdir, exist_ok=True)
    grid = result.abstraction.grid
    dim = grid.dim

    with open(os.path.join(outdir, "regions.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["id"]
        header += [f"x{l}_{side}" for l in range(dim) for side in ("lo", "hi")]
        header += [f"z{l}_{side}" for l in range(dim) for side in ("lo", "hi")]
        header += ["label", "p_lower", "p_upper", "action", "class"]
        w.writerow(header)
        for i in range(grid.num_cells):
            orig = grid.cell_original_rect(i)
            pid = int(result.product.initial_pid[i])
            act = result.switching.actions[int(result.lower.strategy[pid])]
            row = [str(i)]
            row += [repr(float(v)) for l in range(dim) for v in (orig.lo[l], orig.hi[l])]
            row += [repr(float(v)) for l in range(dim) for v in (grid.lo[i, l], grid.hi[i, l])]
            row += [
                ";".join(sorted(grid.labels[i])),
                repr(float(result.p_lower[i])),
                repr(float(result.p_upper[i])),
                act,
                str(result.classes[i]),
            ]
            w.writerow(row)

    entries = []
    for pid, (cell, d) in enumerate(result.product.states):
        if cell < 0 or result.product.accepting[pid] or result.product.sink[pid]:
            continue
        entries.append(
            {
                "region": int(cell),
                "dfa": result.product.dfa.states[d],
                "action": result.switching.actions[int(result.lower.strategy[pid])],
            }
        )
    entries.sort(key=lambda e: (e["region"], e["dfa"]))
    with open(os.path.join(outdir, "strategy.json"), "w") as fh:
        json.dump(
            {
                "actions": list(result.switching.actions),
                "dfa_states": list(result.product.dfa.states),
                "initial_dfa_state": result.product.dfa.initial,
                "entries": entries,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    with open(os.path.join(outdir, "refinement.jsonl"), "w") as fh:
        for rec in result.rounds:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    cls_list = [str(c) for c in result.classes]
    mean_gap, max_gap = gap_stats(grid, result.p_lower, result.p_upper)
    summary = {
        "num_cells": grid.num_cells,
        "num_product_states": result.product.num_states,
        "actions": list(result.switching.actions),
        "threshold": result.config.threshold,
        "classes": {k: cls_list.count(k) for k in ("yes", "no", "maybe")},
        "mean_gap": mean_gap,
        "max_gap": max_gap,
        "refinement_rounds": len(result.rounds),
        "vi": {
            "lower": {
                "sweeps": result.lower.sweeps,
                "residual": result.lower.residual,
                "converged": result.lower.converged,
            },
            "upper": {
                "sweeps": result.upper.sweeps,
                "residual": result.upper.residual,
                "converged": result.upper.converged,
            },
        },
        "timings": {k: round(v, 3) for k, v in result.timings.items()},
        "seed": result.config.seed,
        "threads": result.config.threads,
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if result.validation is not None:
        with open(os.path.join(outdir, "validation.json"), "w") as fh:
            json.dump(result.validation, fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- Monte Carlo check --------------------------------------------------------


def _wilson(successes: int, trials: int, z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval; the default z is the two-sided 99% quantile."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _simulate_batch(
    nd: NeuralDynamics,
    covariance: np.ndarray,
    grid: RegionGrid,
    dfa: Dfa,
    switching: SwitchingStrategy,
    cell_id: int,
    trials: int,
    steps: int,
    rng: np.random.Generator,
    next_tbl: np.ndarray,
) -> np.ndarray:
    """Roll `trials` closed-loop trajectories from uniform starts in one cell
    and return the step at which each got accepted (-1 if never). A run that
    leaves the domain without its next DFA state accepting counts as failed,
    matching the certificate's semantics for the out-of-domain state.
    next_tbl is the product's DFA step table; UNSAFE_ID (out of domain)
    picks its last row."""
    T = grid.transform.matrix
    T_inv = grid.transform.inverse
    chol = np.linalg.cholesky(covariance)
    idx = {s: i for i, s in enumerate(dfa.states)}
    acc_mask = np.array([s in dfa.accepting for s in dfa.states])
    dead = dfa.dead_states()
    dead_mask = np.array([s in dead for s in dfa.states])

    z = rng.uniform(grid.lo[cell_id], grid.hi[cell_id], size=(trials, grid.dim))
    cells = np.full(trials, cell_id, dtype=np.int64)
    d = np.full(trials, next_tbl[cell_id, idx[dfa.initial]], dtype=np.int64)
    status = np.zeros(trials, dtype=np.int8)  # 0 running, 1 accepted, 2 failed
    accepted_at = np.full(trials, -1, dtype=np.int64)

    acc0 = acc_mask[d]
    status[acc0] = 1
    accepted_at[acc0] = 0
    status[~acc0 & dead_mask[d]] = 2

    for t in range(1, steps + 1):
        run = np.flatnonzero(status == 0)
        if run.size == 0:
            break
        a_idx = switching.table[cells[run], d[run]]
        x = z[run] @ T_inv.T
        x_next = np.empty_like(x)
        for a in np.unique(a_idx):
            m = a_idx == a
            x_next[m] = evaluate(nd, nd.actions[a], x[m])
        x_next = x_next + rng.standard_normal(x.shape) @ chol.T
        z_next = x_next @ T.T
        z[run] = z_next

        nxt = grid.locate(z_next)
        d_new = next_tbl[nxt, d[run]]
        cells[run] = nxt
        d[run] = d_new
        newly_acc = acc_mask[d_new]
        newly_dead = ~newly_acc & (dead_mask[d_new] | (nxt < 0))
        status[run[newly_acc]] = 1
        accepted_at[run[newly_acc]] = t
        status[run[newly_dead]] = 2
    return accepted_at


def validate_monte_carlo(result: PipelineResult, cells=None) -> dict:
    """Simulate the synthesized controller from sampled start cells and check
    the empirical satisfaction frequency against the certified interval.
    Runs continue past the reporting horizon (horizon_factor times longer) so
    the frequency approximates the unbounded-horizon probability; unfinished
    runs count as unsatisfied."""
    config = result.config
    grid = result.abstraction.grid
    dfa = result.product.dfa
    rng0 = np.random.default_rng([config.seed, 104729])
    if cells is None:
        k = min(config.sim_start_cells, grid.num_cells)
        cells = np.sort(rng0.choice(grid.num_cells, size=k, replace=False))
    steps = config.horizon * config.sim_horizon_factor

    records = []
    inconsistent = 0
    for cell in (int(c) for c in cells):
        rng = np.random.default_rng([config.seed, 7919, cell])
        accepted_at = _simulate_batch(
            result.dynamics, config.covariance, grid, dfa, result.switching,
            cell, config.sim_trials, steps, rng, result.product.next_tbl,
        )
        n = config.sim_trials
        k_ext = int(np.count_nonzero(accepted_at >= 0))
        k_hor = int(np.count_nonzero((accepted_at >= 0) & (accepted_at <= config.horizon)))
        ci_lo, ci_hi = _wilson(k_ext, n)
        p_lo = float(result.p_lower[cell])
        p_hi = float(result.p_upper[cell])
        ok = not (ci_hi < p_lo or ci_lo > p_hi)
        inconsistent += 0 if ok else 1
        records.append(
            {
                "cell": cell,
                "p_lower": p_lo,
                "p_upper": p_hi,
                "freq_horizon": k_hor / n,
                "freq": k_ext / n,
                "ci99": [ci_lo, ci_hi],
                "consistent": ok,
            }
        )
    return {
        "trials": config.sim_trials,
        "horizon": config.horizon,
        "extended_steps": steps,
        "num_inconsistent": inconsistent,
        "cells": records,
    }
