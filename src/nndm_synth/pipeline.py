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
    UNSAFE_ID,
    HyperRect,
    RegionGrid,
    build_grid,
    whitening_transform,
)
from .imdp import (
    Imdp,
    ValueIterationResult,
    evaluate_strategy_upper,
    robust_value_iteration,
)
from .networks import NeuralDynamics, _float, _int, _numbers, _strict, evaluate, load_networks
from .refinement import RefinementConfig, RefineOutcome, refine_round
from .relaxation import LinearBounds, relax_cells
from .transitions import transition_rows


def _parse_covariance(raw, dim: int) -> np.ndarray:
    """Scalar -> isotropic, vector -> diagonal, matrix -> as given."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.ndim == 1:
        if arr.size != dim:
            raise ValueError(f"diagonal covariance needs {dim} entries, got {arr.size}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ValueError(f"covariance must be {dim}x{dim}, got {arr.shape}")
    return arr


# Every optional setting: (JSON section, or None for the top level, JSON key,
# config field, conversion). Its default lives in the dataclass alone.
_SETTINGS = (
    (None, "threshold", "threshold", _float),
    (None, "seed", "seed", _int),
    (None, "threads", "threads", _int),
    ("refinement", "per_round", "per_round", _int),
    ("refinement", "rounds", "rounds", _int),
    ("refinement", "stop_width", "stop_width", _float),
    ("vi", "tolerance", "vi_tolerance", _float),
    ("vi", "max_sweeps", "vi_max_sweeps", _int),
    ("simulation", "trials", "sim_trials", _int),
    ("simulation", "start_cells", "sim_start_cells", _int),
    ("simulation", "horizon", "horizon", _int),
    ("simulation", "horizon_factor", "sim_horizon_factor", _int),
)
_SECTION_KEYS = {"spec": {"template", "labels", "dfa"}}
for _section, _key, _, _ in _SETTINGS:
    _SECTION_KEYS.setdefault(_section, set()).add(_key)
_TOP_KEYS = _SECTION_KEYS.pop(None) | {"domain", "covariance", "grid", "regions", "network", *_SECTION_KEYS}
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


def _get(section: dict, key: str, conv):
    """section[key] converted by conv; a value conv cannot take (None for a
    number, a number for a list, a bool or a string for a number, a fraction
    for an integer) is a config error."""
    return _strict(conv, section[key], f"config key {key!r} has a malformed value {section[key]!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one synthesis run needs. Built directly in code or parsed
    from JSON via from_json / from_dict (see the README for the schema), and
    changed with dataclasses.replace; every way runs __post_init__'s checks."""

    domain: HyperRect
    covariance: np.ndarray
    grid: tuple[int, ...]
    dfa: Dfa
    regions: tuple[tuple[str, HyperRect], ...] = ()
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

    def __post_init__(self):
        """One positive cell count per domain dimension; a Monte Carlo check
        needs a trial per start cell and a step (zero start cells is an empty
        check) and a non-negative seed; the threshold is a probability; value
        iteration needs a positive finite tolerance and at least one sweep.
        The grid and regions are stored as tuples and the covariance as a
        read-only copy, so no field can be changed in place either."""
        covariance = np.array(self.covariance, dtype=float)
        covariance.flags.writeable = False
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "regions", tuple(map(tuple, self.regions)))
        if len(self.grid) != self.domain.dim or any(c < 1 for c in self.grid):
            raise ValueError(f"'grid' needs one positive count per domain dimension, got {self.grid}")
        for key, value, least in (
            ("trials", self.sim_trials, 1),
            ("start_cells", self.sim_start_cells, 0),
            ("horizon", self.horizon, 1),
            ("horizon_factor", self.sim_horizon_factor, 1),
        ):
            if value < least:
                raise ValueError(f"simulation {key!r} must be at least {least}, got {value}")
        if self.seed < 0:
            raise ValueError(f"'seed' must not be negative, got {self.seed}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"'threshold' must lie in [0, 1], got {self.threshold}")
        if not 0.0 < self.vi_tolerance < np.inf:
            raise ValueError(f"vi 'tolerance' must be positive and finite, got {self.vi_tolerance}")
        if self.vi_max_sweeps < 1:
            raise ValueError(f"vi 'max_sweeps' must be at least 1, got {self.vi_max_sweeps}")

    def __setstate__(self, state):
        """An unpickled config is normalized and checked like a built one."""
        self.__dict__.update(state)
        self.__post_init__()

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
        domain = _box(_get(raw, "domain", _numbers), "'domain'")
        covariance = _parse_covariance(_get(raw, "covariance", _numbers), domain.dim)
        regions = [(str(reg["label"]), _box(_get(reg, "box", _numbers), "a region 'box'"))
                   for reg in reg_raw]

        spec = raw["spec"]
        if "template" in spec:
            _require(spec, ("labels",), "'spec'")
            if not isinstance(spec["labels"], dict):
                raise ValueError("'labels' in 'spec' must be a JSON object")
            dfa = dfa_template(spec["template"], spec["labels"])
        elif "dfa" in spec:
            dfa = load_dfa(os.path.join(base_dir, spec["dfa"]))  # an absolute path stays as it is
        else:
            raise ValueError("spec needs either a 'template' name or a 'dfa' path")

        network = raw.get("network")
        if network is not None:
            network = os.path.join(base_dir, network)
        # only the keys present are passed on, so the dataclasses' defaults hold
        top, ref = {}, {}
        for section, key, name, conv in _SETTINGS:
            src = raw.get(section, {}) if section else raw
            if key in src:
                (ref if section == "refinement" else top)[name] = _get(src, key, conv)
        return cls(
            domain=domain,
            covariance=covariance,
            grid=_get(raw, "grid", lambda g: tuple(_int(c) for c in g)),
            dfa=dfa,
            regions=regions,
            network=network,
            refinement=RefinementConfig(**ref),
            **top,
        )

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# -- abstraction --------------------------------------------------------------


@dataclass
class Abstraction:
    """Grid, affine envelopes, and the interval MDP built from them. bounds
    is one envelope stack indexed like imdp.rows (row r = cell * A + action).
    imdp.labels aliases grid.labels so refinement splits stay in sync."""

    dynamics: NeuralDynamics
    grid: RegionGrid
    bounds: LinearBounds
    imdp: Imdp


def build_abstraction(nd: NeuralDynamics, config: PipelineConfig) -> Abstraction:
    if nd.dim != config.domain.dim:
        raise ValueError(f"network dim {nd.dim} does not match domain dim {config.domain.dim}")
    transform = whitening_transform(config.covariance)
    grid = build_grid(config.domain, transform, config.grid, config.regions)

    bounds = relax_cells(nd, nd.actions, grid.transform, grid.lo, grid.hi)
    rows = transition_rows(grid, np.arange(grid.num_cells), nd.actions, bounds)
    imdp = Imdp(actions=nd.actions, labels=grid.labels, rows=rows)
    return Abstraction(dynamics=nd, grid=grid, bounds=bounds, imdp=imdp)


def apply_refinement(abstraction: Abstraction, outcome: RefineOutcome) -> None:
    """Bring the abstraction in line with a round of grid splits: relax the
    children of outcome.splits (the only field read) for fresh envelopes,
    and rebuild every row from the envelope stack in one transition_rows
    call, so the store is exactly what a full build on the refined grid
    gives. The stack keeps each unsplit row's envelope at its index; a
    split child's rows are overwritten (the low child keeps its parent's
    id) or appended (the high child's new id), so envelope r stays row r's."""
    grid, imdp, old = abstraction.grid, abstraction.imdp, abstraction.bounds
    nd = abstraction.dynamics
    A = imdp.num_actions
    splits = np.array(outcome.splits, dtype=np.int64).reshape(-1, 3)
    cells = np.sort(splits[:, :2], axis=None)  # the children of every split
    fresh = relax_cells(nd, nd.actions, grid.transform, grid.lo[cells], grid.hi[cells])
    pick = np.arange(grid.num_cells * A)
    pick[(cells[:, None] * A + np.arange(A)).ravel()] = len(old) + np.arange(len(fresh))
    abstraction.bounds = LinearBounds.concat([old, fresh])[pick]
    imdp.rows = None  # the old store goes before the new one is built
    imdp.rows = transition_rows(grid, np.arange(grid.num_cells), imdp.actions, abstraction.bounds)


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
    mean_gap, _ = gap_stats(abstraction.grid, synth.p_lower, synth.p_upper)
    for rnd in range(config.refinement.rounds):
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
        synth = None  # the last product goes before the next store and product are built
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
            name: {k: getattr(vi, k) for k in ("sweeps", "full_sweeps", "residual", "converged")}
            for name, vi in (("lower", result.lower), ("upper", result.upper))
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


# Most trajectories the Monte Carlo check steps at once. Whole start cells
# join the pool while they fit (a cell with more trials than this runs
# alone), so the pool's arrays and the batches it hands to evaluate and
# locate stay a few MiB however many start cells are checked.
_MC_POOL = 1 << 14


def _simulate(result: PipelineResult, cells: list[int], steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Roll config.sim_trials closed-loop trajectories from uniform starts in
    each of `cells`; return per cell how many got accepted within `steps`
    steps and within config.horizon steps.

    All running trajectories advance together in one pool of at most
    _MC_POOL, which whole cells join as finished runs leave it. Each cell
    draws from its own generator default_rng([seed, 7919, cell]): its
    uniform starts when it joins, then each step the noise of its own
    running trajectories, so a cell's counts do not depend on which cells
    share the pool. A run that leaves the domain without its next DFA state
    accepting counts as failed, matching the certificate's semantics for the
    out-of-domain state (UNSAFE_ID picks next_tbl's last row); a run still
    going after `steps` steps counts as unsatisfied."""
    config = result.config
    nd = result.dynamics
    grid = result.abstraction.grid
    dfa = result.product.dfa
    next_tbl = result.product.next_tbl
    table = result.switching.table
    trials, dim = config.sim_trials, grid.dim
    chol = np.linalg.cholesky(config.covariance)
    acc_mask = np.array([s in dfa.accepting for s in dfa.states])
    dead = dfa.dead_states()
    dead_mask = np.array([s in dead for s in dfa.states])
    d_init = dfa.states.index(dfa.initial)

    k_ext = np.zeros(len(cells), dtype=np.int64)
    k_hor = np.zeros(len(cells), dtype=np.int64)
    age = np.zeros(len(cells), dtype=np.int64)  # steps each cell's runs have taken
    rngs: list[np.random.Generator] = []
    # the pool, grouped by owner (index into `cells`) in joining order
    z = np.empty((0, dim))
    where = np.empty(0, dtype=np.int64)  # grid cell of each run
    d = np.empty(0, dtype=np.int64)  # DFA state of each run
    owner = np.empty(0, dtype=np.int64)
    joined = 0
    while True:
        while joined < len(cells) and (owner.size == 0 or owner.size + trials <= _MC_POOL):
            cell = cells[joined]
            rngs.append(np.random.default_rng([config.seed, 7919, cell]))
            d0 = next_tbl[cell, d_init]
            if acc_mask[d0]:
                k_ext[joined] = k_hor[joined] = trials
            elif not dead_mask[d0]:
                starts = rngs[joined].uniform(grid.lo[cell], grid.hi[cell], size=(trials, dim))
                z = np.concatenate([z, starts])
                where = np.concatenate([where, np.full(trials, cell)])
                d = np.concatenate([d, np.full(trials, d0)])
                owner = np.concatenate([owner, np.full(trials, joined)])
            joined += 1
        if owner.size == 0:
            break

        first = owner[0]
        counts = np.bincount(owner - first)
        live = np.flatnonzero(counts)
        z = _advance(
            nd, grid, chol, z, table[where, d],
            np.concatenate([rngs[first + j].standard_normal((counts[j], dim)) for j in live]),
        )
        where = grid.locate(z)
        d = next_tbl[where, d]
        age[first + live] += 1
        t = age[owner]
        acc = acc_mask[d]
        k_ext += np.bincount(owner[acc], minlength=len(cells))
        k_hor += np.bincount(owner[acc & (t <= config.horizon)], minlength=len(cells))
        keep = np.flatnonzero(~acc & ~dead_mask[d] & (where != UNSAFE_ID) & (t < steps))
        z, where, d, owner = z.take(keep, axis=0), where[keep], d[keep], owner[keep]
    return k_ext, k_hor


def _advance(
    nd: NeuralDynamics,
    grid: RegionGrid,
    chol: np.ndarray,
    z: np.ndarray,
    actions: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """One closed-loop step of the whitened states z: each run applies its
    action index's network in original coordinates, then adds its standard
    normal noise through the covariance's Cholesky factor. The temporaries
    die on return, before the pool takes its next step."""
    x = z @ grid.transform.inverse.T
    x_next = np.empty_like(x)
    for a in np.flatnonzero(np.bincount(actions)):
        rows = np.flatnonzero(actions == a)
        x_next[rows] = evaluate(nd, nd.actions[a], x.take(rows, axis=0))
    x_next += noise @ chol.T
    return x_next @ grid.transform.matrix.T


def validate_monte_carlo(result: PipelineResult, cells=None) -> dict:
    """Simulate the synthesized controller from sampled start cells and check
    the empirical satisfaction frequency against the certified interval.
    Runs continue past the reporting horizon (horizon_factor times longer) so
    the frequency approximates the unbounded-horizon probability; unfinished
    runs count as unsatisfied. Each cell's record depends only on the seed,
    the cell and the config, not on which other cells are simulated."""
    config = result.config
    grid = result.abstraction.grid
    rng0 = np.random.default_rng([config.seed, 104729])
    if cells is None:
        k = min(config.sim_start_cells, grid.num_cells)
        cells = np.sort(rng0.choice(grid.num_cells, size=k, replace=False))
    bad = [c for c in cells if isinstance(c, (bool, np.bool_, str))
           or not (float(c).is_integer() and 0 <= c < grid.num_cells)]
    if bad:
        raise ValueError(f"start cell {bad[0]} is not a cell id in [0, {grid.num_cells})")
    cells = [int(c) for c in cells]
    steps = config.horizon * config.sim_horizon_factor
    k_ext, k_hor = _simulate(result, cells, steps)

    records = []
    inconsistent = 0
    n = config.sim_trials
    for cell, acc_ext, acc_hor in zip(cells, k_ext.tolist(), k_hor.tolist()):
        ci_lo, ci_hi = _wilson(acc_ext, n)
        p_lo = float(result.p_lower[cell])
        p_hi = float(result.p_upper[cell])
        ok = not (ci_hi < p_lo or ci_lo > p_hi)
        inconsistent += 0 if ok else 1
        records.append(
            {
                "cell": cell,
                "p_lower": p_lo,
                "p_upper": p_hi,
                "freq_horizon": acc_hor / n,
                "freq": acc_ext / n,
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
