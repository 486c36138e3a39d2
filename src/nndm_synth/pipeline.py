"""End-to-end certified controller synthesis.

Wires the stages together: noise whitening and grid construction, affine
envelopes (per action, in batches of cells), transition bound rows, DFA
product, value iteration from both sides, uncertainty-guided refinement, and
finally the certified classification with its on-disk outputs and an
optional Monte Carlo check. A run's PipelineResult is its final Synthesis
plus the run's context, and summarize() is the one summary of it, which
summary.json holds and the command line prints.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, fields

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
from .networks import (_COUNT, _POSITIVE, NeuralDynamics, _check_keys, _check_settings, _float, _int,
                       _load_json, _name, _numbers, _setting, _strict, evaluate, load_networks)
from .refinement import RefinementConfig, RefineOutcome, refine_round
from .relaxation import LinearBounds, relax_cells
from .transitions import transition_rows


def _parse_covariance(raw, dim: int) -> np.ndarray:
    """Scalar -> isotropic, vector -> diagonal, matrix -> a copy as given;
    every entry a finite number (_numbers), checked before any is scaled."""
    raw = raw.tolist() if isinstance(raw, np.ndarray) else raw  # a list's repr is cheap
    arr = _strict(_numbers, raw, f"'covariance' must be a number or lists of numbers, got {raw!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"'covariance' must be finite, got {arr.tolist()}")
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.ndim == 1:
        if arr.size != dim:
            raise ValueError(f"diagonal covariance needs {dim} entries, got {arr.size}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ValueError(f"covariance must be {dim}x{dim}, got {arr.shape}")
    return arr


def _box(raw, where: str) -> HyperRect:
    what = f"{where} must be a list of [lo, hi] pairs of numbers, got {raw!r}"
    arr = _strict(_numbers, raw, what)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(what)
    return HyperRect(arr[:, 0], arr[:, 1])


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """Everything one synthesis run needs. Built in code, parsed from JSON
    (from_json / from_dict; see the README's schema), derived by replace or
    unpickled, it is converted and checked the same way (__post_init__).
    Compared and hashed by identity, as the boxes, networks and envelopes
    are: field-wise == would have to test arrays for truth."""

    domain: HyperRect
    covariance: np.ndarray
    grid: tuple[int, ...]
    dfa: Dfa
    regions: tuple[tuple[str, HyperRect], ...] = ()
    network: str | None = None
    threshold: float = _setting(0.95, "threshold", _float, "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    vi_tolerance: float = _setting(1e-6, "vi.tolerance", _float, "a positive finite number",
                                   lambda v: 0.0 < v < np.inf)
    vi_max_sweeps: int = _setting(5000, "vi.max_sweeps", *_POSITIVE)
    horizon: int = _setting(100, "simulation.horizon", *_POSITIVE)
    sim_trials: int = _setting(10_000, "simulation.trials", *_POSITIVE)
    sim_start_cells: int = _setting(20, "simulation.start_cells", *_COUNT)
    sim_horizon_factor: int = _setting(5, "simulation.horizon_factor", *_POSITIVE)
    seed: int = _setting(0, "seed", *_COUNT)
    threads: int = _setting(1, "threads", *_POSITIVE)  # otherwise ignored: rows are built in one thread

    def __post_init__(self):
        """Converts and checks each _setting and the grid (one integer count of
        at least 1 per domain dimension); the covariance takes a config file's
        forms, the network path is a string or None, and the spec must read
        every region label (Dfa.check_labels). Grid and regions are stored
        as tuples, the covariance read-only."""
        covariance = _parse_covariance(self.covariance, self.domain.dim)
        covariance.flags.writeable = False
        object.__setattr__(self, "covariance", covariance)
        what = f"'grid' needs one integer count of at least 1 per domain dimension, got {self.grid!r}"
        grid = _strict(lambda g: tuple(map(_int, g)), self.grid, what)
        if len(grid) != self.domain.dim or min(grid) < 1:
            raise ValueError(what)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "regions", tuple(map(tuple, self.regions)))
        if self.network is not None:
            _name(self.network, "'network'")
        _check_settings(self)
        self.dfa.check_labels(label for label, _ in self.regions)

    def __setstate__(self, state):
        """An unpickled config is normalized and checked like a built one."""
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str = ".") -> "PipelineConfig":
        # each _setting's JSON key, by section ("" is the top level)
        settings = [f for c in (cls, RefinementConfig) for f in fields(c) if "key" in f.metadata]
        sections = {}
        for f in settings:
            sections.setdefault(f.metadata["section"], set()).add(f.metadata["key"])
        _check_keys(raw, "the config", ("domain", "covariance", "grid", "spec"),
                    sections.pop("") | {"regions", "network", *sections})
        for name, allowed in sections.items():
            _check_keys(raw.get(name, {}), repr(name), optional=allowed)
        reg_raw = raw.get("regions", [])
        if not isinstance(reg_raw, list):
            raise ValueError("'regions' must be a list")
        for reg in reg_raw:
            _check_keys(reg, "a 'regions' entry", ("label", "box"))
        domain = _box(raw["domain"], "'domain'")
        regions = [(_name(reg["label"], "a region 'label'"),
                    _box(reg["box"], "a region 'box'")) for reg in reg_raw]

        spec = raw["spec"]
        is_file = isinstance(spec, dict) and "dfa" in spec
        _check_keys(spec, "'spec' (a 'template' with its 'labels', or a 'dfa')",
                    ("dfa",) if is_file else ("template", "labels"))
        if is_file:  # an absolute path stays as it is
            dfa = load_dfa(os.path.join(base_dir, _name(spec["dfa"], "'spec' 'dfa'")))
        else:
            dfa = dfa_template(spec["template"], spec["labels"])

        network = os.path.join(base_dir, _name(raw["network"], "'network'")) if "network" in raw else None
        # only the settings present are passed on, unconverted: the defaults hold
        top, ref = {}, {}
        for f in settings:
            section, key = f.metadata["section"], f.metadata["key"]
            src = raw.get(section, {}) if section else raw
            if key in src:
                (ref if section == "refinement" else top)[f.name] = src[key]
        return cls(
            domain=domain,
            covariance=raw["covariance"],
            grid=raw["grid"],
            dfa=dfa,
            regions=regions,
            network=network,
            refinement=RefinementConfig(**ref),
            **top,
        )

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        """from_dict of the file at path, relative paths in it resolved from
        its directory; every error starts with the path."""
        base_dir = os.path.dirname(os.path.abspath(path))
        return _load_json(path, lambda raw: cls.from_dict(raw, base_dir=base_dir))


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
    p_lower: np.ndarray  # per cell q, at its initial product state: pid q
    p_upper: np.ndarray


def synthesize(
    abstraction: Abstraction,
    dfa: Dfa,
    tol: float = 1e-6,
    max_sweeps: int = 5000,
    start: np.ndarray | None = None,
) -> Synthesis:
    """Product construction plus the two passes: the maximin pass bounds
    the strategy from below (strategy iteration: improvement steps
    alternating with exact evaluations of the held strategy, stopped once
    the Bellman residual falls below tol; tol is also the action-tie
    tolerance of the extraction), and the optimistic pass is the extracted
    strategy's exact value against the maximizing adversary, by chain
    solves, its first adversary picked at the maximin values. Both run
    group by group over the product's solve_order(), so lower.sweeps and
    upper.sweeps sum the groups' counts. p_lower and p_upper are the values
    of pids 0..num_cells-1, the cells' initial product states.

    `start` is an action table over (cell, DFA state), laid out as
    SwitchingStrategy.table, that the maximin pass starts from (a refined
    grid's last strategy, lifted to its cells); it seeds the strategy, not
    the values, so p_lower is as sound from any start.

    p_lower is the exact pessimistic value of the last held strategy; the
    emitted strategy, whose actions the extraction may pick within tol of
    the held ones, can trail it. p_upper is clamped up to p_lower
    (np.maximum), which hides an extracted action whose own optimistic
    value lies below p_lower; see the README's known limitations."""
    product = build_product(abstraction.imdp, dfa)
    if start is not None:
        table = np.asarray(start)
        shape = (abstraction.grid.num_cells, len(dfa.states))
        if table.shape != shape:
            raise ValueError(f"start table has shape {table.shape}, need {shape} (cells, DFA states)")
        cell, d = product.states.T
        start = np.where(cell >= 0, table[cell, d], 0)  # the out-of-domain state is frozen
    lower = robust_value_iteration(product, tol=tol, max_sweeps=max_sweeps, start=start)
    upper = evaluate_strategy_upper(product, lower.strategy, max_sweeps=max_sweeps, rank=lower.values)
    p_lower = lower.values[: product.imdp.num_cells]
    p_upper = np.maximum(upper.values[: product.imdp.num_cells], p_lower)
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
        if dfa_state not in self.dfa.states:
            raise ValueError(f"unknown DFA state {dfa_state!r}, not one of {list(self.dfa.states)}")
        d = self.dfa.states.index(dfa_state)
        return self.actions[int(self.table[cell, d])]


def map_strategy(product: ProductImdp, strategy: np.ndarray, grid: RegionGrid) -> SwitchingStrategy:
    table = np.zeros((grid.num_cells, len(product.dfa.states)), dtype=np.int64)
    in_grid = product.states[:, 0] >= 0
    table[tuple(product.states[in_grid].T)] = strategy[in_grid]
    return SwitchingStrategy(actions=product.imdp.actions, dfa=product.dfa, grid=grid, table=table)


# -- full run -----------------------------------------------------------------


@dataclass
class PipelineResult(Synthesis):
    """The run's final Synthesis plus its context. The Monte Carlo check
    steps abstraction.dynamics, and sets validation."""

    config: PipelineConfig
    abstraction: Abstraction
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
        # the last strategy on the refined grid: each high child plays its parent's row
        start = map_strategy(synth.product, synth.lower.strategy, abstraction.grid).table
        low, high, _ = np.array(outcome.splits, dtype=np.int64).T
        start[high] = start[low]
        synth = None  # the last product goes before the next store and product are built
        apply_refinement(abstraction, outcome)
        synth = synthesize(abstraction, config.dfa, config.vi_tolerance, config.vi_max_sweeps, start)
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
                "sweeps": {"lower": synth.lower.sweeps, "upper": synth.upper.sweeps},
            }
        )
    timings["refinement"] = time.perf_counter() - t

    result = PipelineResult(
        **vars(synth),
        config=config,
        abstraction=abstraction,
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


def summarize(result: PipelineResult) -> dict:
    """What summary.json holds and the CLI prints: the sizes, the class
    counts, the volume-weighted mean and max gap, each value-iteration
    pass's sweeps and convergence, and the timings."""
    mean_gap, max_gap = gap_stats(result.abstraction.grid, result.p_lower, result.p_upper)
    return {
        "num_cells": result.abstraction.grid.num_cells,
        "num_product_states": result.product.num_states,
        "actions": list(result.switching.actions),
        "threshold": result.config.threshold,
        "classes": {k: int(np.count_nonzero(result.classes == k)) for k in ("yes", "no", "maybe")},
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


def emit_outputs(result: PipelineResult, outdir: str) -> None:
    """Write regions.csv (x columns from grid.original_bounds()),
    strategy.json, refinement.jsonl and summary.json (summarize), and
    validation.json when the result has been simulated; without that, a
    validation.json in outdir checked an earlier result and is removed. The
    JSON files are strict JSON: a non-finite number raises ValueError.
    Every file except summary.json (which carries timings) is a pure function
    of the inputs, so reruns produce byte-identical content."""
    os.makedirs(outdir, exist_ok=True)
    grid = result.abstraction.grid
    dim = grid.dim
    product, actions, table = result.product, result.switching.actions, result.switching.table
    # every action below is the switching table's; cell q's is at pid q's DFA state
    start_action = table[np.arange(grid.num_cells), product.states[: grid.num_cells, 1]]
    # [x or z, lo or hi, cell, l] -> per cell x0_lo, x0_hi, x1_lo, ..., z0_lo, ...
    bounds = np.array([grid.original_bounds(), (grid.lo, grid.hi)])
    bounds = bounds.transpose(2, 0, 3, 1).reshape(grid.num_cells, 4 * dim)

    with open(os.path.join(outdir, "regions.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["id"]
        header += [f"x{l}_{side}" for l in range(dim) for side in ("lo", "hi")]
        header += [f"z{l}_{side}" for l in range(dim) for side in ("lo", "hi")]
        header += ["label", "p_lower", "p_upper", "action", "class"]
        w.writerow(header)
        for i, (box, labels, p_lo, p_hi, a, c) in enumerate(zip(
            bounds.tolist(), grid.labels, result.p_lower.tolist(), result.p_upper.tolist(),
            start_action.tolist(), result.classes,
        )):
            w.writerow([str(i), *map(repr, box), ";".join(sorted(labels)), repr(p_lo), repr(p_hi),
                        actions[a], str(c)])

    cells, ds = product.states[~(product.accepting | product.sink)].T
    entries = sorted(
        ({"region": c, "dfa": product.dfa.states[d], "action": actions[a]}
         for c, d, a in zip(cells.tolist(), ds.tolist(), table[cells, ds].tolist())),
        key=lambda e: (e["region"], e["dfa"]),
    )
    with open(os.path.join(outdir, "strategy.json"), "w") as fh:
        json.dump(
            {
                "actions": list(actions),
                "dfa_states": list(product.dfa.states),
                "initial_dfa_state": product.dfa.initial,
                "entries": entries,
            },
            fh,
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )
        fh.write("\n")

    with open(os.path.join(outdir, "refinement.jsonl"), "w") as fh:
        for rec in result.rounds:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")

    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summarize(result), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    path = os.path.join(outdir, "validation.json")
    if result.validation is not None:
        with open(path, "w") as fh:
            json.dump(result.validation, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    elif os.path.exists(path):
        os.remove(path)


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
    running trajectories, so a cell's draws do not depend on which cells
    share the pool (its states do, in evaluate's last bits). A run that
    leaves the domain without its next DFA state accepting counts as failed,
    matching the certificate's semantics for the out-of-domain state
    (UNSAFE_ID picks next_tbl's last row); a run still going after `steps`
    steps counts as unsatisfied."""
    config = result.config
    nd = result.abstraction.dynamics
    grid = result.abstraction.grid
    dfa = result.product.dfa
    next_tbl = result.product.next_tbl
    table = result.switching.table
    trials, dim = config.sim_trials, grid.dim
    chol = np.linalg.cholesky(config.covariance)
    acc_mask, dead_mask = dfa.state_masks()
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
    runs count as unsatisfied. Each cell's draws depend only on the seed,
    the cell and the config; which other cells are simulated can move its
    states only in the last bits of networks.evaluate."""
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
