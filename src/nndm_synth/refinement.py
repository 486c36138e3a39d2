"""Uncertainty-guided refinement of the abstraction grid.

Cells are scored by how much certificate width they can be blamed for: their
own probability gap times the total incoming transition-bound gap. The
top-scoring cells are split at the midpoint of the dimension whose edges the
affine envelopes stretch the most; the split cells' rows are marked for
fresh envelopes, and every row is then rebuilt on the refined grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import RegionGrid
from .imdp import Imdp
from .networks import _COUNT, _check_settings, _float, _setting
from .relaxation import LinearBounds


@dataclass(frozen=True)
class RefinementConfig:
    """How the grid is refined between synthesis rounds. Each _setting is
    converted and checked however the config is built: a negative count would
    slice the scores from their end, a negative or NaN stop_width stop nothing."""

    per_round: int = _setting(0, "refinement.per_round", *_COUNT)  # cells split per round; 0: no refinement
    rounds: int = _setting(0, "refinement.rounds", *_COUNT)
    # stop once the volume-weighted mean gap is at most this (0: never)
    stop_width: float = _setting(0.0, "refinement.stop_width", _float, "a finite number of at least 0",
                                 lambda v: 0.0 <= v < np.inf)

    def __post_init__(self):
        _check_settings(self)

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()


def score_states(imdp: Imdp, p_lower: np.ndarray, p_upper: np.ndarray) -> np.ndarray:
    """Refinement priority of each cell: its certificate gap times the total
    gap of the bounds on entering it. p_lower/p_upper are the per-cell
    certificate bounds (at each cell's initial product state)."""
    incoming = np.zeros(imdp.num_cells + 1)  # last: UNSAFE_ID, not scored
    # entries in (cell, action) row order: the order of the sums sets the
    # last bits; each gap is formed in float64 from the widened bounds
    np.add.at(incoming, imdp.rows.col, np.subtract(imdp.rows.up, imdp.rows.lo, dtype=float))
    gap = np.asarray(p_upper, dtype=float) - np.asarray(p_lower, dtype=float)
    return gap * incoming[:-1]


def split_dimension(bounds: LinearBounds) -> int:
    """Dimension along which the stacked affine envelopes stretch cell edges
    the most: an edge along dimension l maps to a segment of length
    ||M e_l|| per unit length for each envelope matrix M, so the score is
    the largest column norm over all matrices. Ties resolve to the lowest
    dimension."""
    M = np.concatenate([bounds.A_lo, bounds.A_hi])  # every matrix, (2R, n, n)
    return int(np.argmax(np.linalg.norm(M, axis=1).max(axis=0, initial=0.0)))


@dataclass
class RefineOutcome:
    """What one refinement round changed: (low child id, high child id,
    dimension) per split, and the ascending ids cell * A + action of the
    rows that need fresh envelopes (every action of each split's children)."""

    splits: list[tuple[int, int, int]] = field(default_factory=list)
    dirty: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def refine_round(
    grid: RegionGrid,
    imdp: Imdp,
    p_lower: np.ndarray,
    p_upper: np.ndarray,
    config: RefinementConfig,
    bounds: LinearBounds,
) -> RefineOutcome:
    """Split the top-scoring cells in place, highest score first (equal
    scores by lower id), and report the dirty rows. `bounds` is the envelope
    stack indexed like imdp.rows. Callers must then relax the dirty rows and
    rebuild every row from the envelopes (pipeline.apply_refinement)."""
    A = imdp.num_actions
    outcome = RefineOutcome()
    scores = score_states(imdp, p_lower, p_upper)
    for cell in np.argsort(-scores, kind="stable")[: config.per_round].tolist():
        if scores[cell] <= 0.0:
            break
        dim = split_dimension(bounds[cell * A : (cell + 1) * A])
        lo, hi = grid.lo[cell, dim], grid.hi[cell, dim]
        if not (lo < 0.5 * (lo + hi) < hi):
            continue  # too narrow to split further
        outcome.splits.append((cell, grid.split_cell(cell, dim), dim))
    children = np.sort(np.array(outcome.splits, dtype=np.int64).reshape(-1, 3)[:, :2], axis=None)
    outcome.dirty = (children[:, None] * A + np.arange(A)).ravel()
    return outcome
