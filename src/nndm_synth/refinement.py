"""Uncertainty-guided refinement of the abstraction grid.

Cells are scored by how much certificate width they can be blamed for: their
own probability gap times the total incoming transition-bound gap. The
top-scoring cells are split at the midpoint of the dimension along which the
affine envelopes expand fastest; the split cells' rows are marked for
fresh envelopes, and every row is then rebuilt on the refined grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import HyperRect, RegionGrid
from .imdp import Imdp
from .relaxation import LinearBounds


@dataclass(frozen=True)
class RefinementConfig:
    """How the grid is refined between synthesis rounds. Built in code, by
    PipelineConfig.from_dict or by dataclasses.replace, it refuses settings
    no round could follow: a negative count would slice the scores from
    their end, and a negative or NaN stop_width would turn the stop off."""

    per_round: int = 0          # cells to split per round; 0 disables refinement
    rounds: int = 0
    stop_width: float = 0.0     # stop once the volume-weighted mean gap is at most this (0: never)
    split_mode: str = "edges"   # "edges" or "corners", see split_dimension

    def __post_init__(self):
        for key in ("per_round", "rounds"):
            if getattr(self, key) < 0:
                raise ValueError(f"refinement {key!r} must not be negative, got {getattr(self, key)}")
        if not 0.0 <= self.stop_width < np.inf:
            raise ValueError(f"refinement 'stop_width' must be finite and >= 0, got {self.stop_width}")
        if self.split_mode not in ("edges", "corners"):
            raise ValueError(f"refinement 'split_mode' must be 'edges' or 'corners', got {self.split_mode!r}")


@dataclass(frozen=True)
class ScoreEntry:
    cell: int
    score: float


def score_states(imdp: Imdp, p_lower: np.ndarray, p_upper: np.ndarray) -> list[ScoreEntry]:
    """Refinement priorities, sorted descending. p_lower/p_upper are the
    per-cell certificate bounds (at each cell's initial product state)."""
    incoming = np.zeros(imdp.num_cells + 1)  # last: UNSAFE_ID, not scored
    # entries in (cell, action) row order: the order of the sums sets the last bits
    np.add.at(incoming, imdp.rows.col, imdp.rows.up - imdp.rows.lo)
    gap = np.asarray(p_upper, dtype=float) - np.asarray(p_lower, dtype=float)
    scores = gap * incoming[:-1]
    order = np.argsort(-scores, kind="stable")
    return [ScoreEntry(int(i), float(scores[i])) for i in order]


def split_dimension(cell: HyperRect, bounds: LinearBounds, mode: str = "edges") -> int:
    """Dimension along which the stacked affine envelopes stretch the most.

    "edges" measures the expansion of cell edges: an edge along dimension l
    maps to a segment of length ||M e_l|| per unit length for each envelope
    matrix M, so the score is the largest column norm over all matrices.
    "corners" instead applies the matrices to the cell's main diagonal and
    compares the componentwise stretch. Ties resolve to the lowest dimension.
    """
    M = np.concatenate([bounds.A_lo, bounds.A_hi])  # every matrix, (2R, n, n)
    if mode == "edges":
        stretch = np.linalg.norm(M, axis=1)
    elif mode == "corners":
        stretch = np.abs(M @ (cell.hi - cell.lo)) / np.maximum(cell.widths, 1e-300)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    return int(np.argmax(stretch.max(axis=0, initial=0.0)))


@dataclass
class RefineOutcome:
    """What one refinement round changed: (low child id, high child id,
    dimension) per split, and the rows that need fresh envelopes (every
    action of both children of each split)."""

    splits: list[tuple[int, int, int]] = field(default_factory=list)
    dirty: set[tuple[int, int]] = field(default_factory=set)


def refine_round(
    grid: RegionGrid,
    imdp: Imdp,
    p_lower: np.ndarray,
    p_upper: np.ndarray,
    config: RefinementConfig,
    bounds: LinearBounds,
) -> RefineOutcome:
    """Split the top-scoring cells in place and report the dirty rows.
    `bounds` is the envelope stack indexed like imdp.rows. Callers must
    then relax the dirty rows and rebuild every row from the envelopes
    (pipeline.apply_refinement)."""
    A = imdp.num_actions
    outcome = RefineOutcome()
    scores = score_states(imdp, p_lower, p_upper)
    for entry in scores[: config.per_round]:
        if entry.score <= 0.0:
            break
        rect = grid.cell(entry.cell)
        dim = split_dimension(rect, bounds[entry.cell * A : (entry.cell + 1) * A], config.split_mode)
        mid = 0.5 * (rect.lo[dim] + rect.hi[dim])
        if not (rect.lo[dim] < mid < rect.hi[dim]):
            continue  # too narrow to split further
        new_id = grid.split_cell(entry.cell, dim)
        outcome.splits.append((entry.cell, new_id, dim))
    outcome.dirty = {
        (c, a) for low, new, _ in outcome.splits for c in (low, new) for a in range(A)
    }
    return outcome
