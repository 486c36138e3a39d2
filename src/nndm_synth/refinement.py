"""Uncertainty-guided refinement of the abstraction grid.

Cells are scored by how much certificate width they can be blamed for: their
own probability gap times the total incoming transition-bound gap. The
top-scoring cells are split at the midpoint of the dimension along which the
affine envelopes expand fastest; the split cells' rows are marked for
recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import HyperRect, RegionGrid
from .imdp import Imdp
from .relaxation import LinearBounds


@dataclass
class RefinementConfig:
    per_round: int = 0          # cells to split per round; 0 disables refinement
    rounds: int = 0
    stop_width: float = 0.0     # stop once the volume-weighted mean gap is below this
    split_mode: str = "edges"   # "edges" or "corners", see split_dimension


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


def split_dimension(cell: HyperRect, bounds_list: list[LinearBounds], mode: str = "edges") -> int:
    """Dimension along which the affine envelopes stretch distances the most.

    "edges" measures the expansion of cell edges: an edge along dimension l
    maps to a segment of length ||M e_l|| per unit length for each envelope
    matrix M, so the score is the largest column norm over all matrices.
    "corners" instead applies the matrices to the cell's main diagonal and
    compares the componentwise stretch. Ties resolve to the lowest dimension.
    """
    if mode == "edges":
        best = np.zeros(cell.dim)
        for b in bounds_list:
            for M in (b.A_lo, b.A_hi):
                best = np.maximum(best, np.linalg.norm(M, axis=0))
        return int(np.argmax(best))
    if mode == "corners":
        diag = cell.hi - cell.lo
        widths = np.maximum(cell.widths, 1e-300)
        best = np.zeros(cell.dim)
        for b in bounds_list:
            for M in (b.A_lo, b.A_hi):
                best = np.maximum(best, np.abs(M @ diag) / widths)
        return int(np.argmax(best))
    raise ValueError(f"unknown split mode {mode!r}")


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
    bounds: dict[tuple[int, int], LinearBounds],
) -> RefineOutcome:
    """Split the top-scoring cells in place and report the dirty rows.
    Callers must rebuild the dirty rows and refresh the remaining rows'
    entries at the split cells' ids afterwards."""
    outcome = RefineOutcome()
    scores = score_states(imdp, p_lower, p_upper)
    for entry in scores[: config.per_round]:
        if entry.score <= 0.0:
            break
        rect = grid.cell(entry.cell)
        blist = [bounds[(entry.cell, a)] for a in range(imdp.num_actions)]
        dim = split_dimension(rect, blist, config.split_mode)
        mid = 0.5 * (rect.lo[dim] + rect.hi[dim])
        if not (rect.lo[dim] < mid < rect.hi[dim]):
            continue  # too narrow to split further
        new_id = grid.split_cell(entry.cell, dim)
        outcome.splits.append((entry.cell, new_id, dim))
    outcome.dirty = {
        (c, a) for low, new, _ in outcome.splits for c in (low, new) for a in range(imdp.num_actions)
    }
    return outcome
