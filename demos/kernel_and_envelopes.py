#!/usr/bin/env python3
"""Walk through the two analytic workhorses behind the abstraction: the
Gaussian box-mass kernel and the affine envelopes of the whitened dynamics.

Everything here is printed, no files are written. Run it from anywhere:

    python3 demos/kernel_and_envelopes.py
"""

import numpy as np

from nndm_synth.fixtures import reach_avoid_2d
from nndm_synth.geometry import UNSAFE_ID, build_grid, post_image_boxes, whitening_transform
from nndm_synth.networks import evaluate
from nndm_synth.relaxation import relax_cells
from nndm_synth.transitions import gaussian_box_mass, transition_rows

rng = np.random.default_rng(0)

# -- the kernel ---------------------------------------------------------------
# After whitening, one step of the closed loop is a standard normal around the
# transformed mean, so the probability of landing in an axis box factors into
# per-dimension erf differences.

print("== Gaussian box mass ==")
z = np.array([0.3, -0.2])
lo, hi = np.array([0.0, -1.0]), np.array([1.0, 1.0])
mass = gaussian_box_mass(z, lo, hi)
print(f"mean {z}, box [{lo[0]},{hi[0]}]x[{lo[1]},{hi[1]}] -> mass {mass:.6f}")

mc = rng.standard_normal((200_000, 2)) + z
inside = np.all((mc >= lo) & (mc <= hi), axis=1).mean()
print(f"200k-sample Monte Carlo estimate            -> mass {inside:.6f}")

far = gaussian_box_mass(np.zeros(1), np.array([8.0]), np.array([9.0]))
print(f"deep tail [8, 9] from the origin            -> mass {far:.3e} (stays positive)\n")

# -- whitening ----------------------------------------------------------------

nd, config = reach_avoid_2d()
transform = whitening_transform(config.covariance)
print("== Whitening ==")
print(f"noise covariance:\n{config.covariance}")
print(f"transform T:\n{transform.matrix}")
print(f"T Sigma T^T (should be identity):\n{transform.matrix @ config.covariance @ transform.matrix.T}\n")

# -- affine envelopes on one cell ----------------------------------------------

grid = build_grid(config.domain, transform, config.grid, config.regions)
cell_id = grid.num_cells // 2 + 3
cell = grid.cell(cell_id)
action = nd.actions[0]
# relax_cells relaxes every cell under every listed action in one batched
# backward pass (the hidden layers the actions share are relaxed once per
# batch of cells) and returns one LinearBounds stack in (cell, action) order:
# A_lo is (cells * A, n, n), b_lo (cells * A, n). An integer index picks one
# envelope, a slice a sub-stack. The abstraction keeps this stack over all
# rows, envelope r for row r = cell * A + a.
stack = relax_cells(nd, nd.actions, transform, grid.lo, grid.hi)
bounds = stack[cell_id * len(nd.actions) + nd.actions.index(action)]

print("== Affine envelopes ==")
print(f"one stack of {len(stack)} envelopes, A_lo {stack.A_lo.shape}, b_lo {stack.b_lo.shape}")
print(f"cell {cell_id}: z in [{cell.lo.round(3)}, {cell.hi.round(3)}], action {action!r}")
z_s = rng.uniform(cell.lo, cell.hi, size=(50_000, 2))
w = evaluate(nd, action, z_s @ transform.inverse.T) @ transform.matrix.T
env_lo = z_s @ bounds.A_lo.T + bounds.b_lo
env_hi = z_s @ bounds.A_hi.T + bounds.b_hi
print(f"worst slack below: {np.min(w - env_lo):.3e}   (negative would be unsound)")
print(f"worst slack above: {np.min(env_hi - w):.3e}")
print(f"mean envelope width per output: {np.mean(env_hi - env_lo, axis=0).round(4)}\n")

# -- post image and one transition row ------------------------------------------

# each cell corner's images lie in one box; the convex hull of the boxes'
# corners holds the cell's whole post-image (a stack of one row here)
box_lo, box_hi = post_image_boxes(bounds[None], cell.lo[None], cell.hi[None])
print("== Post image ==")
print(f"{box_lo.shape[1]} corner boxes, bounding box "
      f"[{box_lo[0].min(axis=0).round(3)}, {box_hi[0].max(axis=0).round(3)}]")

# transition_rows writes its rows into a RowStore (CSR arrays indptr, col, lo,
# up), row r from envelope r; one action on one cell holds one row, keyed (0, 0)
rows = transition_rows(grid, [cell_id], (action,), stack[cell_id : cell_id + 1])
row = rows[(0, 0)]  # a Row of views: targets, lower, upper
print(f"row store: {len(rows)} row, {rows.indptr[-1]} entries")
# the out-of-domain state is one more target, UNSAFE_ID, kept when its mass can be positive
out = row.targets == UNSAFE_ID
cells = np.flatnonzero(~out)
order = cells[np.argsort(-row.upper[cells])[:5]]
print(f"transition row keeps {cells.size} of {grid.num_cells} cells; largest:")
for k in order:
    print(f"  cell {row.targets[k]:3d}: [{row.lower[k]:.4f}, {row.upper[k]:.4f}]")
print(f"out-of-domain mass in [{row.lower[out].sum():.2e}, {row.upper[out].sum():.2e}]")
# the cells whose upper bound fell below the pruning threshold left the row;
# their upper bounds add up to the row's remainder, mass on no named target
print(f"remainder (pruned cells' mass) at most {rows.rem[0]:.2e}")
