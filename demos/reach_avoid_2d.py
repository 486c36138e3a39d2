#!/usr/bin/env python3
"""End-to-end run on the 2D reach-avoid fixture: abstraction, product,
value iteration from both sides, certified classification, simulation check,
and the on-disk outputs.

    python3 demos/reach_avoid_2d.py [outdir]

writes regions.csv / strategy.json / summary.json / validation.json to
`outdir` (default ./out_reach_avoid).
"""

import sys

import numpy as np

from nndm_synth.fixtures import reach_avoid_2d
from nndm_synth.pipeline import gap_stats, run_pipeline

outdir = sys.argv[1] if len(sys.argv) > 1 else "out_reach_avoid"

nd, config = reach_avoid_2d()
print(f"dynamics: {nd.dim}D, actions {nd.actions}")
print(f"domain {config.domain.lo} .. {config.domain.hi}, grid {config.grid}, "
      f"threshold {config.threshold}")
for name, box in config.regions:
    print(f"  region {name!r}: {box.lo} .. {box.hi}")

result = run_pipeline(config, nd=nd, outdir=outdir, monte_carlo=True)

grid = result.abstraction.grid
print(f"\nabstraction: {grid.num_cells} cells -> {result.product.num_states} product states")
print(f"value iteration: {result.lower.sweeps}+{result.upper.sweeps} sweeps "
      f"(residuals {result.lower.residual:.1e}, {result.upper.residual:.1e})")

counts = {k: int(np.sum(result.classes == k)) for k in ("yes", "no", "maybe")}
mean_gap, max_gap = gap_stats(grid, result.p_lower, result.p_upper)
print(f"classes: {counts}; certificate gap mean {mean_gap:.4f}, max {max_gap:.4f}")

# where does the controller steer from a few representative spots?
print("\nswitching strategy samples (fresh path, original coordinates):")
for x in ([-1.0, 1.0], [0.0, 0.0], [1.0, -1.0], [-0.2, 1.0]):
    act = result.switching.action_at(np.array(x), "trying")
    z = np.asarray(x) @ grid.transform.matrix.T
    cell = int(grid.locate(z.reshape(1, -1))[0])
    print(f"  x={x}: cell {cell:3d} "
          f"[p {result.p_lower[cell]:.3f}..{result.p_upper[cell]:.3f}, "
          f"{result.classes[cell]}] -> {act}")

v = result.validation
print(f"\nsimulation check: up to {v['trials']} trials from each of {len(v['cells'])} start cells, "
      f"{v['num_inconsistent']} inconsistent with the certificates")
for rec in v["cells"][:5]:
    print(f"  cell {rec['cell']:3d}: certified [{rec['p_lower']:.3f}, {rec['p_upper']:.3f}], "
          f"empirical {rec['freq']:.3f} over {rec['trials']} trials "
          f"({rec['ci_level']:.2%} CI [{rec['ci'][0]:.3f}, {rec['ci'][1]:.3f}])")

print(f"\noutputs written to {outdir}/")
