#!/usr/bin/env python3
"""How uncertainty-guided refinement tightens the certificates.

Runs the 2D reach-avoid fixture once without refinement, then again with a
few rounds, printing the per-round gap trajectory and how the verdicts
migrate out of the undecided class.

    python3 demos/refinement_loop.py [rounds] [per_round]
"""

import sys

import numpy as np

from nndm_synth.fixtures import reach_avoid_2d
from nndm_synth.pipeline import apply_refinement, build_abstraction, classify, gap_stats, synthesize
from nndm_synth.refinement import RefinementConfig, refine_round, score_states

rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
per_round = int(sys.argv[2]) if len(sys.argv) > 2 else 10

nd, config = reach_avoid_2d()
ab = build_abstraction(nd, config)
synth = synthesize(ab, config.dfa)
rc = RefinementConfig(per_round=per_round, rounds=rounds)


def line(tag):
    mean_gap, max_gap = gap_stats(ab.grid, synth.p_lower, synth.p_upper)
    cls = classify(synth.p_lower, synth.p_upper, config.threshold)
    counts = {k: int(np.sum(cls == k)) for k in ("yes", "no", "maybe")}
    print(f"{tag:>8}: {ab.grid.num_cells:4d} cells | gap mean {mean_gap:.4f} "
          f"max {max_gap:.4f} | yes {counts['yes']:3d} no {counts['no']:3d} "
          f"maybe {counts['maybe']:3d}")
    return mean_gap


print(f"refining {per_round} cells/round for up to {rounds} rounds\n")
base_gap = line("start")

scores = score_states(ab.imdp, synth.p_lower, synth.p_upper)
print("highest refinement scores (gap x incoming bound width):")
for cell in np.argsort(-scores, kind="stable")[:3]:
    c = ab.grid.cell(cell)
    print(f"  cell {cell:3d} at [{c.lo.round(2)}, {c.hi.round(2)}]: score {scores[cell]:.3f}")
print()

for rnd in range(rounds):
    outcome = refine_round(ab.grid, ab.imdp, synth.p_lower, synth.p_upper, rc, ab.bounds)
    if not outcome.splits:
        print("nothing left worth splitting, stopping early")
        break
    apply_refinement(ab, outcome)
    synth = synthesize(ab, config.dfa)
    line(f"round {rnd}")

final_gap = line("final")
print(f"\nmean certificate gap shrank by "
      f"{100.0 * (base_gap - final_gap) / base_gap:.1f}% "
      f"({base_gap:.4f} -> {final_gap:.4f})")
