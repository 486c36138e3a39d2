"""Certified controller synthesis for neural network dynamic models with
additive Gaussian process noise.

The pipeline abstracts the closed-loop stochastic system into an interval
Markov decision process over a labeled grid (sound affine envelopes of the
networks, exact extremal Gaussian masses per cell), builds the product with a
DFA specification, and runs robust value iteration from both sides to get a
switching strategy with certified satisfaction probability bounds, tightened
by uncertainty-guided grid refinement.
"""

from . import fixtures
from .automata import Dfa, ProductImdp, build_product, dfa_template, load_dfa, parse_dfa
from .geometry import (
    HyperRect,
    RegionGrid,
    Transform,
    build_grid,
    post_image_hull,
    post_image_hulls,
    rect_hull,
    transform_box,
    whitening_transform,
)
from .imdp import (
    Imdp,
    ValueIterationResult,
    evaluate_strategy_upper,
    extreme_distribution,
    robust_value_iteration,
)
from .networks import (
    Activation,
    DenseLayer,
    NeuralDynamics,
    evaluate,
    load_networks,
    sample_step,
    save_networks,
)
from .pipeline import (
    Abstraction,
    PipelineConfig,
    PipelineResult,
    SwitchingStrategy,
    apply_refinement,
    build_abstraction,
    classify,
    emit_outputs,
    gap_stats,
    map_strategy,
    run_pipeline,
    synthesize,
    validate_monte_carlo,
)
from .refinement import RefinementConfig, refine_round, score_states, split_dimension
from .relaxation import LinearBounds, relax, relax_cells
from .transitions import (
    InternalConsistencyError,
    TransitionBoundRow,
    extremal_means,
    gaussian_box_mass,
    transition_rows,
)

__version__ = "0.1.0"
