"""Reproducible example systems for the demos and the test-suite.

The relu stacks built here carry exact identity channels (relu(x) minus
relu(-x) recovers x, and the channels stay nonnegative through later layers),
so each action's network computes a contraction toward a per-action drift
point plus a genuinely nonlinear random wiggle. That keeps closed loops
inside the domain often enough for certificates to be informative, while
still exercising every unstable-neuron code path.
"""

from __future__ import annotations

import numpy as np

from .automata import dfa_template
from .geometry import HyperRect
from .networks import Activation, DenseLayer, NeuralDynamics
from .pipeline import PipelineConfig


def directional_dynamics(
    dim: int,
    width: int,
    hidden_layers: int,
    directions: dict[str, tuple],
    seed: int = 0,
    contraction=0.8,
    wiggle: float = 0.15,
) -> NeuralDynamics:
    """One relu network per action: f_a(x) = contraction * x + nonlinear
    wiggle + drift_a. The first two blocks of every hidden layer carry the
    +x/-x channels; the remaining width - 2*dim channels are random features
    shared across actions (only the output head differs)."""
    if width <= 2 * dim:
        raise ValueError("width must exceed twice the state dimension")
    if hidden_layers < 1:
        raise ValueError("at least one hidden layer required")
    rng = np.random.default_rng(seed)
    h = width - 2 * dim
    eye = np.eye(dim)
    kappa = np.zeros(dim) + np.asarray(contraction, dtype=float)

    first_w = np.vstack([eye, -eye, rng.normal(0.0, 1.0 / np.sqrt(dim), (h, dim))])
    first_b = np.concatenate([np.zeros(2 * dim), rng.normal(0.0, 0.2, h)])
    first = DenseLayer(first_w, first_b, Activation.RELU)

    mids = []
    for _ in range(hidden_layers - 1):
        w = np.zeros((width, width))
        w[: 2 * dim, : 2 * dim] = np.eye(2 * dim)
        w[2 * dim:, : 2 * dim] = rng.normal(0.0, 0.5 / np.sqrt(2 * dim), (h, 2 * dim))
        w[2 * dim:, 2 * dim:] = rng.normal(0.0, 0.5 / np.sqrt(h), (h, h))
        b = np.concatenate([np.zeros(2 * dim), rng.normal(0.0, 0.2, h)])
        mids.append(DenseLayer(w, b, Activation.RELU))

    networks = {}
    for action, direction in directions.items():
        drift = np.asarray(direction, dtype=float)
        if drift.shape != (dim,):
            raise ValueError(f"direction for {action!r} must have {dim} entries")
        head = np.hstack(
            [np.diag(kappa), -np.diag(kappa), rng.normal(0.0, wiggle / np.sqrt(h), (dim, h))]
        )
        networks[action] = (first, *mids, DenseLayer(head, drift, Activation.LINEAR))
    return NeuralDynamics(dim=dim, actions=tuple(directions), networks=networks)


def random_network(
    dim: int,
    width: int,
    hidden_layers: int,
    activation: str = "relu",
    seed: int = 0,
    scale: float = 1.0,
    actions: tuple[str, ...] = ("a0",),
) -> NeuralDynamics:
    """Unstructured random dynamics, sized for stressing the bound
    propagation (no stability guarantees whatsoever)."""
    rng = np.random.default_rng(seed)
    act = Activation.parse(activation)
    sizes = [dim] + [width] * hidden_layers + [dim]
    networks = {}
    for action in actions:
        layers = []
        for k in range(len(sizes) - 1):
            w = rng.normal(0.0, scale / np.sqrt(sizes[k]), (sizes[k + 1], sizes[k]))
            b = rng.normal(0.0, 0.1, sizes[k + 1])
            layers.append(DenseLayer(w, b, act if k < len(sizes) - 2 else Activation.LINEAR))
        networks[action] = tuple(layers)
    return NeuralDynamics(dim=dim, actions=tuple(actions), networks=networks)


def reach_avoid_2d(seed: int = 7, grid=(10, 10)) -> tuple[NeuralDynamics, PipelineConfig]:
    """Planar benchmark: four compass drifts, a goal box in the upper-right
    quadrant, an obstacle to the left. 3 hidden layers of 20 relu units."""
    directions = {
        "east": (0.5, 0.0),
        "north": (0.0, 0.5),
        "west": (-0.5, 0.0),
        "south": (0.0, -0.5),
    }
    nd = directional_dynamics(2, 20, 3, directions, seed=seed, contraction=0.6, wiggle=0.15)
    config = PipelineConfig(
        domain=HyperRect([-2.0, -2.0], [2.0, 2.0]),
        covariance=0.2 * np.eye(2),
        grid=list(grid),
        dfa=dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"}),
        regions=[
            ("goal", HyperRect([0.4, 0.4], [1.4, 1.4])),
            ("obst", HyperRect([-1.5, -0.5], [-0.5, 0.5])),
        ],
        threshold=0.95,
        horizon=60,
        seed=seed,
    )
    return nd, config


def vehicle_3d(seed: int = 11, grid=(14, 12, 10)) -> tuple[NeuralDynamics, PipelineConfig]:
    """Corridor benchmark in (position, lateral offset, heading): constant
    forward drift, seven lateral/heading maneuvers, a goal band at the far
    end and an obstacle blocking the upper half mid-way. 4 hidden layers of
    50 relu units per action. `grid` counts cells along the whitened axes,
    which the covariance diag(0.1, 0.1, 0.01) orders (heading, lateral,
    position): the default (14, 12, 10) gives 14 x 12 x 12 = 2016 cells,
    the region cuts adding two position cells."""
    # lateral drift includes the +0.3 recentering toward y = 1 implied by the
    # 0.7 contraction, so the plain "cruise" action holds the lane center
    directions = {
        "cruise": (0.5, 0.30, 0.0),
        "left": (0.5, 0.55, 0.0),
        "right": (0.5, 0.05, 0.0),
        "steer_up": (0.5, 0.30, 0.12),
        "steer_down": (0.5, 0.30, -0.12),
        "drift_up": (0.5, 0.45, 0.06),
        "drift_down": (0.5, 0.15, -0.06),
    }
    nd = directional_dynamics(
        3, 50, 4, directions, seed=seed, contraction=(0.95, 0.7, 0.5), wiggle=0.1
    )
    config = PipelineConfig(
        domain=HyperRect([0.0, 0.0, -0.5], [10.0, 2.0, 0.5]),
        covariance=np.diag([0.1, 0.1, 0.01]),
        grid=list(grid),
        dfa=dfa_template("reach_avoid", {"avoid": "obst", "reach": "goal"}),
        regions=[
            ("goal", HyperRect([8.5, 0.5, -0.5], [10.0, 1.5, 0.5])),
            ("obst", HyperRect([4.0, 1.0, -0.5], [5.5, 2.0, 0.5])),
        ],
        threshold=0.95,
        horizon=60,
        seed=seed,
    )
    return nd, config
