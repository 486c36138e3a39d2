"""Sound affine envelopes for the whitened one-step dynamics.

For a region R (whitened coordinates) and action a, `relax` produces affine
maps flo, fhi with

    flo(z) <= T f_a(T^{-1} z) <= fhi(z)   componentwise for all z in R,

where T is the whitening transform. The bounds come from backward propagation
of affine relaxations through the layer stack: each nonlinear neuron is
bracketed by two lines valid on its pre-activation interval, and those lines
are substituted backwards layer by layer until the input is reached. The
whitening matrices enter the stack as exact linear layers, so all-linear
networks give flo = fhi up to rounding. Sigmoid and tanh neurons get
chord-or-tangent lines from one upper-line rule: the lower line of an
increasing s-curve f on [l, u] is the upper line of g(x) = -f(-x) on
[-u, -l], mirrored back.

`relax_cells` relaxes many boxes under many actions together into one
`LinearBounds` stack in (box, action) order: every array carries a leading
cell axis, the backward pass is one stacked `np.matmul` per layer (the
batched CROWN formulation), and the neuron lines of the hidden layers that
all actions share are computed once per batch of boxes. Each envelope is
bitwise what `relax` gives on its box alone. An abstraction keeps one stack
in its row store's order: envelope r is row r's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import HyperRect, Transform
from .networks import Activation, NeuralDynamics, _sigmoid

_POINT_WIDTH = 1e-12  # intervals narrower than this are treated as points
# Boxes per stacked backward pass in relax_cells. Chunks of 16-64 beat whole
# grids (large temporaries); the value does not change any result.
_CHUNK_CELLS = 32


@dataclass(frozen=True)
class LinearBounds:
    """A stack of affine lower/upper envelopes of the whitened dynamics, each
    on the box it was relaxed over (the caller keeps the boxes): A_lo, A_hi
    are (R, n, n) and b_lo, b_hi (R, n). Indexed like an array: an integer
    gives one envelope with 2-D fields, a slice, mask or index array a stack."""

    A_lo: np.ndarray
    b_lo: np.ndarray
    A_hi: np.ndarray
    b_hi: np.ndarray

    @classmethod
    def concat(cls, stacks) -> "LinearBounds":
        """One stack of the envelopes of `stacks`, in order."""
        return cls(*(np.concatenate(field) for field in zip(*(vars(s).values() for s in stacks))))

    def __getitem__(self, key) -> "LinearBounds":
        return LinearBounds(*(field[key] for field in vars(self).values()))

    def __len__(self) -> int:
        return len(self.b_lo)

    def lower(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self.A_lo.T + self.b_lo

    def upper(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self.A_hi.T + self.b_hi


# -- neuron relaxations ------------------------------------------------------
#
# Coefficients are per-neuron lines (al, bl, au, bu) with
#   al*x + bl <= act(x) <= au*x + bu   for x in [l, u],
# computed elementwise: l and u have shape (width,) or (cells, width).

def _relu_coeffs(l: np.ndarray, u: np.ndarray):
    al = np.zeros_like(l)
    bl = np.zeros_like(l)
    au = np.zeros_like(l)
    bu = np.zeros_like(l)
    active = l >= 0.0
    al[active] = 1.0
    au[active] = 1.0
    unstable = (l < 0.0) & (u > 0.0)
    if np.any(unstable):
        lu, uu = l[unstable], u[unstable]
        slope = uu / (uu - lu)          # chord through (l,0) and (u,u)
        au[unstable] = slope
        bu[unstable] = -slope * lu
        al[unstable] = (uu >= -lu).astype(float)
    return al, bl, au, bu


def _bisect_nondecreasing(g, lo, hi, group, zero_above=False, tol=1e-9, max_iter=80):
    """Root bracketing for a vectorized nondecreasing g with g(lo) <= 0 <= g(hi).
    Entries are bisected in groups (`group` holds one id per entry): a group
    halves all its brackets until every one of them is closed, so an entry's
    result does not depend on the other groups in the call. A midpoint where
    g is exactly 0 counts as below the root, or above it with `zero_above`.
    Returns the upper bracket end."""
    open_groups = np.zeros(int(group.max()) + 1, dtype=bool)
    for _ in range(max_iter):
        open_groups[:] = False
        open_groups[group[~(hi - lo <= tol)]] = True
        if not open_groups.any():
            break
        step = open_groups[group]
        mid = 0.5 * (lo + hi)
        gap = g(mid)
        below = gap < 0.0 if zero_above else gap <= 0.0
        lo = np.where(step & below, mid, lo)
        hi = np.where(step & ~below, mid, hi)
    return hi


def _scurve_upper(l, u, fl, fu, k, b, f, df, zero_above: bool = False):
    """Upper line a*x + c of an increasing sigmoid-shaped f (convex below 0,
    concave above 0) on [l, u], given f(l), f(u) and the chord k*x + b.
    Point intervals get the constant f(u), the concave side the midpoint
    tangent, the convex side the chord, and so does a crossing interval
    whose chord is no steeper than f'(u); any other crossing interval gets
    the tangent through (l, f(l)), its touching point bisected in [0, u]
    row by row (see _bisect_nondecreasing for `zero_above`)."""
    a = np.zeros_like(l)
    c = fu.copy()
    wide = ~((u - l) < _POINT_WIDTH)
    concave = wide & (l >= 0.0)
    mid = 0.5 * (l[concave] + u[concave])
    a[concave] = df(mid)
    c[concave] = f(mid) - a[concave] * mid
    cross = wide & (l < 0.0) & (u > 0.0)
    chord = wide & (u <= 0.0)
    chord[cross] = k[cross] <= df(u[cross])
    a[chord] = k[chord]
    c[chord] = b[chord]
    tangent = cross & ~chord
    if np.any(tangent):
        lt, ut, ft = l[tangent], u[tangent], fl[tangent]
        gap = lambda d: f(d) + df(d) * (lt - d) - ft
        d = _bisect_nondecreasing(gap, np.zeros_like(lt), ut, np.nonzero(tangent)[0], zero_above)
        a[tangent] = df(d)
        c[tangent] = f(d) - a[tangent] * d
    return a, c


def _scurve_coeffs(l: np.ndarray, u: np.ndarray, f, df):
    """Lines bracketing an increasing sigmoid-shaped f on [l, u]. The lower
    line is the upper line of the reflected curve g(x) = -f(-x) on [-u, -l],
    mirrored back: a*x + c >= g(x) there iff a*x - c <= f(x) on [l, u]. Both
    calls share f(l), f(u) and the chord anchored at l, and an exact-zero
    gap in the reflected search counts on the same side as in the direct
    one. Each row of a 2-D input is one cell: its tangent searches stop on
    that row's brackets alone."""
    shape = l.shape
    l, u = np.atleast_2d(l), np.atleast_2d(u)
    fl, fu = f(l), f(u)
    k = (fu - fl) / np.where((u - l) < _POINT_WIDTH, 1.0, u - l)
    b = fl - k * l
    au, bu = _scurve_upper(l, u, fl, fu, k, b, f, df)
    al, c = _scurve_upper(-u, -l, -fu, -fl, k, -b, lambda x: -f(-x), lambda x: df(-x), True)
    return al.reshape(shape), (-c).reshape(shape), au.reshape(shape), bu.reshape(shape)


def _dsigmoid(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


def _dtanh(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _activation_coeffs(act: Activation, l: np.ndarray, u: np.ndarray):
    if act is Activation.RELU:
        return _relu_coeffs(l, u)
    if act is Activation.SIGMOID:
        return _scurve_coeffs(l, u, _sigmoid, _dsigmoid)
    if act is Activation.TANH:
        return _scurve_coeffs(l, u, np.tanh, _dtanh)
    raise AssertionError(f"no relaxation for {act}")


# -- backward substitution ---------------------------------------------------
#
# Bounds carry a leading cell axis: A has shape (cells, out, width) and c
# (cells, out). Every product is a stacked np.matmul, which multiplies each
# cell's matrices on their own, so a cell's bits do not depend on its batch.

def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-cell A[i] @ v[i] for A (cells, out, width) and v (cells, width)."""
    return np.matmul(A, v[:, :, None])[:, :, 0]


def _through_neurons(A, c, k_pos, b_pos, k_neg, b_neg):
    """Bound A @ act(x) + c through one layer's neuron lines: where an entry
    of A is positive, the neuron becomes k_pos*x + b_pos, where negative
    k_neg*x + b_neg. Overwrites A."""
    pos = np.clip(A, 0.0, None)
    neg = np.subtract(A, pos, out=A)
    c = c + _matvec(pos, b_pos) + _matvec(neg, b_neg)
    pos *= k_pos[:, None, :]
    neg *= k_neg[:, None, :]
    pos += neg
    return pos, c


def _backward(stages, coeffs, m, cells: int):
    """Affine bounds on the pre-activation output of stage m as functions of
    the network input, substituting the stored neuron relaxations of all
    earlier stages."""
    W, b, _ = stages[m]
    A_up, c_up = np.repeat(W[None], cells, axis=0), np.repeat(b[None], cells, axis=0)
    A_lo, c_lo = A_up.copy(), c_up.copy()
    for k in range(m - 1, -1, -1):
        cf = coeffs[k]
        if cf is not None:
            al, bl, au, bu = cf
            A_up, c_up = _through_neurons(A_up, c_up, au, bu, al, bl)
            A_lo, c_lo = _through_neurons(A_lo, c_lo, al, bl, au, bu)
        Wk, bk, _ = stages[k]
        c_up = c_up + A_up @ bk
        A_up = A_up @ Wk
        c_lo = c_lo + A_lo @ bk
        A_lo = A_lo @ Wk
    return A_lo, c_lo, A_up, c_up


def _concretize(A_lo, c_lo, A_up, c_up, lo, hi):
    pos = np.clip(A_up, 0.0, None)
    ub = _matvec(pos, hi) + _matvec(A_up - pos, lo) + c_up
    pos = np.clip(A_lo, 0.0, None)
    lb = _matvec(pos, lo) + _matvec(A_lo - pos, hi) + c_lo
    return lb, ub


def _stages(nd: NeuralDynamics, action: str, transform: Transform):
    """The layer stack T f_a T^{-1} as (weights, bias, activation) stages."""
    zero = np.zeros(nd.dim)
    stages = [(transform.inverse, zero, Activation.LINEAR)]
    stages += [(layer.weights, layer.bias, layer.activation) for layer in nd.layers(action)]
    stages += [(transform.matrix, zero, Activation.LINEAR)]
    return stages


def _same_stage(x, y) -> bool:
    """Equal activation, weight and bias shapes, and weight and bias bytes
    (so -0.0 and 0.0 differ: they can round differently downstream)."""
    return x[2] is y[2] and all(
        p.shape == q.shape and p.tobytes() == q.tobytes() for p, q in zip(x[:2], y[:2])
    )


def _shared_prefix(stacks) -> int:
    """How many leading stages all stage stacks in `stacks` have in common.
    Every stack shares the whitening stage; no stack's last (linear) stage
    counts, so each stack runs its own final backward pass."""
    first = stacks[0]
    limit = min(len(stages) for stages in stacks) - 1
    p = 1
    while p < limit and all(_same_stage(first[p], stages[p]) for stages in stacks[1:]):
        p += 1
    return p


def _neuron_lines(stages, coeffs, start: int, stop: int, lo, hi) -> None:
    """Fill coeffs[k] for the nonlinear stages start <= k < stop, each from
    the concretized bounds on its pre-activation given the earlier lines."""
    for k in range(start, stop):
        act = stages[k][2]
        if act is not Activation.LINEAR:
            l, u = _concretize(*_backward(stages, coeffs, k, lo.shape[0]), lo, hi)
            coeffs[k] = _activation_coeffs(act, l, u)


def _envelopes(stacks, shared: int, lo: np.ndarray, hi: np.ndarray):
    """Yield stacked (A_lo, b_lo, A_hi, b_hi) over the boxes [lo[i], hi[i]]
    for each stage stack in `stacks`, in order. The neuron lines of the
    first `shared` stages, common to every stack, are computed once."""
    common: list = [None] * shared
    _neuron_lines(stacks[0], common, 0, shared, lo, hi)
    for stages in stacks:
        coeffs = common + [None] * (len(stages) - shared)
        _neuron_lines(stages, coeffs, shared, len(stages) - 1, lo, hi)
        yield _backward(stages, coeffs, len(stages) - 1, lo.shape[0])


def relax_cells(
    nd: NeuralDynamics,
    actions: Sequence[str],
    transform: Transform,
    lo: np.ndarray,
    hi: np.ndarray,
) -> LinearBounds:
    """The stack of affine envelopes of z -> T f_a(T^{-1} z) over the boxes
    [lo[i], hi[i]] (shape (cells, n), whitened coordinates) for every a in
    `actions`: envelope i * len(actions) + a is actions[a]'s on box i. The
    boxes go through the backward pass _CHUNK_CELLS at a time, with the
    hidden prefix all actions share relaxed once per chunk; each envelope
    equals `relax` on its box alone."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != nd.dim:
        raise ValueError(
            f"boxes must be two (cells, {nd.dim}) arrays, got {lo.shape} and {hi.shape}"
        )
    if not actions:
        raise ValueError("no actions to relax")
    stacks = [_stages(nd, action, transform) for action in actions]
    shared = _shared_prefix(stacks)
    cells, A, n = lo.shape[0], len(actions), nd.dim
    R = cells * A
    out = LinearBounds(np.empty((R, n, n)), np.empty((R, n)), np.empty((R, n, n)), np.empty((R, n)))
    for s in range(0, cells, _CHUNK_CELLS):
        stop = min(s + _CHUNK_CELLS, cells)
        for a, env in enumerate(_envelopes(stacks, shared, lo[s:stop], hi[s:stop])):
            for field, value in zip(vars(out).values(), env):
                field[s * A + a : stop * A : A] = value
    return out


def relax(
    nd: NeuralDynamics,
    action: str,
    transform: Transform,
    region: HyperRect,
) -> LinearBounds:
    """Affine envelope of z -> T f_a(T^{-1} z) over `region` (whitened
    coordinates). Exact (lower == upper) when every activation is linear."""
    return relax_cells(nd, (action,), transform, region.lo[None], region.hi[None])[0]
