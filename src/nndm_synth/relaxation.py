"""Sound affine envelopes for the whitened one-step dynamics.

For a region R (whitened coordinates) and action a, `relax` produces affine
maps flo, fhi with

    flo(z) <= T f_a(T^{-1} z) <= fhi(z)   componentwise for all z in R,

where T is the whitening transform. The bounds come from backward propagation
of affine relaxations through the layer stack: each nonlinear neuron is
bracketed by two lines valid on its pre-activation interval, and those lines
are substituted backwards layer by layer until the input is reached. The
whitening matrices enter the stack as exact linear layers, so all-linear
networks give flo = fhi up to rounding.

`relax_cells` relaxes many boxes of one action together: every array carries
a leading cell axis, and the backward pass is one stacked `np.matmul` per
layer (the batched CROWN formulation). Each box's envelope is bitwise what
`relax` gives for that box alone, whatever the other boxes in its batch.
"""

from __future__ import annotations

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
    """Affine lower/upper envelope of the whitened dynamics on the box it was
    relaxed over (the caller keeps the box)."""

    A_lo: np.ndarray
    b_lo: np.ndarray
    A_hi: np.ndarray
    b_hi: np.ndarray

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


def _bisect_nondecreasing(
    g, lo, hi, group, sound_high: bool, tol: float = 1e-9, max_iter: int = 80
):
    """Root bracketing for a vectorized nondecreasing g with g(lo) <= 0 <= g(hi).
    Entries are bisected in groups (`group` holds one id per entry): a group
    halves all its brackets until every one of them is closed, so an entry's
    result does not depend on the other groups in the call.
    Returns the bracket end on the sound side of the root."""
    lo = lo.copy()
    hi = hi.copy()
    open_groups = np.zeros(int(group.max()) + 1, dtype=bool)
    for _ in range(max_iter):
        open_groups[:] = False
        open_groups[group[~(hi - lo <= tol)]] = True
        if not open_groups.any():
            break
        step = open_groups[group]
        mid = 0.5 * (lo + hi)
        below = g(mid) <= 0.0
        lo = np.where(step & below, mid, lo)
        hi = np.where(step & ~below, mid, hi)
    return hi if sound_high else lo


def _scurve_coeffs(l: np.ndarray, u: np.ndarray, f, df):
    """Lines bracketing an increasing sigmoid-shaped f (convex below 0,
    concave above 0) on [l, u]. Each row of a 2-D input is one cell: its
    tangent searches stop on that row's brackets alone."""
    shape = l.shape
    l, u = np.atleast_2d(l), np.atleast_2d(u)
    al = np.zeros_like(l)
    bl = np.zeros_like(l)
    au = np.zeros_like(l)
    bu = np.zeros_like(l)

    fl, fu = f(l), f(u)
    point = (u - l) < _POINT_WIDTH
    # constant envelopes for (near-)degenerate intervals; f is increasing
    bl[point] = fl[point]
    bu[point] = fu[point]

    wide = ~point
    width = np.where(wide, u - l, 1.0)
    chord_k = (fu - fl) / width
    mid = 0.5 * (l + u)
    tang_k = df(mid)

    concave = wide & (l >= 0.0)
    if np.any(concave):
        # chord below, midpoint tangent above
        al[concave] = chord_k[concave]
        bl[concave] = fl[concave] - chord_k[concave] * l[concave]
        au[concave] = tang_k[concave]
        bu[concave] = f(mid[concave]) - tang_k[concave] * mid[concave]

    convex = wide & (u <= 0.0)
    if np.any(convex):
        au[convex] = chord_k[convex]
        bu[convex] = fl[convex] - chord_k[convex] * l[convex]
        al[convex] = tang_k[convex]
        bl[convex] = f(mid[convex]) - tang_k[convex] * mid[convex]

    cross = wide & (l < 0.0) & (u > 0.0)
    if np.any(cross):
        lc, uc = l[cross], u[cross]
        flc, fuc = fl[cross], fu[cross]
        row = np.nonzero(cross)[0]
        kc = chord_k[cross]

        # upper line: the chord is sound iff its slope is at most f'(u);
        # otherwise take the tangent through (l, f(l)) on the concave side.
        ak = np.empty_like(lc)
        bk = np.empty_like(lc)
        chord_ok = kc <= df(uc)
        ak[chord_ok] = kc[chord_ok]
        bk[chord_ok] = flc[chord_ok] - kc[chord_ok] * lc[chord_ok]
        need = ~chord_ok
        if np.any(need):
            ln, un, fn = lc[need], uc[need], flc[need]
            gap = lambda d: f(d) + df(d) * (ln - d) - fn
            d = _bisect_nondecreasing(gap, np.zeros_like(un), un, row[need], sound_high=True)
            ak[need] = df(d)
            bk[need] = f(d) - ak[need] * d
        au[cross] = ak
        bu[cross] = bk

        # lower line: chord sound iff slope at most f'(l); otherwise the
        # tangent through (u, f(u)) on the convex side.
        ak = np.empty_like(lc)
        bk = np.empty_like(lc)
        chord_ok = kc <= df(lc)
        ak[chord_ok] = kc[chord_ok]
        bk[chord_ok] = flc[chord_ok] - kc[chord_ok] * lc[chord_ok]
        need = ~chord_ok
        if np.any(need):
            ln, un, fn = lc[need], uc[need], fuc[need]
            gap = lambda d: f(d) + df(d) * (un - d) - fn
            d = _bisect_nondecreasing(gap, ln, np.zeros_like(ln), row[need], sound_high=False)
            ak[need] = df(d)
            bk[need] = f(d) - ak[need] * d
        al[cross] = ak
        bl[cross] = bk

    return al.reshape(shape), bl.reshape(shape), au.reshape(shape), bu.reshape(shape)


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


def _stages(nd: NeuralDynamics, action: str, transform: Transform | np.ndarray):
    """The layer stack T f_a T^{-1} as (weights, bias, activation) stages."""
    if isinstance(transform, Transform):
        T, T_inv = transform.matrix, transform.inverse
    else:
        T = np.asarray(transform, dtype=float)
        if T.shape != (nd.dim, nd.dim):
            raise ValueError(f"transform must be {nd.dim}x{nd.dim}, got {T.shape}")
        cond = np.linalg.cond(T)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError("transform is singular or near-singular")
        T_inv = np.linalg.inv(T)

    zero = np.zeros(nd.dim)
    stages = [(T_inv, zero, Activation.LINEAR)]
    stages += [(layer.weights, layer.bias, layer.activation) for layer in nd.layers(action)]
    stages += [(T, zero, Activation.LINEAR)]
    return stages


def _envelopes(stages, lo: np.ndarray, hi: np.ndarray):
    """Stacked (A_lo, b_lo, A_hi, b_hi) over the boxes [lo[i], hi[i]]."""
    cells = lo.shape[0]
    coeffs: list = [None] * len(stages)
    for k in range(len(stages) - 1):
        act = stages[k][2]
        if act is Activation.LINEAR:
            continue
        l, u = _concretize(*_backward(stages, coeffs, k, cells), lo, hi)
        coeffs[k] = _activation_coeffs(act, l, u)
    return _backward(stages, coeffs, len(stages) - 1, cells)


def relax_cells(
    nd: NeuralDynamics,
    action: str,
    transform: Transform | np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> list[LinearBounds]:
    """Affine envelopes of z -> T f_a(T^{-1} z), one per box [lo[i], hi[i]]
    (shape (cells, n), whitened coordinates). The boxes go through the
    backward pass _CHUNK_CELLS at a time; each envelope equals `relax` on
    its box alone."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != nd.dim:
        raise ValueError(
            f"boxes must be two (cells, {nd.dim}) arrays, got {lo.shape} and {hi.shape}"
        )
    stages = _stages(nd, action, transform)
    out = []
    for s in range(0, lo.shape[0], _CHUNK_CELLS):
        l, h = lo[s : s + _CHUNK_CELLS], hi[s : s + _CHUNK_CELLS]
        A_lo, c_lo, A_up, c_up = _envelopes(stages, l, h)
        out += [LinearBounds(A_lo[i], c_lo[i], A_up[i], c_up[i]) for i in range(l.shape[0])]
    return out


def relax(
    nd: NeuralDynamics,
    action: str,
    transform: Transform | np.ndarray,
    region: HyperRect,
) -> LinearBounds:
    """Affine envelope of z -> T f_a(T^{-1} z) over `region` (whitened
    coordinates). Exact (lower == upper) when every activation is linear."""
    if region.dim != nd.dim:
        raise ValueError(f"region dimension {region.dim} does not match dynamics dimension {nd.dim}")
    (bounds,) = relax_cells(nd, action, transform, region.lo[None], region.hi[None])
    return bounds
