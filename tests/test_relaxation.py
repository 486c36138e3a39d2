"""Affine envelope propagation: per-neuron relaxations and whole networks.

The load-bearing property is soundness: lower(z) <= T f(T^-1 z) <= upper(z)
for every z in the region, checked here by dense sampling on seeded
instances (the large-architecture sweep lives in the acceptance suite).
"""

from collections import Counter

import numpy as np
import pytest

from nndm_synth import relaxation
from nndm_synth.fixtures import directional_dynamics, random_network
from nndm_synth.geometry import HyperRect, whitening_transform
from nndm_synth.networks import (
    Activation,
    DenseLayer,
    NeuralDynamics,
    evaluate,
    _sigmoid,
)
from nndm_synth.relaxation import (
    _CHUNK_CELLS,
    _relu_coeffs,
    _scurve_coeffs,
    _shared_prefix,
    _stages,
    relax,
    relax_cells,
)

SEVEN = {f"d{k}": (np.cos(k), np.sin(k)) for k in range(7)}


def _rewrap(nd, layer_map):
    """nd with every layer replaced by layer_map(action, index, layer)."""
    return NeuralDynamics(dim=nd.dim, actions=nd.actions, networks={
        a: tuple(layer_map(a, k, layer) for k, layer in enumerate(nd.layers(a))) for a in nd.actions
    })


def _tanh_swapped():
    # a fresh DenseLayer per action over the same weight and bias arrays
    relu = directional_dynamics(2, 10, 3, SEVEN, seed=5)
    return _rewrap(relu, lambda a, k, layer: DenseLayer(
        layer.weights, layer.bias,
        Activation.TANH if layer.activation is Activation.RELU else layer.activation))


def _middle_bias_nudged(entry=-1, value=None):
    # action d3's middle hidden layer has one bias entry moved: by one ulp,
    # or to `value`
    nd = directional_dynamics(2, 10, 3, SEVEN, seed=5)

    def nudge(a, k, layer):
        if a != "d3" or k != 1:
            return layer
        bias = layer.bias.copy()
        bias[entry] = np.nextafter(bias[entry], np.inf) if value is None else value
        return DenseLayer(layer.weights, bias, layer.activation)

    return _rewrap(nd, nudge)


def check_envelope(nd, action, transform, region, n=20_000, seed=0, tol=1e-9):
    """Max violation of the affine envelope over sampled points (negative
    values mean sound with margin)."""
    b = relax(nd, action, transform, region)
    rng = np.random.default_rng(seed)
    z = rng.uniform(region.lo, region.hi, (n, region.dim))
    z[: 2 ** region.dim] = region.vertices()  # corners are the usual worst case
    x = z @ transform.inverse.T
    fz = evaluate(nd, action, x) @ transform.matrix.T
    viol_lo = np.max(b.lower(z) - fz)
    viol_hi = np.max(fz - b.upper(z))
    return max(float(viol_lo), float(viol_hi))


class TestReluCoeffs:
    def test_stable_segments(self):
        l = np.array([0.5, -2.0])
        u = np.array([1.5, -0.1])
        al, bl, au, bu = _relu_coeffs(l, u)
        # active: identity on both sides; inactive: zero
        assert np.allclose([al[0], bl[0], au[0], bu[0]], [1, 0, 1, 0])
        assert np.allclose([al[1], bl[1], au[1], bu[1]], [0, 0, 0, 0])

    def test_unstable_chord_and_adaptive_lower(self):
        l = np.array([-1.0, -0.2])
        u = np.array([0.5, 1.0])
        al, bl, au, bu = _relu_coeffs(l, u)
        for i, (li, ui) in enumerate(zip(l, u)):
            # upper chord passes through (l, 0) and (u, u)
            assert au[i] * li + bu[i] == pytest.approx(0.0, abs=1e-15)
            assert au[i] * ui + bu[i] == pytest.approx(ui)
        assert al[0] == 0.0 and al[1] == 1.0  # slope picks the smaller area side
        assert bl[0] == 0.0 and bl[1] == 0.0

    def test_unstable_soundness_dense(self):
        rng = np.random.default_rng(4)
        l = -rng.uniform(0.01, 3, 50)
        u = rng.uniform(0.01, 3, 50)
        al, bl, au, bu = _relu_coeffs(l, u)
        for i in range(50):
            x = np.linspace(l[i], u[i], 401)
            y = np.maximum(x, 0)
            assert np.all(al[i] * x + bl[i] <= y + 1e-12)
            assert np.all(au[i] * x + bu[i] >= y - 1e-12)


class TestScurveCoeffs:
    @pytest.mark.parametrize("name", ["sigmoid", "tanh"])
    def test_sound_on_dense_grid(self, name):
        if name == "sigmoid":
            f, df = _sigmoid, lambda x: _sigmoid(x) * (1 - _sigmoid(x))
        else:
            f, df = np.tanh, lambda x: 1 - np.tanh(x) ** 2
        rng = np.random.default_rng(8)
        cases = [
            (0.2, 1.5), (0.0, 2.0),          # concave side
            (-1.5, -0.2), (-2.0, 0.0),       # convex side
            (-1.0, 1.0), (-0.3, 2.5), (-2.5, 0.3),   # crossing, asymmetric
            (-6.0, 6.0), (-0.01, 0.01),      # wide and narrow
            (1.0, 1.0 + 1e-14),              # point interval
            (-1.0023, 0.0305), (-0.0305, 1.0023),   # near-linear crossings
            (-0.5799, 0.0191), (-1.5376, 0.001),
        ]
        cases += [tuple(sorted(rng.normal(0, 2, 2))) for _ in range(60)]
        for l, u in cases:
            l_arr, u_arr = np.array([l]), np.array([u])
            al, bl, au, bu = _scurve_coeffs(l_arr, u_arr, f, df)
            x = np.linspace(l, u, 801)
            y = f(x)
            assert np.all(al[0] * x + bl[0] <= y + 1e-9), (l, u)
            assert np.all(au[0] * x + bu[0] >= y - 1e-9), (l, u)

    def test_crossing_needs_tangent_search(self):
        # strongly asymmetric interval: the chord is not a sound upper bound,
        # so the tangent search must engage and stay sound
        f, df = np.tanh, lambda x: 1 - np.tanh(x) ** 2
        l, u = np.array([-4.0]), np.array([0.5])
        al, bl, au, bu = _scurve_coeffs(l, u, f, df)
        chord = (f(u) - f(l)) / (u - l)
        assert au[0] < chord[0] + 1e-12  # flatter than the unsound chord
        x = np.linspace(l[0], u[0], 2001)
        assert np.all(au[0] * x + bu[0] >= np.tanh(x) - 1e-9)

    def test_exact_zero_gap_in_the_lower_search(self, monkeypatch):
        # on this near-linear sigmoid crossing a midpoint of the lower tangent
        # search lands exactly on gap 0.0; the reflected search must count it
        # on the same side as a direct search of the lower tangent, which gave
        # these bits
        zero_gaps = []
        bisect = relaxation._bisect_nondecreasing

        def spy(g, lo, hi, group, zero_above=False):
            def seen(d):
                gap = g(d)
                zero_gaps.append(zero_above and np.any(gap == 0.0))
                return gap
            return bisect(seen, lo, hi, group, zero_above)

        monkeypatch.setattr(relaxation, "_bisect_nondecreasing", spy)
        al, bl, _, _ = _scurve_coeffs(np.array([-0.5799]), np.array([0.0191]), _sigmoid, relaxation._dsigmoid)
        assert any(zero_gaps)
        assert al[0] == float.fromhex("0x1.fffd02f6ac05bp-3")
        assert bl[0] == float.fromhex("0x1.fffffd908dcb9p-2")

    @pytest.mark.parametrize("name", ["sigmoid", "tanh"])
    def test_rows_match_one_dimensional_calls(self, name):
        # row 0 crosses zero far off-centre (the tangent search engages),
        # row 1 has only one-sided and point intervals (no search); each row
        # must come out exactly as its own 1-D call
        if name == "sigmoid":
            f, df = _sigmoid, lambda x: _sigmoid(x) * (1 - _sigmoid(x))
        else:
            f, df = np.tanh, lambda x: 1 - np.tanh(x) ** 2
        l = np.array([[-4.0, 0.2, -0.3, -6.0], [0.1, -2.0, 1.0, -0.5]])
        u = np.array([[0.5, 1.5, 3.0, 0.4], [0.5, -1.0, 1.0 + 1e-14, -0.1]])
        chord = (f(u[0]) - f(l[0])) / (u[0] - l[0])
        assert chord[0] > df(l[0, 0]) and chord[2] > df(u[0, 2])  # both searches engage
        both = _scurve_coeffs(l, u, f, df)
        for r in range(2):
            one = _scurve_coeffs(l[r], u[r], f, df)
            for got, want in zip(both, one):
                assert got.shape == l.shape
                assert np.array_equal(got[r], want)


class TestRelaxCells:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_matches_per_box_relax_bitwise(self, activation):
        rng = np.random.default_rng(29)
        nd = random_network(2, 16, 3, activation=activation, seed=4)
        t = whitening_transform(np.diag([0.3, 0.7]))
        count = 2 * _CHUNK_CELLS + 5  # last chunk is partial
        lo = rng.uniform(-3.0, 1.0, (count, 2))
        hi = lo + rng.uniform(0.01, 3.0, (count, 2))
        batch = relax_cells(nd, ("a0",), t, lo, hi)
        assert len(batch) == count
        for i, got in enumerate(batch):
            want = relax(nd, "a0", t, HyperRect(lo[i], hi[i]))
            for name in ("A_lo", "b_lo", "A_hi", "b_hi"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (i, name)

    def test_tanh_cell_independent_of_its_batch(self):
        # a tanh cell's tangent searches must not run longer or shorter
        # because of the other cells relaxed with it
        nd = random_network(2, 24, 2, activation="tanh", seed=11)
        t = whitening_transform(np.eye(2))
        cell_lo, cell_hi = np.array([-1.3, -0.4]), np.array([0.2, 0.9])
        others_lo = np.array([[-4.0, -4.0], [0.5, 0.5], [-0.01, -0.01], [-3.0, 1.0]])
        others_hi = np.array([[4.0, 4.0], [0.5 + 1e-13, 0.6], [0.01, 0.01], [-2.9, 1.1]])
        alone = relax_cells(nd, ("a0",), t, cell_lo[None], cell_hi[None])[0]
        lo = np.vstack([others_lo[:2], cell_lo, others_lo[2:]])
        hi = np.vstack([others_hi[:2], cell_hi, others_hi[2:]])
        mixed = relax_cells(nd, ("a0",), t, lo, hi)[2]
        for name in ("A_lo", "b_lo", "A_hi", "b_hi"):
            assert np.array_equal(getattr(alone, name), getattr(mixed, name)), name

    @pytest.mark.parametrize("case", ["shared", "disjoint", "tanh_rewrapped", "one_ulp"])
    def test_actions_match_per_box_relax_bitwise(self, case):
        nd = {
            "shared": lambda: directional_dynamics(2, 10, 3, SEVEN, seed=5),
            "disjoint": lambda: random_network(2, 12, 2, seed=8, actions=("a0", "a1", "a2")),
            "tanh_rewrapped": _tanh_swapped,
            "one_ulp": _middle_bias_nudged,
        }[case]()
        rng = np.random.default_rng(31)
        t = whitening_transform(np.diag([0.4, 0.9]))
        count = 2 * _CHUNK_CELLS + 5  # last chunk is partial
        lo = rng.uniform(-2.0, 1.0, (count, 2))
        hi = lo + rng.uniform(0.01, 2.0, (count, 2))
        A = len(nd.actions)
        batch = relax_cells(nd, nd.actions, t, lo, hi)
        assert len(batch) == count * A
        for i in range(count):
            for a, action in enumerate(nd.actions):
                want = relax(nd, action, t, HyperRect(lo[i], hi[i]))
                got = batch[i * A + a]
                for name in ("A_lo", "b_lo", "A_hi", "b_hi"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (i, action, name)

    def test_shared_prefix_compares_bytes(self):
        t = whitening_transform(np.eye(2))

        def prefix(nd):
            return _shared_prefix([_stages(nd, a, t) for a in nd.actions])

        # whitening stage plus three hidden layers; the heads differ
        assert prefix(directional_dynamics(2, 10, 3, SEVEN, seed=5)) == 4
        assert prefix(_tanh_swapped()) == 4
        assert prefix(random_network(2, 12, 2, seed=8, actions=("a0", "a1"))) == 1
        # one ulp, or -0.0 for 0.0 (equal under ==), in the middle layer's
        # bias stops the prefix before that layer
        assert prefix(_middle_bias_nudged()) == 2
        assert prefix(_middle_bias_nudged(entry=0, value=-0.0)) == 2
        # a single action, or identical networks, share all but the last stage
        one = random_network(2, 12, 2, seed=8)
        assert prefix(one) == len(_stages(one, "a0", t)) - 1

    def test_shared_layers_relaxed_once_per_chunk(self, monkeypatch):
        # 7 actions over 3 shared hidden layers: per chunk, one backward pass
        # per hidden layer and one final pass per action
        nd = directional_dynamics(2, 10, 3, SEVEN, seed=5)
        calls = Counter()
        backward = relaxation._backward

        def counted(stages, coeffs, m, cells):
            calls[m] += 1
            return backward(stages, coeffs, m, cells)

        monkeypatch.setattr(relaxation, "_backward", counted)
        chunks = 3
        lo = np.zeros(((chunks - 1) * _CHUNK_CELLS + 5, 2))
        relax_cells(nd, nd.actions, whitening_transform(np.eye(2)), lo, lo + 0.5)
        final = len(_stages(nd, "d0", whitening_transform(np.eye(2)))) - 1
        assert calls == Counter({1: chunks, 2: chunks, 3: chunks, final: chunks * 7})

    def test_no_boxes_give_an_empty_stack(self):
        nd = random_network(2, 8, 1, activation="tanh", seed=0)
        empty = relax_cells(nd, ("a0",), whitening_transform(np.eye(2)), np.zeros((0, 2)), np.zeros((0, 2)))
        assert len(empty) == 0
        assert empty.A_lo.shape == empty.A_hi.shape == (0, 2, 2)
        assert empty.b_lo.shape == empty.b_hi.shape == (0, 2)

    def test_rejects_mismatched_boxes(self):
        nd = random_network(2, 8, 1, seed=0)
        t = whitening_transform(np.eye(2))
        with pytest.raises(ValueError, match="boxes"):
            relax_cells(nd, ("a0",), t, np.zeros((3, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="boxes"):
            relax_cells(nd, ("a0",), t, np.zeros((3, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="no actions"):
            relax_cells(nd, (), t, np.zeros((3, 2)), np.ones((3, 2)))


class TestRelaxNetworks:
    def test_pure_linear_network_is_exact(self):
        rng = np.random.default_rng(1)
        w1, b1 = rng.normal(size=(3, 2)), rng.normal(size=3)
        w2, b2 = rng.normal(size=(2, 3)), rng.normal(size=2)
        nd = NeuralDynamics(
            dim=2, actions=("a",),
            networks={"a": (
                DenseLayer(w1, b1, Activation.LINEAR),
                DenseLayer(w2, b2, Activation.LINEAR),
            )},
        )
        t = whitening_transform(0.5 * np.eye(2))
        region = HyperRect([-1.0, 0.0], [1.0, 2.0])
        b = relax(nd, "a", t, region)
        assert np.array_equal(b.A_lo, b.A_hi)
        assert np.array_equal(b.b_lo, b.b_hi)
        expect_A = t.matrix @ w2 @ w1 @ t.inverse
        expect_b = t.matrix @ (w2 @ b1 + b2)
        assert np.allclose(b.A_lo, expect_A, atol=1e-12)
        assert np.allclose(b.b_lo, expect_b, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_sound_random_networks(self, activation):
        rng = np.random.default_rng(17)
        for seed in range(6):
            dim = int(rng.integers(1, 4))
            nd = random_network(dim, 16, 2, activation=activation, seed=seed)
            cov = np.diag(rng.uniform(0.05, 1.0, dim))
            t = whitening_transform(cov)
            lo = rng.uniform(-2, 0, dim)
            region = HyperRect(lo, lo + rng.uniform(0.2, 2.0, dim))
            viol = check_envelope(nd, "a0", t, region, n=5000, seed=seed)
            assert viol <= 1e-9, f"{activation} seed {seed}: violation {viol}"

    def test_sound_identity_channel_fixture(self):
        nd = directional_dynamics(
            2, 20, 3, {"e": (0.5, 0.0), "n": (0.0, 0.5)}, seed=3, contraction=0.6
        )
        t = whitening_transform(0.2 * np.eye(2))
        region = HyperRect([-0.5, -0.5], [0.7, 0.9])
        for a in nd.actions:
            assert check_envelope(nd, a, t, region, n=5000) <= 1e-9

    def test_tightening_on_split(self):
        # splitting the region must not loosen the envelope anywhere inside
        # the child, up to the relu lower-slope flip; check the mean width
        # instead, which is what refinement relies on
        nd = random_network(2, 12, 2, activation="relu", seed=21)
        t = whitening_transform(np.eye(2))
        parent = HyperRect([-1.0, -1.0], [1.0, 1.0])
        b_parent = relax(nd, "a0", t, parent)
        rng = np.random.default_rng(0)
        for dim in (0, 1):
            for child in parent.split(dim):
                b_child = relax(nd, "a0", t, child)
                z = rng.uniform(child.lo, child.hi, (2000, 2))
                w_parent = np.mean(b_parent.upper(z) - b_parent.lower(z))
                w_child = np.mean(b_child.upper(z) - b_child.lower(z))
                assert w_child <= w_parent + 1e-12

    def test_bounds_shapes_and_eval(self):
        nd = random_network(3, 10, 2, seed=5)
        t = whitening_transform(np.eye(3))
        region = HyperRect([0, 0, 0], [1, 1, 1])
        b = relax(nd, "a0", t, region)
        assert b.A_lo.shape == (3, 3) and b.b_hi.shape == (3,)
        z = np.zeros((7, 3))
        assert b.lower(z).shape == (7, 3)
        assert np.all(b.lower(z) <= b.upper(z) + 1e-12)
