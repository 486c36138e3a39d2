"""Network model layer: activations, forward pass, JSON files."""

import json

import numpy as np
import pytest

from nndm_synth.networks import (
    _EVAL_CELLS,
    Activation,
    DenseLayer,
    NeuralDynamics,
    evaluate,
    load_networks,
    save_networks,
)
from nndm_synth.fixtures import random_network


class TestActivation:
    def test_parse(self):
        assert Activation.parse("relu") is Activation.RELU
        with pytest.raises(ValueError, match="unsupported activation"):
            Activation.parse("swish")

    def test_apply_matches_formulas(self):
        x = np.linspace(-3, 3, 13)
        assert np.array_equal(Activation.RELU.apply(x), np.maximum(x, 0))
        assert np.allclose(Activation.TANH.apply(x), np.tanh(x))
        assert np.allclose(Activation.SIGMOID.apply(x), 1 / (1 + np.exp(-x)))
        assert np.array_equal(Activation.LINEAR.apply(x), x)

    @pytest.mark.parametrize("act", list(Activation))
    def test_apply_in_place_is_bitwise_fresh(self, act):
        x = np.linspace(-50, 50, 41)
        fresh = act.apply(x)
        y = x.copy()
        assert act.apply(y, out=y) is y
        assert np.array_equal(y, fresh)

    def test_sigmoid_extremes_no_overflow(self):
        big = np.array([-1000.0, -40.0, 40.0, 1000.0])
        out = Activation.SIGMOID.apply(big)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0


class TestLayerValidation:
    def test_shapes(self):
        with pytest.raises(ValueError):
            DenseLayer(np.zeros(3), np.zeros(3), Activation.RELU)
        with pytest.raises(ValueError):
            DenseLayer(np.zeros((3, 2)), np.zeros(2), Activation.RELU)
        with pytest.raises(ValueError):
            DenseLayer(np.array([[np.inf]]), np.zeros(1), Activation.RELU)

    def test_chain_validation(self):
        l1 = DenseLayer(np.zeros((4, 2)), np.zeros(4), Activation.RELU)
        l2 = DenseLayer(np.zeros((2, 3)), np.zeros(2), Activation.LINEAR)  # 3 != 4
        with pytest.raises(ValueError, match="layer 1"):
            NeuralDynamics(dim=2, actions=("a",), networks={"a": (l1, l2)})
        l3 = DenseLayer(np.zeros((3, 4)), np.zeros(3), Activation.LINEAR)  # emits 3 != dim
        with pytest.raises(ValueError, match="final layer"):
            NeuralDynamics(dim=2, actions=("a",), networks={"a": (l1, l3)})
        ident = DenseLayer(np.eye(2), np.zeros(2), Activation.LINEAR)
        with pytest.raises(ValueError, match="missing network"):
            NeuralDynamics(dim=2, actions=("a", "b"), networks={"a": (ident,)})
        with pytest.raises(ValueError, match="duplicate"):
            NeuralDynamics(dim=2, actions=("a", "a"), networks={"a": (ident,)})


class TestEvaluate:
    def test_hand_computed(self):
        w1 = np.array([[1.0, -1.0], [0.0, 2.0]])
        b1 = np.array([0.0, -1.0])
        w2 = np.array([[1.0, 1.0], [2.0, 0.0]])
        b2 = np.array([0.5, 0.0])
        nd = NeuralDynamics(
            dim=2,
            actions=("a",),
            networks={"a": (
                DenseLayer(w1, b1, Activation.RELU),
                DenseLayer(w2, b2, Activation.LINEAR),
            )},
        )
        x = np.array([2.0, 1.0])
        h = np.maximum(w1 @ x + b1, 0)           # [1, 1]
        expect = w2 @ h + b2                      # [2.5, 2]
        assert np.allclose(evaluate(nd, "a", x), expect)

    def test_batch_matches_single(self):
        nd = random_network(3, 8, 2, activation="tanh", seed=5)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(17, 3))
        batch = evaluate(nd, "a0", xs)
        singles = np.array([evaluate(nd, "a0", x) for x in xs])
        assert np.allclose(batch, singles)
        assert batch.shape == (17, 3)

    def test_empty_batch(self):
        nd = random_network(3, 8, 2, seed=5)
        assert evaluate(nd, "a0", np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_chunked_batch_matches_single(self, activation):
        # 3 full chunks of rows plus 5: the chunk seams and the short tail
        nd = random_network(2, 64, 2, activation=activation, seed=3)
        xs = np.random.default_rng(1).normal(size=(3 * (_EVAL_CELLS // 64) + 5, 2))
        batch = evaluate(nd, "a0", xs)
        singles = np.array([evaluate(nd, "a0", x) for x in xs])
        assert batch.shape == xs.shape
        assert np.allclose(batch, singles, rtol=0.0, atol=1e-12)

    def test_input_checks(self):
        nd = random_network(2, 4, 1, seed=1)
        with pytest.raises(KeyError):
            evaluate(nd, "nope", np.zeros(2))
        with pytest.raises(ValueError):
            evaluate(nd, "a0", np.zeros(3))


class TestJsonRoundTrip:
    def test_save_load_identity(self, tmp_path):
        nd = random_network(3, 10, 3, activation="sigmoid", seed=9, actions=("u", "v"))
        path = tmp_path / "model.json"
        save_networks(nd, str(path))
        back = load_networks(str(path))
        assert back.dim == nd.dim and back.actions == nd.actions
        for a in nd.actions:
            for l_old, l_new in zip(nd.networks[a], back.networks[a]):
                assert np.array_equal(l_old.weights, l_new.weights)
                assert np.array_equal(l_old.bias, l_new.bias)
                assert l_old.activation is l_new.activation
        x = np.array([0.1, 0.2, -0.3])
        assert np.array_equal(evaluate(nd, "u", x), evaluate(back, "u", x))

    def test_error_messages(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_networks(str(p))
        p.write_text(json.dumps({"dim": 2, "actions": ["a"]}))
        with pytest.raises(ValueError, match="missing key 'networks' in the network file"):
            load_networks(str(p))
        p.write_text(json.dumps({"dim": 2, "actions": ["a"], "networks": {}}))
        with pytest.raises(ValueError, match="missing key 'a' in 'networks'"):
            load_networks(str(p))
        p.write_text(json.dumps({
            "dim": 2, "actions": ["a"],
            "networks": {"a": [{"weights": [[1, 0], [0, 1]], "bias": [0, 0]}]},
        }))
        with pytest.raises(ValueError, match="missing key 'activation' in action 'a' layer 0"):
            load_networks(str(p))

    @pytest.mark.parametrize("edit, what", [
        (lambda doc: doc.update(extra=1), "unknown config key 'extra' in the network file"),
        (lambda doc: doc["networks"]["a"][0].update(bais=[0.0]),
         "unknown config key 'bais' in action 'a' layer 0"),
        (lambda doc: doc.update(actions="ab"), "'actions' must be a list of strings"),
        (lambda doc: doc.update(actions=["a", 1]), "'actions' must be a list of strings"),
        (lambda doc: doc.update(networks=[doc["networks"]["a"]]), "'networks' must be a JSON object"),
        (lambda doc: doc["networks"].update(b=[]), "unknown config key 'b' in 'networks'"),
        (lambda doc: doc["networks"].update(a=5), "the network of action 'a' must be a list of layers"),
        (lambda doc: doc.update(dim=2), "layer 0 expects 1 inputs, state dimension is 2"),
    ])
    def test_reader_is_strict_and_names_the_file(self, tmp_path, edit, what):
        # the first three once loaded silently, "ab" as the two actions a and b;
        # the model's own checks, as the last, also name the file
        doc = {"dim": 1, "actions": ["a"],
               "networks": {"a": [{"weights": [[1.0]], "bias": [0.0], "activation": "linear"}]}}
        edit(doc)
        p = tmp_path / "net.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=what) as err:
            load_networks(str(p))
        assert str(err.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("edit, what", [
        ({"dim": 1.9}, "'dim' must be an integer"),
        ({"weights": [["0.5"]]}, "action 'a' layer 1 'weights'"),
        ({"bias": [True]}, "action 'a' layer 1 'bias'"),
        ({"weights": [[0.5], [0.5, 0.5]]}, "action 'a' layer 1 'weights'"),
    ])
    def test_numbers_are_strict(self, tmp_path, edit, what):
        # each of these once loaded: "dim" 1.9 as 1, "0.5" as 0.5, true as 1.0
        ident = {"weights": [[1.0]], "bias": [0.0], "activation": "linear"}
        doc = {"dim": 1, "actions": ["a"], "networks": {"a": [ident, dict(ident)]}}
        if "dim" in edit:
            doc.update(edit)
        else:
            doc["networks"]["a"][1].update(edit)
        p = tmp_path / "strict.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=what) as err:
            load_networks(str(p))
        assert str(p) in str(err.value)
