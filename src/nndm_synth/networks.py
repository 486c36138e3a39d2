"""Feed-forward dynamics models: one dense network per control action,
iterated as x_{k+1} = f_a(x_k) + v_k with additive Gaussian noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np


class Activation(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    LINEAR = "linear"

    @classmethod
    def parse(cls, name: str) -> "Activation":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(
                f"unsupported activation {name!r}; expected one of "
                f"{[a.value for a in cls]}"
            ) from None

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Elementwise activation; with `out` (which may be `x` itself) the
        result is written there, bit for bit what the fresh array holds."""
        if self is Activation.RELU:
            return np.maximum(x, 0.0, out=out)
        if self is Activation.SIGMOID:
            return _sigmoid(x, out)
        if self is Activation.TANH:
            return np.tanh(x, out=out)
        if out is not None and out is not x:
            out[...] = x
            return out
        return x


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # branch on sign so exp never overflows; both halves are read before
    # either is written, so `out` may be `x`
    out = np.empty_like(x, dtype=float) if out is None else out
    pos = x >= 0
    neg = ~pos
    x_pos, ex = x[pos], np.exp(x[neg])
    out[pos] = 1.0 / (1.0 + np.exp(-x_pos))
    out[neg] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """y = activation(weights @ x + bias)."""

    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray     # (n_out,)
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"layer weights must be a matrix, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match {w.shape[0]} output rows")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class NeuralDynamics:
    """State dimension, ordered action names, and one layer stack per action.
    Every network maps R^dim -> R^dim."""

    dim: int
    actions: tuple[str, ...]
    networks: dict[str, tuple[DenseLayer, ...]]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("state dimension must be positive")
        if not self.actions:
            raise ValueError("at least one action required")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("duplicate action names")
        for a in self.actions:
            layers = self.networks.get(a)
            if not layers:
                raise ValueError(f"missing network for action {a!r}")
            if layers[0].n_in != self.dim:
                raise ValueError(
                    f"action {a!r} layer 0 expects {layers[0].n_in} inputs, state dimension is {self.dim}"
                )
            for k in range(1, len(layers)):
                if layers[k].n_in != layers[k - 1].n_out:
                    raise ValueError(
                        f"action {a!r} layer {k} expects {layers[k].n_in} inputs, "
                        f"layer {k - 1} emits {layers[k - 1].n_out}"
                    )
            if layers[-1].n_out != self.dim:
                raise ValueError(
                    f"action {a!r} final layer emits {layers[-1].n_out} outputs, state dimension is {self.dim}"
                )

    def layers(self, action: str) -> tuple[DenseLayer, ...]:
        if action not in self.networks:
            raise KeyError(f"unknown action {action!r}")
        return self.networks[action]


# A forward pass runs in chunks of rows whose widest layer output fills at
# most this many floats (512 KiB), so a large batch never materializes its
# (rows, hidden width) activations at once.
_EVAL_CELLS = 1 << 16


def evaluate(nd: NeuralDynamics, action: str, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass f_a(x). Accepts a single state (dim,) or a
    batch (m, dim); returns the matching shape.

    Rows go through in chunks of _EVAL_CELLS // width; hidden layers
    alternate between two scratch buffers reused across chunks, bias and
    activation are applied in place, and the last layer writes straight into
    the result. A row's last bits can change with the batch's shape (BLAS)."""
    layers = nd.layers(action)
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != nd.dim:
        raise ValueError(f"state has dimension {pts.shape[1]}, expected {nd.dim}")
    m = pts.shape[0]
    out = np.empty((m, nd.dim))
    width = max(layer.n_out for layer in layers)
    rows = max(1, _EVAL_CELLS // width)
    scratch = [np.empty(min(rows, m) * width) for _ in range(min(2, len(layers) - 1))]
    for start in range(0, m, rows):
        y = pts[start:start + rows]
        k = y.shape[0]
        for i, layer in enumerate(layers):
            if i == len(layers) - 1:
                dst = out[start:start + k]
            else:
                dst = scratch[i % 2][:k * layer.n_out].reshape(k, layer.n_out)
            np.matmul(y, layer.weights.T, out=dst)
            dst += layer.bias
            y = layer.activation.apply(dst, out=dst)
    return out[0] if single else out


# -- JSON model files --------------------------------------------------------

def _strict(conv, value, what: str):
    """conv(value) for a config value, conv one of the strict conversions
    below (a bool or a string is never a number, a fraction never an
    integer); a value conv refuses is a ValueError saying `what`."""
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(what) from None


def _check_keys(raw, where: str, required=(), optional=()) -> None:
    """raw is a JSON object with every required key and no other key than
    the required and optional ones: a misspelt key would otherwise fall back
    to its default silently, a missing one fail later as a KeyError."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(raw).difference(required, optional))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValueError(f"missing key {missing[0]!r} in {where}")


def _int(value) -> int:
    if isinstance(value, (bool, np.bool_, str)) or not float(value).is_integer():
        raise ValueError(value)
    return int(value)


def _float(value) -> float:
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(value)
    return float(value)


# the (conversion, rule, holds) of a _setting that counts from 0 or from 1
_COUNT = (_int, "an integer of at least 0", lambda v: v >= 0)
_POSITIVE = (_int, "an integer of at least 1", lambda v: v >= 1)


def _setting(default, key: str, conv, rule: str, holds):
    """A config dataclass field declared once: its default, JSON key ("section.key"
    or "key"), strict conversion, and rule: holds(value), worded by `rule`."""
    section, _, key = key.rpartition(".")
    return field(default=default, metadata=dict(section=section, key=key, conv=conv, rule=rule, holds=holds))


def _check_settings(config) -> None:
    """Store each _setting field of the frozen dataclass `config` converted;
    a value its conversion or rule refuses is a ValueError naming the key."""
    for f in fields(config):
        if "key" in f.metadata:
            m, value = f.metadata, getattr(config, f.name)
            what = f"{m['section']} {m['key']!r} must be {m['rule']}, got {value!r}".lstrip()
            value = _strict(m["conv"], value, what)
            if not m["holds"](value):
                raise ValueError(what)
            object.__setattr__(config, f.name, value)


def _numbers(value) -> np.ndarray:
    """A number or nested lists of numbers as a float array, every entry
    through _float; ragged lists are malformed."""
    if not isinstance(value, (list, tuple)):
        return np.array(_float(value))
    parts = [_numbers(v) for v in value]
    if len({p.shape for p in parts}) > 1:
        raise ValueError(value)
    return np.array(parts)


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _names(value, what: str) -> list[str]:
    """A bare string would otherwise read as the list of its characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings, got {value!r}")
    return value


def _load_json(path: str, parse):
    """parse(the JSON document at path), every ValueError starting with the
    path, so the user learns which file is wrong."""
    with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259), whatever the locale
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from None
    try:
        return parse(raw)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _parse_networks(raw) -> NeuralDynamics:
    _check_keys(raw, "the network file", ("dim", "actions", "networks"))
    dim = _strict(_int, raw["dim"], f"'dim' must be an integer, got {raw['dim']!r}")
    actions = tuple(_names(raw["actions"], "'actions'"))
    _check_keys(raw["networks"], "'networks'", actions)
    networks = {}
    for a in actions:
        if not isinstance(raw["networks"][a], list):
            raise ValueError(f"the network of action {a!r} must be a list of layers")
        layers = []
        for k, spec in enumerate(raw["networks"][a]):
            _check_keys(spec, f"action {a!r} layer {k}", ("weights", "bias", "activation"))
            w, b = (
                _strict(_numbers, spec[key], f"action {a!r} layer {k} {key!r} must hold only numbers")
                for key in ("weights", "bias"))
            layers.append(DenseLayer(w, b, Activation.parse(spec["activation"])))
        networks[a] = tuple(layers)
    return NeuralDynamics(dim=dim, actions=actions, networks=networks)


def load_networks(path: str) -> NeuralDynamics:
    """Load a dynamics model from the JSON layout

        {"dim": n, "actions": [...],
         "networks": {action: [{"weights": [[...]], "bias": [...],
                                "activation": "relu"}, ...]}}

    read strictly: each object holds exactly its keys (`networks` one per
    declared action, each layer `weights`, `bias` and `activation`), so an
    unknown or a missing key is an error; a non-list of action names is too,
    and every error starts with the path."""
    return _load_json(path, _parse_networks)


def save_networks(nd: NeuralDynamics, path: str) -> None:
    doc = {
        "dim": nd.dim,
        "actions": list(nd.actions),
        "networks": {
            a: [
                {
                    "weights": layer.weights.tolist(),
                    "bias": layer.bias.tolist(),
                    "activation": layer.activation.value,
                }
                for layer in nd.networks[a]
            ]
            for a in nd.actions
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
