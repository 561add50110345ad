"""Feed-forward MLP regressor trained by backpropagation with mini-batch SGD.

Linear output unit, squared-error loss with optional L2 weight decay.
Deliberately no internal input scaling: the network consumes the design
matrix as given, which is exactly what makes it sensitive to whether the
features were standardized upstream.

There is one training loop, fit_lockstep. It trains C configs of one
architecture (layer widths, batch size, training- and validation-row
counts) at once, each on its own rows of one X: their weights are
stacked into (C, fan_in, fan_out) arrays, so each mini-batch step is one
np.matmul pass over all of them instead of one Python pass per config.
Slice c follows the same floating-point operations as config c trained
alone, so every weight and loss is bit-identical to a lone fit. fit_mlp
is the one-config case; the CV tuner trains the configs of every fold of
a task through the family registry's fit_folds hook, so one stack holds
an architecture's configs across folds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from .fieldtypes import Numbers, check_field_types, learner_input

_INIT_TAG = 101
_SPLIT_TAG = 102
_EPOCH_TAG = 103

ACTIVATIONS = ("relu", "tanh", "logistic")


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class EarlyStopConfig:
    validation_fraction: float = 0.1
    patience: int = 10

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class MLPConfig:
    hidden_layers: tuple[int, ...] = (64,)
    activation: str = "relu"
    learning_rate: float = 0.01
    batch_size: int = 32
    max_epochs: int = 200
    l2_penalty: float = 0.0
    momentum: float = 0.0
    seed: int = 0
    early_stop: EarlyStopConfig | None = None

    def __post_init__(self):
        check_field_types(self)
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class MLPModel:
    weights: tuple[Annotated[np.ndarray, Numbers(ndim=2)], ...]
    biases: tuple[Annotated[np.ndarray, Numbers()], ...]
    activation: str


@dataclass(frozen=True)
class TrainingTrace:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...] | None = None


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of z, written to out if given (out=z saves a fresh
    array, which costs more than the arithmetic on it)."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    # logistic, 1 / (1 + exp(-z)) one operation at a time
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative at z, from its output a = _act(z, kind)."""
    if kind == "relu":
        return (a > 0.0).astype(float)
    if kind == "tanh":
        return 1.0 - a**2
    return a * (1.0 - a)  # logistic


def _runs(kinds) -> list[tuple[int, int, str]]:
    """(start, stop, activation) of each run of consecutive configs that
    share one activation."""
    runs, start = [], 0
    for kind, group in itertools.groupby(kinds):
        stop = start + len(list(group))
        runs.append((start, stop, kind))
        start = stop
    return runs


def _per_run(fn, z: np.ndarray, runs) -> np.ndarray:
    """fn(z[start:stop], kind) for each run; a slice along the config axis
    is contiguous, like the array a lone config would pass."""
    if len(runs) == 1:
        return fn(z, runs[0][2])
    out = np.empty_like(z)
    for start, stop, kind in runs:
        out[start:stop] = fn(z[start:stop], kind)
    return out


# Stacked parameters: weights[l] is (C, fan_in, fan_out), biases[l] is
# (C, 1, fan_out), inputs are (C, rows, features) and l2 is (C, 1, 1);
# slice c of every result is what config c alone computes, bit for bit.

def _forward(weights, biases, X: np.ndarray, runs):
    """The input of every layer (X, then each hidden layer's output) and
    the (C, rows) network outputs."""
    inputs = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        z = np.matmul(inputs[-1], W)
        z += b
        for start, stop, kind in runs:
            _act(z[start:stop], kind, out=z[start:stop])
        inputs.append(z)
    out = np.matmul(inputs[-1], weights[-1])
    out += biases[-1]
    return inputs, out[..., 0]


def _loss(weights, yhat: np.ndarray, y: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """mean((yhat - y)^2) + l2/2 * sum ||W||^2 of each config."""
    penalty = 0
    for W in weights:
        penalty = penalty + (W**2).reshape(len(W), -1).sum(axis=1)
    return np.mean((yhat - y) ** 2, axis=1) + l2[:, 0, 0] / 2.0 * penalty


def _gradients(weights, inputs, yhat: np.ndarray, y: np.ndarray, runs, l2: np.ndarray):
    """Gradients of _loss by backpropagation; biases are not penalized."""
    delta = (2.0 * (yhat - y) / y.shape[1])[..., None]
    last = len(weights) - 1
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    for layer in range(last, -1, -1):
        if layer < last:
            delta = (np.matmul(delta, weights[layer + 1].transpose(0, 2, 1))
                     * _per_run(_act_grad, inputs[layer + 1], runs))
        grad_w[layer] = (np.matmul(inputs[layer].transpose(0, 2, 1), delta)
                         + l2 * weights[layer])
        grad_b[layer] = delta.sum(axis=1, keepdims=True)
    return grad_w, grad_b


def _one(weights, biases, activation: str):
    """One config's 2-D parameters as a stack of one."""
    return ([np.asarray(W)[None] for W in weights],
            [np.asarray(b)[None, None] for b in biases],
            [(0, 1, activation)])


def init_params(cfg: MLPConfig, n_inputs: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """He-style scaled normal weights, zero biases, seeded."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _INIT_TAG]))
    widths = [n_inputs, *cfg.hidden_layers, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward(weights, biases, X: np.ndarray, activation: str) -> np.ndarray:
    W, b, runs = _one(weights, biases, activation)
    return _forward(W, b, np.asarray(X)[None], runs)[1][0]


def forward_from_first_layer(model: MLPModel, z: np.ndarray) -> np.ndarray:
    """The network's outputs given z, the first layer's pre-activations
    (rows x first-layer width), which the activation overwrites: the
    layers after the first run as in forward. For z = X W1 + b1 this is
    predict_mlp(model, X) up to the rounding of z."""
    if len(model.weights) == 1:  # no hidden layer: z is the output
        return z[:, 0]
    W, b, runs = _one(model.weights[1:], model.biases[1:], model.activation)
    return _forward(W, b, _act(z, model.activation, out=z)[None], runs)[1][0]


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    # a pure function of (seed, epoch): reruns and row-streaming order cannot drift it
    rng = np.random.default_rng(np.random.SeedSequence([seed, _EPOCH_TAG, epoch]))
    return rng.permutation(n)


def _n_val(cfg: MLPConfig, n: int) -> int:
    """How many of n rows the early-stopping split holds out."""
    if cfg.early_stop is None:
        return 0
    n_val = max(1, int(round(cfg.early_stop.validation_fraction * n)))
    if n_val >= n:
        raise ValueError("validation fraction leaves no training rows")
    return n_val


def _split(cfg: MLPConfig, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(training rows, validation rows or None) of cfg's seeded split."""
    n_val = _n_val(cfg, n)
    if cfg.early_stop is None:
        return np.arange(n), None
    perm = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SPLIT_TAG])).permutation(n)
    return perm[n_val:], perm[:n_val]


def lockstep_key(cfg: MLPConfig, n: int) -> tuple:
    """Configs whose keys, each on its own n rows, are equal can share one
    fit_lockstep call: same layer widths, batch size, and training- and
    validation-row counts."""
    n_val = _n_val(cfg, n)
    return cfg.hidden_layers, cfg.batch_size, n - n_val, n_val


# A stack holds at most this many elements (6 MiB of float64) of configs
# x training rows x its widest layer, the input columns included, so on
# large panels the stacked training rows and end-of-epoch activations stay
# near the size one fold's stack had. On 2,880 training rows of 46 columns
# the default grid's [128, 64] still stacks its relu/tanh pair, whose
# per-step call overhead a stack of one would pay twice, and its narrower
# architectures stack 4 or 5 configs.
_STACK_ELEMENTS = 3 << 18


@dataclass
class _Stack:
    """The state of the configs still training; row i of every array
    belongs to config live[i]."""

    live: np.ndarray
    params: list  # the weights, then the biases
    velocity: list
    best: list  # the parameters of each config's best validation loss
    activation: np.ndarray
    learning_rate: np.ndarray  # (C, 1, 1), like momentum and l2_penalty
    momentum: np.ndarray
    l2_penalty: np.ndarray
    max_epochs: np.ndarray
    patience: np.ndarray
    train_rows: np.ndarray
    X_tr: np.ndarray
    y_tr: np.ndarray
    X_val: np.ndarray | None
    y_val: np.ndarray | None
    best_val: np.ndarray
    since_best: np.ndarray

    @property
    def weights(self) -> list:
        return self.params[:len(self.params) // 2]

    @property
    def biases(self) -> list:
        return self.params[len(self.params) // 2:]

    @property
    def runs(self) -> list:
        return _runs(self.activation)

    def drop(self, gone: np.ndarray) -> None:
        keep = ~gone
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                setattr(self, f.name, [a[keep] for a in value])
            elif value is not None:
                setattr(self, f.name, value[keep])


def _column(values) -> np.ndarray:
    return np.array(list(values), dtype=float)[:, None, None]


def fit_lockstep(X, y, cfgs, rows=None) -> list:
    """Train configs that share one lockstep_key at once, on stacked
    parameters: every mini-batch step is one pass over all of them.

    Config c trains on rows[c] of X and y (all of them without ``rows``):
    entry c is what fit_mlp(X[rows[c]], y[rows[c]], cfgs[c]) returns,
    (model, trace), or the TrainingDivergedError it raises. Each config
    keeps its own seeded split, initial parameters, epoch shuffles, rates,
    early stopping and max_epochs; a config that stops is frozen while the
    rest train on. The configs of one activation sit next to each other,
    in stacks of at most _STACK_ELEMENTS.
    """
    X, y = learner_input(X, y)
    rows = ([np.arange(len(y))] * len(cfgs) if rows is None
            else [np.asarray(base, dtype=np.intp) for base in rows])
    if not all(len(base) for base in rows):
        raise ValueError("each config needs rows")
    keys = {lockstep_key(cfg, len(base)) for cfg, base in zip(cfgs, rows, strict=True)}
    if len(keys) != 1:
        raise ValueError("lockstep configs must share one lockstep_key")
    [(widths, _, n_tr, _)] = keys
    per_stack = max(1, _STACK_ELEMENTS // (n_tr * max((X.shape[1], *widths))))
    order = sorted(range(len(cfgs)), key=lambda c: cfgs[c].activation)  # stable
    results: list = [None] * len(cfgs)
    for start in range(0, len(order), per_stack):
        members = order[start:start + per_stack]
        fits = _fit_stack(X, y, [cfgs[c] for c in members], [rows[c] for c in members])
        for c, fit in zip(members, fits):
            results[c] = fit
    return results


def _fit_stack(X, y, cfgs, rows) -> list:
    """fit_lockstep of one stack: config c trains on X[rows[c]]."""
    splits = [_split(cfg, len(base)) for cfg, base in zip(cfgs, rows)]
    early = cfgs[0].early_stop is not None
    inits = [init_params(cfg, X.shape[1]) for cfg in cfgs]
    params = ([np.stack(layer) for layer in zip(*(w for w, _ in inits))]
              + [np.stack(layer)[:, None] for layer in zip(*(b for _, b in inits))])
    train_rows = np.stack([base[tr] for base, (tr, _) in zip(rows, splits)])
    val_rows = np.stack([base[va] for base, (_, va) in zip(rows, splits)]) if early else None
    s = _Stack(
        live=np.arange(len(cfgs)), params=params,
        velocity=[np.zeros_like(p) for p in params],
        best=[p.copy() for p in params],
        activation=np.array([cfg.activation for cfg in cfgs]),
        learning_rate=_column(cfg.learning_rate for cfg in cfgs),
        momentum=_column(cfg.momentum for cfg in cfgs),
        l2_penalty=_column(cfg.l2_penalty for cfg in cfgs),
        max_epochs=np.array([cfg.max_epochs for cfg in cfgs]),
        patience=np.array([cfg.early_stop.patience if early else 0 for cfg in cfgs]),
        train_rows=train_rows, X_tr=X[train_rows], y_tr=y[train_rows],
        X_val=None if val_rows is None else X[val_rows],
        y_val=None if val_rows is None else y[val_rows],
        best_val=np.full(len(cfgs), np.inf),
        since_best=np.zeros(len(cfgs), dtype=np.intp))
    train_losses = [[] for _ in cfgs]
    val_losses = [[] for _ in cfgs]
    results: list = [None] * len(cfgs)
    layers = len(params) // 2
    n_tr, batch_size = train_rows.shape[1], cfgs[0].batch_size

    def finish(done: np.ndarray) -> None:
        for i in np.flatnonzero(done):
            c = s.live[i]
            chosen = s.best if early and s.best_val[i] < np.inf else s.params
            model = MLPModel(weights=tuple(p[i].copy() for p in chosen[:layers]),
                             biases=tuple(p[i, 0].copy() for p in chosen[layers:]),
                             activation=cfgs[c].activation)
            results[c] = (model, TrainingTrace(
                train_loss=tuple(train_losses[c]),
                val_loss=tuple(val_losses[c]) if early else None))
        s.drop(done)

    epoch = 0
    while True:
        done = (epoch >= s.max_epochs) | (s.since_best > s.patience)
        if done.any():
            finish(done)
        if not len(s.live):
            return results
        runs = s.runs
        order = np.stack([_epoch_permutation(cfgs[c].seed, epoch, n_tr) for c in s.live])
        rows = np.take_along_axis(s.train_rows, order, axis=1)
        for start in range(0, n_tr, batch_size):
            batch = rows[:, start:start + batch_size]
            inputs, yhat = _forward(s.weights, s.biases, X[batch], runs)
            grad_w, grad_b = _gradients(s.weights, inputs, yhat, y[batch], runs,
                                        s.l2_penalty)
            for param, velocity, grad in zip(s.params, s.velocity, grad_w + grad_b):
                velocity *= s.momentum
                velocity -= s.learning_rate * grad
                param += velocity

        loss = _loss(s.weights, _forward(s.weights, s.biases, s.X_tr, runs)[1], s.y_tr,
                     s.l2_penalty)
        diverged = ~np.isfinite(loss)
        if diverged.any():
            for i in np.flatnonzero(diverged):
                cfg = cfgs[s.live[i]]
                results[s.live[i]] = TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}; "
                    f"reduce learning_rate (currently {cfg.learning_rate})")
            s.drop(diverged)
            loss = loss[~diverged]
            if not len(s.live):
                return results
        for c, value in zip(s.live, loss):
            train_losses[c].append(float(value))

        if early:
            val_pred = _forward(s.weights, s.biases, s.X_val, s.runs)[1]
            val_loss = np.mean((val_pred - s.y_val) ** 2, axis=1)
            for c, value in zip(s.live, val_loss):
                val_losses[c].append(float(value))
            better = val_loss < s.best_val
            s.best_val = np.where(better, val_loss, s.best_val)
            s.since_best = np.where(better, 0, s.since_best + 1)
            if better.any():
                for best, current in zip(s.best, s.params):
                    best[better] = current[better]
        epoch += 1


def fit_mlp(X, y, cfg: MLPConfig) -> tuple[MLPModel, TrainingTrace]:
    """Mini-batch SGD (optional momentum) over shuffled epochs.

    Raises TrainingDivergedError when the loss goes non-finite; try a
    smaller learning rate. With early stopping enabled, a seeded
    validation split is held out and the best-validation parameters are
    restored on exit. The one-config case of fit_lockstep.
    """
    (result,) = fit_lockstep(X, y, [cfg])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


def predict_mlp(model: MLPModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.weights[0].shape[0]:
        raise ValueError(
            f"width mismatch: model expects {model.weights[0].shape[0]} inputs, "
            f"got {X.shape[1]}")
    return forward(model.weights, model.biases, X, model.activation)
