"""Exact Shapley-value attribution.

phi_i = sum over S subseteq players\\{i} of |S|!(M-|S|-1)!/M! *
[v(S u {i}) - v(S)]. Two value functions are provided: `marginalize`
(interventional expectation over a background sample; the default) and
`retrain` (literally refit the model on each feature subset; only sane for
the families the registry marks `cheap_refit`, and kept as the oracle the
marginalize kind is tested against).

A marginalize value function carries exactly one of two hooks. For tree
ensembles and linear models the game has a closed form: `ensemble_shap`
(interventional TreeSHAP, Lundberg et al. 2020) and `linear_shap` give
its values in time polynomial in model size x background rows, as the
value function's `solver`. The MLP has no closed form, so its 2^M
coalitions are enumerated, but not by masking: its first layer is
affine, and `mlp_coalition_values` (a value function's `coalitions`)
builds every coalition's first-layer pre-activations from subset sums of
per-player deltas, so only the later layers run per coalition. Masking
the background and predicting on every coalition is the oracle both
hooks are tested against; it lives with the tests.

Players are column groups: singleton columns by default, or whole one-hot
blocks so that a coalition toggles the entire block at once.

A hook imports the learner module it needs when it runs, so explaining
one family's model loads no other family's learner.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .features import DesignMatrix

DEFAULT_PLAYER_CAP = 15
_CHUNK_BITS = 7  # log2 of the coalitions per forward pass of the MLP game


def _singleton_players(n_columns: int) -> list[list[int]]:
    return [[c] for c in range(n_columns)]


@dataclass(frozen=True)
class MarginalValueFunction:
    """v(S) = mean over background rows of the model applied to x with the
    features outside S replaced by the background row's values. Exactly
    one of ``solver`` and ``coalitions`` computes the game."""

    predict: Callable[[np.ndarray], np.ndarray]
    background: np.ndarray
    player_columns: list[list[int]] = field(default_factory=list)
    player_names: tuple[str, ...] = ()
    # solver(x, background, player_columns) -> phi: the exact values of
    # this game in polynomial time, used by exact_shap in place of 2^M
    # coalitions
    solver: Callable[[np.ndarray, np.ndarray, list[list[int]]], np.ndarray] | None = None
    # coalitions(x, background, player_columns) -> v of all 2^M coalitions
    # in id order (player i is bit i of the id)
    coalitions: Callable[[np.ndarray, np.ndarray, list[list[int]]], np.ndarray] | None = None

    def __post_init__(self):
        if len(self.background) == 0:
            raise ValueError("marginalize value function needs a non-empty background")
        if (self.solver is None) == (self.coalitions is None):
            raise ValueError("marginalize value function needs exactly one of "
                             "solver and coalitions")
        if not self.player_columns:
            object.__setattr__(self, "player_columns",
                               _singleton_players(self.background.shape[1]))
        if not self.player_names:
            object.__setattr__(self, "player_names",
                               tuple(f"f{i}" for i in range(len(self.player_columns))))
        held = sorted(c for cols in self.player_columns for c in cols)
        if held != list(range(self.background.shape[1])):
            raise ValueError("a marginalize value function needs every column in "
                             "exactly one player")

    @property
    def n_players(self) -> int:
        return len(self.player_columns)

    def coalition_values(self, x: np.ndarray) -> np.ndarray:
        """v of all 2^M coalitions, in id order."""
        return self.coalitions(x, self.background, self.player_columns)


@dataclass(frozen=True)
class RetrainValueFunction:
    """v(S) = prediction at x of a model refit on the feature subset S;
    v(empty) is the training-target mean. Each subset is refit once and its
    model kept for every row the value function explains."""

    fit: Callable[[np.ndarray, np.ndarray], Any]
    predict: Callable[[Any, np.ndarray], np.ndarray]
    X_train: np.ndarray
    y_train: np.ndarray
    player_columns: list[list[int]] = field(default_factory=list)
    player_names: tuple[str, ...] = ()
    def __post_init__(self):
        object.__setattr__(self, "_refits", {})  # sorted column tuple -> model
        if not self.player_columns:
            object.__setattr__(self, "player_columns",
                               _singleton_players(self.X_train.shape[1]))
        if not self.player_names:
            object.__setattr__(self, "player_names",
                               tuple(f"f{i}" for i in range(len(self.player_columns))))

    @property
    def n_players(self) -> int:
        return len(self.player_columns)

    def coalition_values(self, x: np.ndarray) -> np.ndarray:
        """v of all 2^M coalitions, in id order (player i is bit i of the id)."""
        base = float(np.mean(self.y_train))
        values = np.empty(1 << self.n_players)
        for s in range(len(values)):
            cols = sorted(c for p, player in enumerate(self.player_columns) if s >> p & 1
                          for c in player)
            if not cols:
                values[s] = base
                continue
            key = tuple(cols)
            if key not in self._refits:
                self._refits[key] = self.fit(self.X_train[:, cols], self.y_train)
            values[s] = float(self.predict(self._refits[key], x[cols][None, :])[0])
        return values


@dataclass(frozen=True)
class ShapAttribution:
    feature_names: tuple[str, ...]
    phi: np.ndarray
    base_value: float
    f_x: float


def exact_shap(vf, x, cap: int = DEFAULT_PLAYER_CAP) -> ShapAttribution:
    """Exact Shapley values for one instance.

    A value function with a `solver` gets phi from it; base_value is then
    the mean prediction over the background and f_x the prediction at x.
    Otherwise its coalition_values gives v on all 2^M coalitions (M =
    player count, capped because the cost is exponential) and the
    weighted marginal contributions are aggregated; base_value is the
    empty coalition's value. Either way base_value + sum(phi) equals f_x.
    """
    x = np.asarray(x, dtype=float).ravel()
    if getattr(vf, "solver", None) is not None:
        phi = vf.solver(x, vf.background, vf.player_columns)
        preds = vf.predict(np.vstack([vf.background, x]))
        return ShapAttribution(
            feature_names=tuple(vf.player_names), phi=phi,
            base_value=float(preds[:-1].mean()), f_x=float(preds[-1]))

    m = vf.n_players
    if m > cap:
        raise ValueError(f"{m} players exceeds the enumeration cap {cap}; "
                         f"group one-hot blocks or raise cap explicitly")

    values = vf.coalition_values(x)
    ids = np.arange(1 << m, dtype=np.int64)
    sizes = np.zeros(1 << m, dtype=np.int64)  # players in each coalition
    for i in range(m):
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    fact = [math.factorial(k) for k in range(m + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]) if m else np.empty(0)

    phi = np.zeros(m)
    bits = 1 << np.arange(m, dtype=np.int64)
    for i in range(m):
        without = ids[(ids & bits[i]) == 0]
        phi[i] = np.sum(weight_by_size[sizes[without]]
                        * (values[without + bits[i]] - values[without]))
    return ShapAttribution(
        feature_names=tuple(vf.player_names), phi=phi,
        base_value=float(values[0]), f_x=float(values[-1]))


def _leaf_weights(a: int, b: int) -> tuple[float, float]:
    """Shapley values of the game S -> [IN subseteq S and OUT disjoint from S]
    with |IN| = a, |OUT| = b: (each IN player's, each OUT player's)."""
    f = math.factorial
    w_in = f(a - 1) * f(b) / f(a + b) if a else 0.0
    w_out = -f(a) * f(b - 1) / f(a + b) if b else 0.0
    return w_in, w_out


def _add_tree_phi(tree: tr.RegressionTree, x: np.ndarray, background: np.ndarray,
                  col_player: np.ndarray, phi: np.ndarray) -> None:
    """Add one tree's interventional Shapley values to phi.

    For a background row z the game is S -> tree(x on S, z elsewhere). A
    walk from the root keeps, per group of background rows, the players
    that must be in S (IN) and out of S (OUT) to reach the node. At a
    split on an undecided player, rows routed like x pass unchanged, and
    the others fork: to x's child with the player in IN, to their own
    child with it in OUT. A decided player routes by x (IN) or by z (OUT).
    Each reached leaf is then a game of the _leaf_weights form, scaled by
    its value and its share of the background. Every row is in at most
    one group per node, so the cost is O(nodes x background rows).
    """
    n_bg = len(background)
    internal = np.nonzero(tree.feature >= 0)[0]
    feat = tree.feature[internal]
    thr = tree.threshold[internal]
    x_left = np.zeros(tree.n_nodes, dtype=bool)
    x_left[internal] = x[feat] <= thr
    bg_left = np.zeros((tree.n_nodes, n_bg), dtype=bool)
    bg_left[internal] = (background[:, feat] <= thr).T

    stack = [(0, np.arange(n_bg), (), ())]
    while stack:
        node, rows, ins, outs = stack.pop()
        f = tree.feature[node]
        if f < 0:
            if ins or outs:
                w_in, w_out = _leaf_weights(len(ins), len(outs))
                share = tree.value[node] * len(rows) / n_bg
                for p in ins:
                    phi[p] += share * w_in
                for p in outs:
                    phi[p] += share * w_out
            continue
        if x_left[node]:
            x_child, other = tree.left[node], tree.right[node]
        else:
            x_child, other = tree.right[node], tree.left[node]
        p = col_player[f]
        if p in ins:
            stack.append((x_child, rows, ins, outs))
            continue
        like_x = bg_left[node, rows] == x_left[node]
        same, diff = rows[like_x], rows[~like_x]
        if len(same):
            stack.append((x_child, same, ins, outs))
        if len(diff):
            if p in outs:
                stack.append((other, diff, ins, outs))
            else:
                stack.append((x_child, diff, ins + (p,), outs))
                stack.append((other, diff, ins, outs + (p,)))


def ensemble_shap(model: tr.Ensemble, x: np.ndarray, background: np.ndarray,
                  player_columns: list[list[int]]) -> np.ndarray:
    """Exact marginal Shapley values of a tree ensemble, one walk per tree.

    Equal to the 2^M masking enumeration over the same background and
    players, up to rounding; players no split uses get exactly 0.
    """
    from . import trees as tr  # each hook imports only its own learner
    col_player = np.empty(background.shape[1], dtype=np.int64)
    for p, cols in enumerate(player_columns):
        col_player[cols] = p
    phi = np.zeros(len(player_columns))
    for tree in model.trees:
        _add_tree_phi(tree, x, background, col_player, phi)
    if model.kind == tr.EnsembleKind.GBDT:
        return model.learning_rate * phi
    return phi / len(model.trees)


def linear_shap(model: en.LinearModel, x: np.ndarray, background: np.ndarray,
                player_columns: list[list[int]]) -> np.ndarray:
    """phi_g = sum over columns j of g of beta_j (x_j - background mean of x_j)."""
    contrib = model.coefficients * (x - background.mean(axis=0))
    return np.array([contrib[cols].sum() for cols in player_columns])


def mlp_coalition_values(model: nn.MLPModel, x: np.ndarray, background: np.ndarray,
                         player_columns: list[list[int]]) -> np.ndarray:
    """The marginalize game of an MLP on every coalition, in id order.

    The first layer is affine, so background row b with the players of S
    set to x has the pre-activations z(S, b) = b W + c + sum over g in S
    of D_g(b), where D_g(b) = (x_g - b_g) W_g. A table of z over every
    subset of the low k players is built by doubling, Z[2^i:2^(i+1)] =
    Z[:2^i] + D_i, and each block of 2^k ids is that table plus the sum
    of its high players' D_g; only the layers after the first run per
    coalition. Equal to the masking enumeration up to rounding.
    """
    from . import mlp as nn
    W, c = model.weights[0], model.biases[0]
    m, n_bg = len(player_columns), len(background)
    deltas = np.stack([(x[cols] - background[:, cols]) @ W[cols] for cols in player_columns])
    k = min(m, _CHUNK_BITS)
    table = np.empty((1 << k, n_bg, W.shape[1]))
    table[0] = background @ W + c
    for i in range(k):
        np.add(table[:1 << i], deltas[i], out=table[1 << i:2 << i])
    block = np.empty_like(table)
    values = np.empty(1 << m)
    for high in range(1 << (m - k)):
        shift = deltas[[k + j for j in range(m - k) if high >> j & 1]].sum(axis=0)
        np.add(table, shift, out=block)
        preds = nn.forward_from_first_layer(model, block.reshape(-1, W.shape[1]))
        values[high << k:(high + 1) << k] = preds.reshape(1 << k, n_bg).mean(axis=1)
    return values


def shap_for_dataset(vf, X, cap: int = DEFAULT_PLAYER_CAP) -> list[ShapAttribution]:
    X = np.asarray(X, dtype=float)
    return [exact_shap(vf, X[r], cap=cap) for r in range(len(X))]


def mean_abs_shap(attributions: list[ShapAttribution]) -> list[tuple[str, float]]:
    """(feature, mean |phi|) pairs, descending; ties keep feature order."""
    if not attributions:
        raise ValueError("mean_abs_shap requires at least one attribution")
    names = attributions[0].feature_names
    means = np.mean([np.abs(a.phi) for a in attributions], axis=0)
    order = np.argsort(-means, kind="stable")
    return [(names[i], float(means[i])) for i in order]


def players_from_design(design: DesignMatrix) -> tuple[tuple[str, ...], list[list[int]]]:
    """Numeric columns as singleton players, each one-hot block as one player."""
    grouped = {c for cols in design.groups.values() for c in cols}
    names: list[str] = []
    columns: list[list[int]] = []
    for c, name in enumerate(design.column_names):
        if c not in grouped:
            names.append(name)
            columns.append([c])
    for group, cols in design.groups.items():
        names.append(group)
        columns.append(list(cols))
    return tuple(names), columns


def sample_background(X: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Seeded uniform sample of at most `size` rows (the whole set if smaller)."""
    if len(X) <= size:
        return np.asarray(X, dtype=float).copy()
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    idx = rng.choice(len(X), size=size, replace=False)
    return np.asarray(X, dtype=float)[np.sort(idx)]


def write_mean_abs_csv(path: str | Path, ranking: list[tuple[str, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_abs_shap"])
        for name, value in ranking:
            writer.writerow([name, repr(value)])


def write_values_csv(path: str | Path, attributions: list[ShapAttribution],
                     X: np.ndarray, player_columns: list[list[int]]) -> None:
    """Per-row (feature value, phi) pairs for beeswarm-style plots.

    Multi-column players (one-hot blocks) have no scalar value; the value
    cell is left empty for those.
    """
    X = np.asarray(X, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "feature", "value", "phi"])
        for r, attr in enumerate(attributions):
            for i, name in enumerate(attr.feature_names):
                cols = player_columns[i]
                value = repr(float(X[r, cols[0]])) if len(cols) == 1 else ""
                writer.writerow([r, name, value, repr(float(attr.phi[i]))])
