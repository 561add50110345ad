"""Uniform fit/predict/export contract shared by every model family.

The tuner, serializer and CLI only ever talk to ModelFamily entries, so
all five learners plus the benchmark are interchangeable behind this
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from . import elastic_net as en
from . import metrics as me
from . import mlp as nn
from . import shap_exact as sh
from . import trees as tr


@dataclass(frozen=True)
class ModelFamily:
    name: str
    display_name: str
    param_names: frozenset
    fit: Callable[[np.ndarray, np.ndarray, Mapping, int], Any]
    predict: Callable[[Any, np.ndarray], np.ndarray]
    export: Callable[[Any], dict]
    restore: Callable[[dict, int], Any]  # (params, design column count)
    importance: Callable[[Any, int], np.ndarray | None]
    # exact marginal SHAP in polynomial time:
    # (model, x, background, player_columns) -> phi; None enumerates 2^M
    shap_solver: Callable[[Any, np.ndarray, np.ndarray, list[list[int]]],
                          np.ndarray] | None = None


def _tree_to_dict(tree: tr.RegressionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
        "n_samples": tree.n_samples.tolist(),
        "gain": tree.gain.tolist(),
    }


def _tree_from_dict(raw: dict, n_columns: int, where: str) -> tr.RegressionTree:
    """Restore one node arena, rejecting any arena that is not a tree.

    Children must come after their parent (which rules out cycles, so
    every walk from the root ends at a leaf), leaves carry feature -1 and
    children -1, and split features index the design's n_columns columns.
    The ValueError names the field and the first offending node.
    """
    ints = {name: np.asarray(raw[name], dtype=np.int64)
            for name in ("feature", "left", "right")}
    n = len(ints["feature"])
    if n == 0:
        raise ValueError(f"{where} has no nodes")
    for name in ("threshold", "left", "right", "value", "n_samples", "gain"):
        if len(raw[name]) != n:
            raise ValueError(f"{where}.{name} has {len(raw[name])} entries, "
                             f"feature has {n}")
    feature, left, right = ints["feature"], ints["left"], ints["right"]
    node = np.arange(n)
    leaf = feature < 0
    checks = (
        ("feature", leaf & (feature != -1), "must be -1 at a leaf"),
        ("feature", feature >= n_columns,
         f"must be below the {n_columns} design columns"),
        ("left", leaf & (left != -1), "must be -1 at a leaf"),
        ("right", leaf & (right != -1), "must be -1 at a leaf"),
        ("left", ~leaf & ((left <= node) | (left >= n)),
         f"must be a node after its parent and below {n}"),
        ("right", ~leaf & ((right <= node) | (right >= n)),
         f"must be a node after its parent and below {n}"),
    )
    for name, bad, rule in checks:
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{where}.{name}[{i}] = {ints[name][i]} {rule}")
    return tr.RegressionTree(
        feature=feature.astype(np.int32),
        threshold=np.asarray(raw["threshold"], dtype=float),
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        value=np.asarray(raw["value"], dtype=float),
        n_samples=np.asarray(raw["n_samples"], dtype=np.int64),
        gain=np.asarray(raw["gain"], dtype=float),
    )


def _ensemble_export(model: tr.Ensemble) -> dict:
    return {
        "kind": model.kind.value,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "trees": [_tree_to_dict(t) for t in model.trees],
    }


def _ensemble_restore(raw: dict, n_columns: int) -> tr.Ensemble:
    return tr.Ensemble(
        kind=tr.EnsembleKind(raw["kind"]),
        base_score=raw["base_score"],
        learning_rate=raw["learning_rate"],
        trees=tuple(_tree_from_dict(t, n_columns, f"trees[{i}]")
                    for i, t in enumerate(raw["trees"])),
    )


def _fit_benchmark(X, y, params, seed):
    return me.fit_benchmark(y)


def _fit_elastic_net(X, y, params, seed):
    return en.fit_elastic_net(X, y, en.ElasticNetConfig(**params))


def _fit_random_forest(X, y, params, seed):
    return tr.fit_random_forest(X, y, tr.RFConfig(seed=seed, **params))


def _fit_gbdt(X, y, params, seed):
    return tr.fit_gbdt(X, y, tr.GBDTConfig(seed=seed, **params))


def _fit_gbdt_goss(X, y, params, seed):
    params = dict(params)
    goss = tr.GossConfig(top_rate=params.pop("top_rate", 0.2),
                         other_rate=params.pop("other_rate", 0.1))
    return tr.fit_gbdt(X, y, tr.GBDTConfig(seed=seed, goss=goss, **params))


def _fit_mlp(X, y, params, seed):
    params = dict(params)
    if "hidden_layers" in params:
        params["hidden_layers"] = tuple(params["hidden_layers"])
    if params.get("early_stop") is not None:
        params["early_stop"] = nn.EarlyStopConfig(**params["early_stop"])
    model, _ = nn.fit_mlp(X, y, nn.MLPConfig(seed=seed, **params))
    return model


def _mlp_export(model: nn.MLPModel) -> dict:
    return {
        "activation": model.config.activation,
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def _mlp_restore(raw: dict, n_columns: int) -> nn.MLPModel:
    weights = tuple(np.asarray(W, dtype=float) for W in raw["weights"])
    if len(weights[0]) != n_columns:
        raise ValueError(f"weights[0] has {len(weights[0])} input rows, "
                         f"the design has {n_columns} columns")
    cfg = nn.MLPConfig(hidden_layers=tuple(W.shape[1] for W in weights[:-1]),
                       activation=raw["activation"])
    return nn.MLPModel(
        weights=weights,
        biases=tuple(np.asarray(b, dtype=float) for b in raw["biases"]),
        config=cfg)


def _linear_export(model: en.LinearModel) -> dict:
    return {"intercept": model.intercept,
            "coefficients": model.coefficients.tolist(),
            "sweeps_used": model.sweeps_used}


def _linear_restore(raw: dict, n_columns: int) -> en.LinearModel:
    coefficients = np.asarray(raw["coefficients"], dtype=float)
    if len(coefficients) != n_columns:
        raise ValueError(f"coefficients has {len(coefficients)} entries, "
                         f"the design has {n_columns} columns")
    return en.LinearModel(
        intercept=raw["intercept"],
        coefficients=coefficients,
        config=en.ElasticNetConfig(), sweeps_used=raw["sweeps_used"])


_GBDT_PARAMS = frozenset({"n_trees", "learning_rate", "max_depth", "min_child_weight",
                          "reg_lambda", "gamma", "n_bins"})

FAMILIES: dict[str, ModelFamily] = {
    "benchmark": ModelFamily(
        name="benchmark", display_name="Benchmarking",
        param_names=frozenset(),
        fit=_fit_benchmark,
        predict=lambda m, X: m.predict(X),
        export=lambda m: {"constant": m.constant},
        restore=lambda raw, n_columns: me.BenchmarkModel(constant=raw["constant"]),
        importance=lambda m, p: None,
    ),
    "elastic_net": ModelFamily(
        name="elastic_net", display_name="Linear Regression",
        param_names=frozenset({"lam", "alpha", "tol", "max_iter", "standardize_internally"}),
        fit=_fit_elastic_net,
        predict=en.predict_linear,
        export=_linear_export,
        restore=_linear_restore,
        importance=lambda m, p: np.abs(m.coefficients),
        shap_solver=sh.linear_shap,
    ),
    "random_forest": ModelFamily(
        name="random_forest", display_name="Random Forest",
        param_names=frozenset({"n_trees", "max_depth", "min_samples_leaf",
                               "max_features", "bootstrap", "n_bins"}),
        fit=_fit_random_forest,
        predict=tr.predict_ensemble,
        export=_ensemble_export,
        restore=_ensemble_restore,
        importance=tr.total_gain_importance,
        shap_solver=sh.ensemble_shap,
    ),
    "gbdt": ModelFamily(
        name="gbdt", display_name="GBDT",
        param_names=_GBDT_PARAMS,
        fit=_fit_gbdt,
        predict=tr.predict_ensemble,
        export=_ensemble_export,
        restore=_ensemble_restore,
        importance=tr.total_gain_importance,
        shap_solver=sh.ensemble_shap,
    ),
    "gbdt_goss": ModelFamily(
        name="gbdt_goss", display_name="GBDT (GOSS)",
        param_names=_GBDT_PARAMS | {"top_rate", "other_rate"},
        fit=_fit_gbdt_goss,
        predict=tr.predict_ensemble,
        export=_ensemble_export,
        restore=_ensemble_restore,
        importance=tr.total_gain_importance,
        shap_solver=sh.ensemble_shap,
    ),
    "mlp": ModelFamily(
        name="mlp", display_name="MLP",
        param_names=frozenset({"hidden_layers", "activation", "learning_rate",
                               "batch_size", "max_epochs", "l2_penalty",
                               "momentum", "early_stop"}),
        fit=_fit_mlp,
        predict=nn.predict_mlp,
        export=_mlp_export,
        restore=_mlp_restore,
        importance=lambda m, p: None,
    ),
}

TUNABLE_FAMILIES = ("elastic_net", "random_forest", "gbdt", "gbdt_goss", "mlp")


def get_family(name: str) -> ModelFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model family {name!r}; "
                         f"known: {sorted(FAMILIES)}") from None
