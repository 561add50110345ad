"""Uniform fit/predict/export contract shared by every model family.

The tuner, serializer and CLI only ever talk to ModelFamily entries, so
the five learners (the constant-mean benchmark row is none of them) are
interchangeable behind this registry, the one module that knows about
individual families. An entry holds the names of the family and its
hyperparameters (the fields of its learner's config dataclasses), a
config builder that turns a params dict and a fit seed into the learner's
config, fit/predict/export/restore/importance, its default tuning grid,
its fit_fold hook, exactly one SHAP hook (an exact solver or maskless
coalition values), whether retrain SHAP may refit it, and an optional
prefix axis. The tuner fits each CV fold in one task through fit_fold.
It builds every config of the fold before any fit, so the hook takes
only valid built configs; it yields their fitted models, sharing the
work that no config changes, and each model must equal fit's for that
config, bit for bit. Elastic net shares one Gram matrix per fold, the
MLP trains the configs of one architecture in lockstep on stacked
weights, and each tree ensemble fits once per setting of the other axes,
whose prefixes serve every smaller n_trees.
An ensemble draws tree i from the i-th spawned child of its fit seed, so
under one seed the first k trees of a longer fit are the k-tree fit; its
entry names n_trees as its prefix_axis, and the tuner keys the fit seed
on the config without that axis, so such configs share a seed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from . import elastic_net as en
from . import mlp as nn
from . import shap_exact as sh
from . import trees as tr


@dataclass(frozen=True)
class ModelFamily:
    name: str
    display_name: str
    param_names: frozenset
    # (params, fit seed) -> the learner's config; raises on an invalid one
    config: Callable[[Mapping, int], Any]
    fit: Callable[[np.ndarray, np.ndarray, Any], Any]  # (X, y, built config)
    predict: Callable[[Any, np.ndarray], np.ndarray]
    export: Callable[[Any], dict]
    restore: Callable[[dict, int], Any]  # (params, design column count)
    importance: Callable[[Any, int], np.ndarray | None]
    default_grid: Mapping[str, list]  # axis name -> values
    # (X_train, y_train, built configs) -> the fitted model of each config,
    # in order, from work shared across them
    fit_fold: Callable[[np.ndarray, np.ndarray, Sequence[Any]], Iterator[Any]]
    # exactly one of the two SHAP hooks is set. Exact marginal SHAP in
    # polynomial time: (model, x, background, player_columns) -> phi
    shap_solver: Callable[[Any, np.ndarray, np.ndarray, list[list[int]]],
                          np.ndarray] | None = None
    # the marginalize game on all 2^M coalitions without masking:
    # (model, x, background, player_columns) -> v in coalition id order
    shap_coalitions: Callable[[Any, np.ndarray, np.ndarray, list[list[int]]],
                              np.ndarray] | None = None
    cheap_refit: bool = False
    # the axis the tuner leaves out of a config's fit-seed key, so configs
    # that differ only on it share a seed (and fit_fold can share their fit)
    prefix_axis: str | None = None


def _param_names(*configs: type) -> frozenset:
    """The fields of a learner's config dataclasses, less the run seed and
    the nested GOSS config, which the config builder sets itself."""
    return frozenset(f.name for config in configs
                     for f in fields(config)) - {"seed", "goss"}


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


def _numbers(value, field: str, ndim: int = 1, integral: bool = False,
             finite: bool = True) -> np.ndarray:
    """value as an ndim-dimensional float array (ndim 0: one number) of
    finite numbers, of integers too with integral=True (then an int64
    array), or with finite=False of any numbers, NaN and infinities
    included. Each entry must be a number: a string, a bool or JSON null
    is a ValueError naming the bundle field, as is any other shape."""
    kind = "a number" if ndim == 0 else f"a {ndim}-d array of numbers"
    try:
        cells = np.asarray(value, dtype=object)
    except ValueError:
        cells = None
    if cells is None or cells.ndim != ndim:
        raise ValueError(f"{field} must be {kind}")
    types = set(map(type, cells.ravel().tolist()))
    if type(None) in types:
        raise ValueError(f"{field} must be {kind}, " + ("all finite" if finite else "not null"))
    if not all(t is not bool and issubclass(t, numbers.Real) for t in types):
        raise ValueError(f"{field} must be {kind}")
    try:
        out = cells.astype(float)
    except OverflowError:  # an integer beyond the doubles
        out = None
    if out is None or finite and not np.isfinite(out).all():
        raise ValueError(f"{field} must be {kind}, all finite")
    if integral:
        if not (out == np.round(out)).all() or not (np.abs(out) < 2.0**63).all():
            raise ValueError(f"{field} must be {kind}, all integers")
        out = out.astype(np.int64)
    return out


def _tree_from_dict(raw: dict, n_columns: int, where: str) -> tr.RegressionTree:
    """Restore one node arena, rejecting any arena that is not a tree.

    Children must come after their parent (which rules out cycles, so
    every walk from the root ends at a leaf), leaves carry feature -1 and
    children -1, and split features index the design's n_columns columns.
    The ValueError names the field and the first offending node.
    """
    ints = ("feature", "left", "right", "n_samples")
    # a leaf's threshold is NaN; a split's must be finite (checked below)
    arrays = {name: _numbers(raw[name], f"{where}.{name}", integral=name in ints,
                             finite=name != "threshold")
              for name in ("feature", "threshold", "left", "right", "value", "n_samples", "gain")}
    n = len(arrays["feature"])
    if n == 0:
        raise ValueError(f"{where} has no nodes")
    for name, array in arrays.items():
        if len(array) != n:
            raise ValueError(f"{where}.{name} has {len(array)} entries, feature has {n}")
    feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
    node = np.arange(n)
    leaf = feature < 0
    checks = (
        ("feature", leaf & (feature != -1), "must be -1 at a leaf"),
        ("feature", feature >= n_columns,
         f"must be below the {n_columns} design columns"),
        ("threshold", ~leaf & ~np.isfinite(arrays["threshold"]), "must be finite at a split"),
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
            raise ValueError(f"{where}.{name}[{i}] = {arrays[name][i]} {rule}")
    return tr.RegressionTree(
        feature=feature.astype(np.int32),
        threshold=arrays["threshold"],
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        value=arrays["value"],
        n_samples=arrays["n_samples"],
        gain=arrays["gain"],
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
        base_score=float(_numbers(raw["base_score"], "base_score", ndim=0)),
        learning_rate=float(_numbers(raw["learning_rate"], "learning_rate", ndim=0)),
        trees=tuple(_tree_from_dict(t, n_columns, f"trees[{i}]")
                    for i, t in enumerate(raw["trees"])),
    )


def _elastic_net_fold(X_train, y_train, cfgs):
    """One set-up per standardize_internally value, then each config's
    descent; the fits equal fit_elastic_net's without a set-up, bit for bit."""
    setups = {}
    for cfg in cfgs:
        flag = cfg.standardize_internally
        if flag not in setups:
            setups[flag] = en.prepare_fit(X_train, y_train, flag)
        yield en.fit_elastic_net(X_train, y_train, cfg, setup=setups[flag])


def _prefix_fold(fit):
    """A fit_fold hook for an ensemble learner ``fit`` whose tree i depends
    only on its seed, its config and the trees before it.

    Configs that differ only in n_trees share one fit at the largest of
    their n_trees, fit when the first of them is due and dropped after the
    last, and each gets the prefix of its own length, which equals fit's
    fit of that length bit for bit. The seed is part of the group key, so
    only configs with one fit seed share a fit.
    """
    def fit_fold(X_train, y_train, cfgs):
        keys, longest, last = [], {}, {}
        for i, cfg in enumerate(cfgs):
            # repr tells 1 from 1.0 and 0.0 from -0.0, which a model may
            # keep; n_trees=1 since a forest rejects 0
            key = repr(replace(cfg, n_trees=1))
            keys.append(key)
            if key not in longest or cfg.n_trees > longest[key].n_trees:
                longest[key] = cfg
            last[key] = i
        fits = {}
        for i, (key, cfg) in enumerate(zip(keys, cfgs)):
            if key not in fits:
                fits[key] = fit(X_train, y_train, longest[key])
            model = fits.pop(key) if last[key] == i else fits[key]
            n_trees = cfg.n_trees
            yield model if len(model.trees) == n_trees else replace(model, trees=model.trees[:n_trees])
    return fit_fold


def _ensemble_family(fit, **entry) -> ModelFamily:
    """A tree-ensemble entry: its learner ``fit``, shared through the
    n_trees prefix hook, and the ensemble predict, bundle, importance and
    TreeSHAP functions."""
    return ModelFamily(fit=fit, fit_fold=_prefix_fold(fit), prefix_axis="n_trees",
                       predict=tr.predict_ensemble, export=_ensemble_export,
                       restore=_ensemble_restore, importance=tr.total_gain_importance,
                       shap_solver=sh.ensemble_shap, **entry)


def _goss_config(params, seed) -> tr.GBDTConfig:
    params = dict(params)
    rates = {name: params.pop(name) for name in ("top_rate", "other_rate") if name in params}
    return tr.GBDTConfig(seed=seed, goss=tr.GossConfig(**rates), **params)


def _mlp_config(params, seed) -> nn.MLPConfig:
    params = dict(params)
    if "hidden_layers" in params:
        params["hidden_layers"] = tuple(params["hidden_layers"])
    if params.get("early_stop") is not None:
        params["early_stop"] = nn.EarlyStopConfig(**params["early_stop"])
    return nn.MLPConfig(seed=seed, **params)


def _mlp_fold(X_train, y_train, cfgs):
    """Configs that share layer widths, batch size and training-row count
    train as one lockstep stack; the fits equal fit_mlp's bit for bit. A
    config with no training rows, or one that diverges, raises at its own
    place in the order, after the configs before it have yielded."""
    outcomes, groups = {}, {}
    for i, cfg in enumerate(cfgs):
        try:
            groups.setdefault(nn.lockstep_key(cfg, len(y_train)), []).append(i)
        except ValueError as exc:
            outcomes[i] = exc
    for members in groups.values():
        fits = nn.fit_lockstep(X_train, y_train, [cfgs[i] for i in members])
        outcomes.update(zip(members, fits))
    for i in range(len(cfgs)):
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
        yield outcomes[i][0]


def _mlp_export(model: nn.MLPModel) -> dict:
    return {
        "activation": model.config.activation,
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def _mlp_restore(raw: dict, n_columns: int) -> nn.MLPModel:
    weights = tuple(_numbers(W, f"weights[{i}]", ndim=2) for i, W in enumerate(raw["weights"]))
    biases = tuple(_numbers(b, f"biases[{i}]") for i, b in enumerate(raw["biases"]))
    if not weights or len(biases) != len(weights):
        raise ValueError(f"weights has {len(weights)} layers, biases has {len(biases)}; "
                         f"they need the same number, at least 1")
    widths = [n_columns, *(W.shape[1] for W in weights)]
    for i, (W, b) in enumerate(zip(weights, biases)):
        if len(W) != widths[i]:
            feeds = "the design" if i == 0 else f"weights[{i - 1}]"
            raise ValueError(f"weights[{i}] has {len(W)} input rows, "
                             f"{feeds} has {widths[i]} columns")
        if len(b) != W.shape[1]:
            raise ValueError(f"biases[{i}] has {len(b)} entries, "
                             f"weights[{i}] has {W.shape[1]} columns")
    if widths[-1] != 1:
        raise ValueError(f"weights[{len(weights) - 1}] has {widths[-1]} columns, "
                         f"the output layer needs 1")
    cfg = nn.MLPConfig(hidden_layers=tuple(widths[1:-1]), activation=raw["activation"])
    return nn.MLPModel(weights=weights, biases=biases, config=cfg)


def _linear_export(model: en.LinearModel) -> dict:
    return {"intercept": model.intercept,
            "coefficients": model.coefficients.tolist(),
            "sweeps_used": model.sweeps_used}


def _linear_restore(raw: dict, n_columns: int) -> en.LinearModel:
    coefficients = _numbers(raw["coefficients"], "coefficients")
    if len(coefficients) != n_columns:
        raise ValueError(f"coefficients has {len(coefficients)} entries, "
                         f"the design has {n_columns} columns")
    sweeps_used = int(_numbers(raw["sweeps_used"], "sweeps_used", ndim=0, integral=True))
    if sweeps_used < 0:
        raise ValueError(f"sweeps_used = {sweeps_used} must be >= 0")
    return en.LinearModel(
        intercept=float(_numbers(raw["intercept"], "intercept", ndim=0)),
        coefficients=coefficients,
        config=en.ElasticNetConfig(), sweeps_used=sweeps_used)


# The default grids are sized so that config count x 5 folds lands on the
# per-family fit budgets used for the timing summaries (150 / 1200 / 5760 /
# 2000 / 40). Contents are run-config defaults, not contracts. Each fit looks
# its learner up on the learner's module when it runs, so a patched module
# function is the one that runs.
FAMILIES: dict[str, ModelFamily] = {
    "elastic_net": ModelFamily(
        name="elastic_net", display_name="Linear Regression",
        param_names=_param_names(en.ElasticNetConfig),
        config=lambda params, seed: en.ElasticNetConfig(**params),
        fit=lambda X, y, cfg: en.fit_elastic_net(X, y, cfg),
        predict=en.predict_linear,
        export=_linear_export,
        restore=_linear_restore,
        importance=lambda m, p: np.abs(m.coefficients),
        shap_solver=sh.linear_shap,
        default_grid={
            "lam": list(en.DEFAULT_LAMBDA_GRID),
            "alpha": list(en.DEFAULT_ALPHA_GRID),
        },  # 30 configs
        cheap_refit=True,
        fit_fold=_elastic_net_fold,
    ),
    # each ensemble grid lists n_trees last, so each prefix group's configs
    # are adjacent and the hook holds one longest fit at a time
    "random_forest": _ensemble_family(
        name="random_forest", display_name="Random Forest",
        param_names=_param_names(tr.RFConfig),
        config=lambda params, seed: tr.RFConfig(seed=seed, **params),
        fit=lambda X, y, cfg: tr.fit_random_forest(X, y, cfg),
        default_grid={
            "max_depth": [4, 6, 8, 10],
            "min_samples_leaf": [1, 2, 4],
            "max_features": [3, 5, 7, 11],
            "n_trees": [100, 200, 300, 400, 500],
        },  # 240 configs
    ),
    "gbdt": _ensemble_family(
        name="gbdt", display_name="GBDT",
        param_names=_param_names(tr.GBDTConfig),
        config=lambda params, seed: tr.GBDTConfig(seed=seed, **params),
        fit=lambda X, y, cfg: tr.fit_gbdt(X, y, cfg),
        default_grid={
            "learning_rate": [0.01, 0.05, 0.1, 0.2],
            "max_depth": [3, 4, 5, 6],
            "min_child_weight": [1.0, 3.0, 5.0],
            "reg_lambda": [0.0, 0.5, 1.0],
            "gamma": [0.0, 0.1],
            "n_trees": [100, 200, 300, 400],
        },  # 1152 configs
    ),
    "gbdt_goss": _ensemble_family(
        name="gbdt_goss", display_name="GBDT (GOSS)",
        param_names=_param_names(tr.GBDTConfig, tr.GossConfig),
        config=_goss_config,
        fit=lambda X, y, cfg: tr.fit_gbdt(X, y, cfg),
        default_grid={
            "learning_rate": [0.01, 0.05, 0.1, 0.2],
            "max_depth": [3, 4, 5, 6],
            "top_rate": [0.1, 0.2, 0.3, 0.4, 0.5],
            "n_trees": [100, 200, 300, 400, 500],
        },  # 400 configs
    ),
    "mlp": ModelFamily(
        name="mlp", display_name="MLP",
        param_names=_param_names(nn.MLPConfig),
        config=_mlp_config,
        fit=lambda X, y, cfg: nn.fit_mlp(X, y, cfg)[0],
        predict=nn.predict_mlp,
        export=_mlp_export,
        restore=_mlp_restore,
        importance=lambda m, p: None,
        shap_coalitions=sh.mlp_coalition_values,
        default_grid={
            "hidden_layers": [[32], [64], [64, 32], [128, 64]],
            "activation": ["relu", "tanh"],
        },  # 8 configs
        fit_fold=_mlp_fold,
    ),
}


def get_family(name: str) -> ModelFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model family {name!r}; "
                         f"known: {sorted(FAMILIES)}") from None
