"""Uniform fit/predict/export contract shared by every model family.

The tuner, serializer and CLI only ever talk to ModelFamily entries, so
all five learners plus the benchmark are interchangeable behind this
registry, the one module that knows about individual families. An entry
holds the names of the family and its hyperparameters (the fields of its
learner's config dataclasses), fit/predict/export/restore/importance, an
optional exact SHAP solver or maskless coalition values, its default
tuning grid (the entries with one are the tunable families), whether
retrain SHAP may refit it, and an optional fit_fold hook. fit_fold fits
all the configs of one CV fold, given the seed fit would get for each,
and yields their fitted models, sharing the work that no config changes;
each model must equal fit's for that config and seed, bit for bit. The
tuner predicts with every model.
Elastic net has one (one Gram matrix per fold), so has the MLP (the
configs of one architecture train in lockstep on stacked weights), and so
has plain GBDT (one boosting run per setting of the other axes, whose
prefixes serve every smaller n_trees). The tuner fits each config of the
random forest and GOSS on its own: their fit seed is keyed on the config's
grid index, so no config's fit is a prefix of another's.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

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
    # the marginalize game on all 2^M coalitions without masking:
    # (model, x, background, player_columns) -> v in coalition id order;
    # None masks the background and predicts
    shap_coalitions: Callable[[Any, np.ndarray, np.ndarray, list[list[int]]],
                              np.ndarray] | None = None
    # axis name -> values; None: not tunable
    default_grid: Mapping[str, list] | None = None
    cheap_refit: bool = False
    # (X_train, y_train, configs, seeds) -> the fitted model of each
    # config, in order, from work shared across them; seeds[i] is the seed
    # fit would get for configs[i]. None: the tuner fits each config on its own
    fit_fold: Callable[[np.ndarray, np.ndarray, Sequence[Mapping], Sequence[int]],
                       Iterator[Any]] | None = None


def _param_names(*configs: type) -> frozenset:
    """The fields of a learner's config dataclasses, less the run seed and
    the nested GOSS config, which fit sets itself."""
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


def _fit_benchmark(X, y, params, seed):
    return me.fit_benchmark(y)


def _fit_elastic_net(X, y, params, seed):
    return en.fit_elastic_net(X, y, en.ElasticNetConfig(**params))


def _elastic_net_fold(X_train, y_train, configs, seeds):
    """One set-up per standardize_internally value, then each config's
    descent; the fits equal _fit_elastic_net's bit for bit. Elastic net
    draws no randomness, so the seeds go unused."""
    setups = {}
    for params in configs:
        cfg = en.ElasticNetConfig(**params)
        flag = bool(cfg.standardize_internally)
        if flag not in setups:
            setups[flag] = en.prepare_fit(X_train, y_train, flag)
        yield en.fit_elastic_net(X_train, y_train, cfg, setup=setups[flag])


def _fit_random_forest(X, y, params, seed):
    return tr.fit_random_forest(X, y, tr.RFConfig(seed=seed, **params))


def _fit_gbdt(X, y, params, seed):
    return tr.fit_gbdt(X, y, tr.GBDTConfig(seed=seed, **params))


def _gbdt_fold(X_train, y_train, configs, seeds):
    """Configs that differ only in n_trees share one boosting run at the
    largest of their n_trees, fit when the first of them is due and dropped
    after the last, and each gets the prefix of its own length. Plain GBDT
    draws no randomness and adds its trees in order, so a prefix equals
    _fit_gbdt's fit bit for bit and the seeds go unused. A config that is
    invalid raises at its own place in the order, after the configs before
    it have yielded."""
    order, longest, last = [], {}, {}
    for i, (params, seed) in enumerate(zip(configs, seeds)):
        try:
            cfg = tr.GBDTConfig(seed=seed, **params)
        except (TypeError, ValueError) as exc:
            order.append(exc)
            continue
        # repr tells 1 from 1.0 and 0.0 from -0.0, which a model may keep;
        # a non-integer n_trees cuts no prefix, so it fits alone
        key = repr(replace(cfg, n_trees=0, seed=0)) if type(cfg.n_trees) is int else i
        order.append((key, cfg.n_trees))
        if key not in longest or cfg.n_trees > longest[key].n_trees:
            longest[key] = cfg
        last[key] = i
    fits = {}
    for i, entry in enumerate(order):
        if isinstance(entry, Exception):
            raise entry
        key, n_trees = entry
        if key not in fits:
            fits[key] = tr.fit_gbdt(X_train, y_train, longest[key])
        model = fits.pop(key) if last[key] == i else fits[key]
        yield model if len(model.trees) == n_trees else replace(model, trees=model.trees[:n_trees])


def _fit_gbdt_goss(X, y, params, seed):
    params = dict(params)
    goss = tr.GossConfig(top_rate=params.pop("top_rate", 0.2),
                         other_rate=params.pop("other_rate", 0.1))
    return tr.fit_gbdt(X, y, tr.GBDTConfig(seed=seed, goss=goss, **params))


def _mlp_config(params, seed) -> nn.MLPConfig:
    params = dict(params)
    if "hidden_layers" in params:
        params["hidden_layers"] = tuple(params["hidden_layers"])
    if params.get("early_stop") is not None:
        params["early_stop"] = nn.EarlyStopConfig(**params["early_stop"])
    return nn.MLPConfig(seed=seed, **params)


def _fit_mlp(X, y, params, seed):
    model, _ = nn.fit_mlp(X, y, _mlp_config(params, seed))
    return model


def _mlp_fold(X_train, y_train, configs, seeds):
    """Configs that share layer widths, batch size and training-row count
    train as one lockstep stack; the fits equal _fit_mlp's bit for bit. A
    config that is invalid or diverges raises at its own place in the
    order, after the configs before it have yielded."""
    outcomes = {}
    groups = {}
    for i, (params, seed) in enumerate(zip(configs, seeds)):
        try:
            cfg = _mlp_config(params, seed)
            key = nn.lockstep_key(cfg, len(y_train))
        except (TypeError, ValueError) as exc:
            outcomes[i] = exc
            continue
        groups.setdefault(key, []).append((i, cfg))
    for members in groups.values():
        fits = nn.fit_lockstep(X_train, y_train, [cfg for _, cfg in members])
        outcomes.update((i, fit) for (i, _), fit in zip(members, fits))
    for i in range(len(configs)):
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
# 2000 / 40). Contents are run-config defaults, not contracts.
FAMILIES: dict[str, ModelFamily] = {
    "benchmark": ModelFamily(
        name="benchmark", display_name="Benchmarking",
        param_names=frozenset(),
        fit=_fit_benchmark,
        predict=lambda m, X: m.predict(X),
        export=lambda m: {"constant": m.constant},
        restore=lambda raw, n_columns: me.BenchmarkModel(
            constant=float(_numbers(raw["constant"], "constant", ndim=0))),
        importance=lambda m, p: None,
        cheap_refit=True,
    ),
    "elastic_net": ModelFamily(
        name="elastic_net", display_name="Linear Regression",
        param_names=_param_names(en.ElasticNetConfig),
        fit=_fit_elastic_net,
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
    "random_forest": ModelFamily(
        name="random_forest", display_name="Random Forest",
        param_names=_param_names(tr.RFConfig),
        fit=_fit_random_forest,
        predict=tr.predict_ensemble,
        export=_ensemble_export,
        restore=_ensemble_restore,
        importance=tr.total_gain_importance,
        shap_solver=sh.ensemble_shap,
        default_grid={
            "n_trees": [100, 200, 300, 400, 500],
            "max_depth": [4, 6, 8, 10],
            "min_samples_leaf": [1, 2, 4],
            "max_features": [3, 5, 7, 11],
        },  # 240 configs
    ),
    "gbdt": ModelFamily(
        name="gbdt", display_name="GBDT",
        param_names=_param_names(tr.GBDTConfig),
        fit=_fit_gbdt,
        predict=tr.predict_ensemble,
        export=_ensemble_export,
        restore=_ensemble_restore,
        importance=tr.total_gain_importance,
        shap_solver=sh.ensemble_shap,
        default_grid={
            "n_trees": [100, 200, 300, 400],
            "learning_rate": [0.01, 0.05, 0.1, 0.2],
            "max_depth": [3, 4, 5, 6],
            "min_child_weight": [1.0, 3.0, 5.0],
            "reg_lambda": [0.0, 0.5, 1.0],
            "gamma": [0.0, 0.1],
        },  # 1152 configs
        fit_fold=_gbdt_fold,
    ),
    "gbdt_goss": ModelFamily(
        name="gbdt_goss", display_name="GBDT (GOSS)",
        param_names=_param_names(tr.GBDTConfig, tr.GossConfig),
        fit=_fit_gbdt_goss,
        predict=tr.predict_ensemble,
        export=_ensemble_export,
        restore=_ensemble_restore,
        importance=tr.total_gain_importance,
        shap_solver=sh.ensemble_shap,
        default_grid={
            "n_trees": [100, 200, 300, 400, 500],
            "learning_rate": [0.01, 0.05, 0.1, 0.2],
            "max_depth": [3, 4, 5, 6],
            "top_rate": [0.1, 0.2, 0.3, 0.4, 0.5],
        },  # 400 configs
    ),
    "mlp": ModelFamily(
        name="mlp", display_name="MLP",
        param_names=_param_names(nn.MLPConfig),
        fit=_fit_mlp,
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

TUNABLE_FAMILIES = tuple(name for name, family in FAMILIES.items()
                         if family.default_grid is not None)


def get_family(name: str) -> ModelFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model family {name!r}; "
                         f"known: {sorted(FAMILIES)}") from None
