"""Uniform fit/predict/restore contract shared by every model family.

The tuner, serializer and CLI only ever talk to ModelFamily entries, so
the five learners (the constant-mean benchmark row is none of them) are
interchangeable behind this registry, the one module that knows about
individual families. An entry holds the names of the family and its
hyperparameters (the fields of its learner's config dataclasses), a
config builder that turns a params dict and a fit seed into the learner's
config, fit/predict/restore/importance, its default tuning grid,
its fit_folds hook, exactly one SHAP hook (an exact solver or maskless
coalition values), whether retrain SHAP may refit it, and an optional
prefix axis. A tuner task is a chunk of CV folds, fit through
fit_folds. The tuner builds every (config, fold) config of the chunk
before any fit, so the hook takes only valid built configs; it yields
their fitted models, fold by fold, sharing the work that no config
changes. Each model of a tree ensemble or the MLP must equal fit's for
that config on that fold's rows, bit for bit. An elastic-net model is
instead fit_elastic_net's from its fold's own set-up (prepare_folds), bit
for bit, and that set-up is prepare_fit's on the fold's rows to rounding,
so the model is a lone fit's to rounding. Either way a model depends on
its config and its fold's rows alone, never on the chunk. Every hook is
one grouped rule (_grouped_folds) given a family's group key and group
fit: elastic net builds every fold's set-up (the Gram matrix) per
standardize_internally value from one pass over the design, the MLP
trains the configs of one architecture in lockstep on stacked weights
across every fold of the chunk, and each tree ensemble fits once per fold
and setting of the other axes, whose prefixes serve every smaller n_trees.
An ensemble draws tree i from the i-th spawned child of its fit seed, so
under one seed the first k trees of a longer fit are the k-tree fit; its
entry names n_trees as its prefix_axis, and the tuner keys the fit seed
on the config without that axis, so such configs share a seed.

The registry is built on first use, entry by entry. FAMILY_NAMES, each
family's display name and hyperparameter names, loads without any
learner, so the stages that only read names (ingest, stats, report) never
import one. get_family(name) builds that one entry and imports only its
learner; the first read of FAMILIES builds every entry, in the order of
FAMILY_NAMES, into the same dict that get_family reads. An entry names its
SHAP hook, which it looks up on shap_exact when the hook is first used, so
only explain loads shap_exact. A new family's names go into FAMILY_NAMES
and its hooks into _HOOKS.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .fieldtypes import build


class FamilyNames(NamedTuple):
    display_name: str
    # the fields of the learner's config dataclasses, less the run seed and
    # the nested GOSS config, which the config builder sets itself (a test
    # holds the table to those fields)
    param_names: frozenset


_GBDT_PARAMS = frozenset({"n_trees", "learning_rate", "max_depth", "min_child_weight",
                          "reg_lambda", "gamma", "n_bins"})

# Each family's names, in registry order: what run_config and reporting
# read, without loading a learner. The registry's entries carry them.
FAMILY_NAMES: dict[str, FamilyNames] = {
    "elastic_net": FamilyNames("Linear Regression", frozenset(
        {"lam", "alpha", "max_iter", "standardize_internally"})),
    "random_forest": FamilyNames("Random Forest", frozenset(
        {"n_trees", "max_depth", "min_samples_leaf", "max_features", "bootstrap", "n_bins"})),
    "gbdt": FamilyNames("GBDT", _GBDT_PARAMS),
    "gbdt_goss": FamilyNames("GBDT (GOSS)", _GBDT_PARAMS | {"top_rate", "other_rate"}),
    "mlp": FamilyNames("MLP", frozenset(
        {"hidden_layers", "activation", "learning_rate", "momentum", "l2_penalty",
         "batch_size", "max_epochs", "early_stop"})),
}


@dataclass(frozen=True)
class ModelFamily:
    name: str
    display_name: str
    param_names: frozenset
    # (params, fit seed) -> the learner's config by fieldtypes.build; raises on an invalid one
    config: Callable[[Mapping, int], Any]
    fit: Callable[[np.ndarray, np.ndarray, Any], Any]  # (X, y, built config)
    predict: Callable[[Any, np.ndarray], np.ndarray]
    # (the bundle's params, design column count) -> the model, by fieldtypes.build
    restore: Callable[[Any, int], Any]
    importance: Callable[[Any, int], np.ndarray | None]
    default_grid: Mapping[str, list]  # axis name -> values
    # (X, y, each fold's training rows, each fold's built configs) -> the
    # fitted model of each config of each fold, fold by fold, from work
    # shared across them
    fit_folds: Callable[[np.ndarray, np.ndarray, Sequence[np.ndarray],
                         Sequence[Sequence[Any]]], Iterator[Any]]
    # the shap_exact function that explains the family's models, by name,
    # and which of the two SHAP hooks it is (shap_solver or shap_coalitions)
    shap_hook: str
    shap_by_coalitions: bool = False
    cheap_refit: bool = False
    # the axis the tuner leaves out of a config's fit-seed key, so configs
    # that differ only on it share a seed (and fit_folds can share their fit)
    prefix_axis: str | None = None

    # Exactly one of the two SHAP hooks is set, each read from shap_exact
    # when it is used. shap_solver, exact marginal SHAP in polynomial time:
    # (model, x, background, player_columns) -> phi. shap_coalitions, the
    # marginalize game on all 2^M coalitions without masking: (model, x,
    # background, player_columns) -> v in coalition id order.
    @property
    def shap_solver(self) -> Callable | None:
        return None if self.shap_by_coalitions else self._shap()

    @property
    def shap_coalitions(self) -> Callable | None:
        return self._shap() if self.shap_by_coalitions else None

    def _shap(self) -> Callable:
        from . import shap_exact
        return getattr(shap_exact, self.shap_hook)


def _check_arena(tree: tr.RegressionTree, n_columns: int, where: str) -> None:
    """Reject a restored node arena that is not a tree.

    Children must come after their parent (which rules out cycles, so
    every walk from the root ends at a leaf), leaves carry feature -1 and
    children -1, and split features index the design's n_columns columns.
    The ValueError names the field and the first offending node.
    """
    n = tree.n_nodes
    if n == 0:
        raise ValueError(f"{where} has no nodes")
    for f in fields(tree):
        if len(getattr(tree, f.name)) != n:
            raise ValueError(f"{where}.{f.name} has {len(getattr(tree, f.name))} entries, "
                             f"feature has {n}")
    feature, left, right = tree.feature, tree.left, tree.right
    node = np.arange(n)
    leaf = feature < 0
    checks = (
        ("feature", leaf & (feature != -1), "must be -1 at a leaf"),
        ("feature", feature >= n_columns,
         f"must be below the {n_columns} design columns"),
        ("threshold", ~leaf & ~np.isfinite(tree.threshold), "must be finite at a split"),
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
            raise ValueError(f"{where}.{name}[{i}] = {getattr(tree, name)[i]} {rule}")


def _ensemble_restore(raw, n_columns: int) -> tr.Ensemble:
    model = build(tr.Ensemble, raw, "params")
    if "learning_rate" not in raw:  # its default serves a forest's fit, not a bundle
        raise ValueError("params.learning_rate must be set")
    for i, tree in enumerate(model.trees):
        _check_arena(tree, n_columns, f"params.trees[{i}]")
    return model


def _grouped_folds(key, fit_group):
    """A fit_folds hook that shares work among the configs of one group.

    ``key(cfg, fold, n_train_rows)`` groups the (config, fold) cells, fold
    being the position in the hook's folds; a ValueError from it fails
    that cell in place. ``fit_group(X, y, rows, group_cfgs)`` returns, per
    config in order, its model or the exception its fit raised; config i
    trains on X[rows[i]]. A family whose shared work serves one fold's
    rows (the tree ensembles) keys on the fold; the MLP and elastic net
    share work across the folds of a group. Each group is fit when its
    first cell is due and dropped after its last is yielded, so adjacent
    groups hold one group's models at a time, and a failing cell stops
    the task before any later group is fit.
    """
    def fit_folds(X, y, folds, cfgs):
        cells = [(fold, rows, cfg) for fold, (rows, fold_cfgs) in enumerate(zip(folds, cfgs))
                 for cfg in fold_cfgs]
        outcomes, groups = {}, {}
        for i, (fold, rows, cfg) in enumerate(cells):
            try:
                groups.setdefault(key(cfg, fold, len(rows)), []).append(i)
            except ValueError as exc:
                outcomes[i] = exc
        firsts = {members[0]: members for members in groups.values()}
        for i in range(len(cells)):
            if i in firsts:  # no name holds the fits, so popping drops them
                members = firsts.pop(i)
                outcomes.update(zip(members, fit_group(X, y, [cells[j][1] for j in members],
                                                       [cells[j][2] for j in members])))
            if isinstance(outcomes[i], Exception):
                raise outcomes.pop(i)
            yield outcomes.pop(i)
    return fit_folds


def _on_one_fold(fit_group):
    """A group fit for a key that holds the fold: fit_group(X_train,
    y_train, group_cfgs) on the training rows its configs share."""
    def fit(X, y, rows, cfgs):
        return fit_group(X[rows[0]], y[rows[0]], cfgs)
    return fit


def _elastic_net_folds(X, y, rows, cfgs):
    """The configs of one standardize_internally value, from every fold of
    the task: each fold's set-up from one pass over the design
    (prepare_folds), then each config's solve from its fold's set-up."""
    folds = {id(fold): fold for fold in rows}  # a fold's cells share its rows
    setups = dict(zip(folds, en.prepare_folds(X, y, list(folds.values()),
                                               cfgs[0].standardize_internally)))
    return [en.fit_elastic_net(None, None, cfg, setup=setups[id(fold)])
            for fold, cfg in zip(rows, cfgs)]


def _prefix_key(cfg, fold, n_rows):
    # repr tells 1 from 1.0 and 0.0 from -0.0, which a model may keep;
    # n_trees=1 since a forest rejects 0. The seed is part of the key, so
    # only configs with one fit seed share a fit.
    return fold, repr(replace(cfg, n_trees=1))


def _prefix_group(fit):
    """A group fit for an ensemble learner ``fit`` whose tree i depends
    only on its seed, its config and the trees before it: one fit at the
    group's largest n_trees, and each config gets the prefix of its own
    length, which equals fit's fit of that length bit for bit."""
    def fit_group(X, y, cfgs):
        model = fit(X, y, max(cfgs, key=lambda cfg: cfg.n_trees))
        return [model if len(model.trees) == cfg.n_trees
                else replace(model, trees=model.trees[:cfg.n_trees]) for cfg in cfgs]
    return fit_group


def _ensemble_hooks(config, fit, default_grid) -> dict:
    """A tree-ensemble entry's hooks: its config builder, its learner
    ``fit``, shared through the n_trees prefix hook, its default grid, and
    the ensemble predict, bundle, importance and TreeSHAP functions."""
    global tr
    from . import trees as tr
    return dict(config=config, fit=fit, default_grid=default_grid,
                fit_folds=_grouped_folds(_prefix_key, _on_one_fold(_prefix_group(fit))),
                prefix_axis="n_trees",
                predict=tr.predict_ensemble, restore=_ensemble_restore,
                importance=tr.total_gain_importance, shap_hook="ensemble_shap")


def _goss_config(params, seed) -> tr.GBDTConfig:
    params = dict(params)
    rates = {name: params.pop(name) for name in ("top_rate", "other_rate") if name in params}
    return build(tr.GBDTConfig, params, seed=seed, goss=build(tr.GossConfig, rates))


def _mlp_group(X, y, rows, cfgs):
    """The configs of one lockstep_key, from every fold, trained in
    lockstep; the fits equal fit_mlp's on each config's rows bit for bit."""
    return [fit if isinstance(fit, Exception) else fit[0]
            for fit in nn.fit_lockstep(X, y, cfgs, rows)]


def _mlp_restore(raw, n_columns: int) -> nn.MLPModel:
    model = build(nn.MLPModel, raw, "params")
    weights, biases = model.weights, model.biases
    if not weights or len(biases) != len(weights):
        raise ValueError(f"params.weights has {len(weights)} layers, biases has "
                         f"{len(biases)}; they need the same number, at least 1")
    widths = [n_columns, *(W.shape[1] for W in weights)]
    for i, (W, b) in enumerate(zip(weights, biases)):
        if len(W) != widths[i]:
            feeds = "the design" if i == 0 else f"weights[{i - 1}]"
            raise ValueError(f"params.weights[{i}] has {len(W)} input rows, "
                             f"{feeds} has {widths[i]} columns")
        if len(b) != W.shape[1]:
            raise ValueError(f"params.biases[{i}] has {len(b)} entries, "
                             f"weights[{i}] has {W.shape[1]} columns")
    if widths[-1] != 1:
        raise ValueError(f"params.weights[{len(weights) - 1}] has {widths[-1]} columns, "
                         f"the output layer needs 1")
    nn.MLPConfig(activation=model.activation)  # the activation check a grid value passes
    return model


def _linear_restore(raw, n_columns: int) -> en.LinearModel:
    model = build(en.LinearModel, raw, "params")
    if len(model.coefficients) != n_columns:
        raise ValueError(f"params.coefficients has {len(model.coefficients)} entries, "
                         f"the design has {n_columns} columns")
    if model.sweeps_used < 0:
        raise ValueError(f"params.sweeps_used = {model.sweeps_used} must be >= 0")
    return model


# The default grids are sized so that config count x 5 folds lands on the
# per-family fit budgets used for the timing summaries (150 / 1200 / 5760 /
# 2000 / 40). Contents are run-config defaults, not contracts. Each fit looks
# its learner up on the learner's module when it runs, so a patched module
# function is the one that runs. Each family's hooks import its learner
# module, as the module global (en, nn or tr) that the helpers above call.

def _elastic_net_hooks() -> dict:
    global en
    from . import elastic_net as en
    return dict(
        config=lambda params, seed: build(en.ElasticNetConfig, params),
        fit=lambda X, y, cfg: en.fit_elastic_net(X, y, cfg),
        predict=en.predict_linear,
        restore=_linear_restore,
        importance=lambda m, p: np.abs(m.coefficients),
        shap_hook="linear_shap",
        default_grid={
            "lam": list(en.DEFAULT_LAMBDA_GRID),
            "alpha": list(en.DEFAULT_ALPHA_GRID),
        },  # 30 configs
        cheap_refit=True,
        fit_folds=_grouped_folds(lambda cfg, fold, n_rows: cfg.standardize_internally,
                                 _elastic_net_folds),
    )


# each ensemble grid lists n_trees last, so each prefix group's configs are
# adjacent and the hook holds one longest fit at a time

def _random_forest_hooks() -> dict:
    return _ensemble_hooks(
        config=lambda params, seed: build(tr.RFConfig, params, seed=seed),
        fit=lambda X, y, cfg: tr.fit_random_forest(X, y, cfg),
        default_grid={
            "max_depth": [4, 6, 8, 10],
            "min_samples_leaf": [1, 2, 4],
            "max_features": [3, 5, 7, 11],
            "n_trees": [100, 200, 300, 400, 500],
        },  # 240 configs
    )


def _gbdt_hooks() -> dict:
    return _ensemble_hooks(
        config=lambda params, seed: build(tr.GBDTConfig, params, seed=seed, goss=None),
        fit=lambda X, y, cfg: tr.fit_gbdt(X, y, cfg),
        default_grid={
            "learning_rate": [0.01, 0.05, 0.1, 0.2],
            "max_depth": [3, 4, 5, 6],
            "min_child_weight": [1.0, 3.0, 5.0],
            "reg_lambda": [0.0, 0.5, 1.0],
            "gamma": [0.0, 0.1],
            "n_trees": [100, 200, 300, 400],
        },  # 1152 configs
    )


def _gbdt_goss_hooks() -> dict:
    return _ensemble_hooks(
        config=_goss_config,
        fit=lambda X, y, cfg: tr.fit_gbdt(X, y, cfg),
        default_grid={
            "learning_rate": [0.01, 0.05, 0.1, 0.2],
            "max_depth": [3, 4, 5, 6],
            "top_rate": [0.1, 0.2, 0.3, 0.4, 0.5],
            "n_trees": [100, 200, 300, 400, 500],
        },  # 400 configs
    )


def _mlp_hooks() -> dict:
    global nn
    from . import mlp as nn
    return dict(
        config=lambda params, seed: build(nn.MLPConfig, params, seed=seed),
        fit=lambda X, y, cfg: nn.fit_mlp(X, y, cfg)[0],
        predict=nn.predict_mlp,
        restore=_mlp_restore,
        importance=lambda m, p: None,
        shap_hook="mlp_coalition_values",
        shap_by_coalitions=True,
        default_grid={
            "hidden_layers": [[32], [64], [64, 32], [128, 64]],
            "activation": ["relu", "tanh"],
        },  # 8 configs
        fit_folds=_grouped_folds(lambda cfg, fold, n_rows: nn.lockstep_key(cfg, n_rows),
                                 _mlp_group),
    )


_HOOKS = {"elastic_net": _elastic_net_hooks, "random_forest": _random_forest_hooks,
          "gbdt": _gbdt_hooks, "gbdt_goss": _gbdt_goss_hooks, "mlp": _mlp_hooks}

# the built entries: get_family adds one at a time, and the first read of
# FAMILIES completes it, in registry order, as that module global
_REGISTRY: dict[str, ModelFamily] = {}


def _entry(name: str) -> ModelFamily:
    return ModelFamily(name=name, **FAMILY_NAMES[name]._asdict(), **_HOOKS[name]())


def __getattr__(name: str):
    # PEP 562: the first read of families.FAMILIES, an import of it included
    if name == "FAMILIES":
        global FAMILIES
        for family in FAMILY_NAMES:  # re-inserted in order; built entries are kept
            _REGISTRY[family] = _REGISTRY.pop(family, None) or _entry(family)
        FAMILIES = _REGISTRY
        return FAMILIES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def get_family(name: str) -> ModelFamily:
    if name not in _REGISTRY:
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown model family {name!r}; "
                             f"known: {sorted(FAMILY_NAMES)}")
        _REGISTRY[name] = _entry(name)
    return _REGISTRY[name]
