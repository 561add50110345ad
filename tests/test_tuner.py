import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_setups_close, oracle_setup
from wqpanel import elastic_net as en
from wqpanel import mlp as nn
from wqpanel import trees as tr
from wqpanel import tuner
from wqpanel.families import FAMILIES, get_family
from wqpanel.fieldtypes import to_json
from wqpanel.reporting import render_results_csv
from wqpanel.tuner import (TAG_FIT, CVConfig, FitFailedError, FoldScheme,
                           fit_seed_keys, grid_configs, grid_search, kfold_split,
                           subseed)


# ------------------------------------------------------------------ folds

def test_kfold_partitions_ten_rows():
    folds = kfold_split(10, CVConfig(k=5), 0)
    vals = [v for _, v in folds]
    assert all(len(v) == 2 for v in vals)
    union = np.sort(np.concatenate(vals))
    np.testing.assert_array_equal(union, np.arange(10))
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            assert len(np.intersect1d(a, b)) == 0


def test_blocked_folds_are_contiguous_chunks():
    folds = kfold_split(6, CVConfig(k=3, scheme=FoldScheme.BLOCKED_BY_TIME), 9)
    vals = [v.tolist() for _, v in folds]
    assert vals == [[0, 1], [2, 3], [4, 5]]


def test_folds_deterministic_under_seed():
    a = kfold_split(23, CVConfig(k=4), 3)
    b = kfold_split(23, CVConfig(k=4), 3)
    for (ta, va), (tb, vb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(va, vb)
    c = kfold_split(23, CVConfig(k=4), 4)
    assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c))


@given(st.integers(2, 8), st.integers(0, 50), st.sampled_from(list(FoldScheme)))
def test_kfold_properties(k, extra, scheme):
    n = k + extra
    folds = kfold_split(n, CVConfig(k=k, scheme=scheme), 1)
    assert len(folds) == k
    sizes = [len(v) for _, v in folds]
    assert max(sizes) - min(sizes) <= 1
    all_vals = np.sort(np.concatenate([v for _, v in folds]))
    np.testing.assert_array_equal(all_vals, np.arange(n))
    for train, val in folds:
        # no leakage: a validation row never sits in its own training set
        assert len(np.intersect1d(train, val)) == 0
        assert len(train) + len(val) == n


def test_kfold_rejects_small_n_and_k():
    with pytest.raises(ValueError):
        kfold_split(3, CVConfig(k=5), 0)
    with pytest.raises(ValueError):
        CVConfig(k=1)


# ------------------------------------------------------------------ grid

def test_hypergrid_enumeration_order_and_len():
    # a grid is a plain dict of axes; the last axis varies fastest
    configs = grid_configs({"a": (1, 2), "b": ("x", "y", "z")})
    assert len(configs) == 6
    assert configs[0] == {"a": 1, "b": "x"}
    assert configs[1] == {"a": 1, "b": "y"}
    assert configs[-1] == {"a": 2, "b": "z"}


def test_hypergrid_empty_axis_rejected():
    # an empty axis leaves no configs, which the search rejects
    assert grid_configs({"lam": (0.01, 0.1), "alpha": ()}) == []
    X, y = _search_data()
    with pytest.raises(ValueError, match="empty hyperparameter grid"):
        grid_search("elastic_net", {"lam": (0.01, 0.1), "alpha": ()}, X, y, CVConfig(k=2))


def test_default_grids_match_fit_budgets():
    # config count x 5 folds must land on the published per-family budgets
    assert len(grid_configs(FAMILIES["elastic_net"].default_grid)) * 5 == 150
    assert len(grid_configs(FAMILIES["gbdt_goss"].default_grid)) * 5 == 2000
    assert len(grid_configs(FAMILIES["gbdt"].default_grid)) * 5 == 5760
    assert len(grid_configs(FAMILIES["random_forest"].default_grid)) * 5 == 1200
    assert len(grid_configs(FAMILIES["mlp"].default_grid)) * 5 == 40


# ------------------------------------------------------------------ search

def _search_data(seed=0, n=60, p=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = 0.7 + X @ np.linspace(1.0, 0.5, p) + 0.05 * rng.standard_normal(n)
    return X, y + 2.0  # keep targets away from the metric guards


def test_single_config_grid_runs_k_fits():
    X, y = _search_data()
    result = grid_search("elastic_net", {"lam": (0.01,)},
                         X, y, CVConfig(k=5), seed=7)
    assert result.timing.total_fits == 5
    assert result.best_config == {"lam": 0.01}
    assert len(result.fold_scores[0]) == 5
    assert result.timing.average_tuning == pytest.approx(result.timing.tuning_time / 5)


def test_thirty_config_grid_gives_150_fits():
    X, y = _search_data()
    grid = {"lam": tuple(10.0 ** -e for e in range(5)),
            "alpha": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)}
    assert len(grid_configs(grid)) == 30
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=5), seed=7)
    assert result.timing.total_fits == 150
    assert len(grid_configs(grid)) * 5 == result.timing.total_fits


def test_winner_attains_max_mean_score():
    X, y = _search_data(seed=3)
    grid = {"lam": (1e-6, 0.1, 10.0), "alpha": (0.0, 1.0)}
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=4), seed=5)
    assert result.mean_scores[result.best_index] == max(result.mean_scores)


def test_data_generating_config_ranks_first():
    # noiseless linear data: the unpenalized config must win the search
    rng = np.random.default_rng(4)
    X = rng.standard_normal((80, 3))
    y = 3.0 + X @ np.array([2.0, -1.0, 0.5])
    grid = {"lam": (1e-8, 5.0), "alpha": (1.0,)}
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=5), seed=0)
    assert result.best_config["lam"] == 1e-8


def test_tie_breaks_to_earliest_config():
    X, y = _search_data(seed=5)
    grid = {"lam": (0.01, 0.01)}  # duplicated axis value
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=3), seed=1)
    assert result.best_index == 0


# one MLP architecture: its one stack holds every fold of a task, and the
# 47 rows give training sets of 37 and 38 rows, so two lockstep keys
ONE_ARCHITECTURE = {"hidden_layers": ([4],), "activation": ("relu", "tanh"),
                    "l2_penalty": (0.0, 0.01), "batch_size": (16,), "max_epochs": (5,)}
# k=5 splits into the chunks [0, 1, 2], [3, 4] with two jobs and [0, 1],
# [2, 3], [4] with three, so each fold's set-up is built beside different folds
ELASTIC_NET_K5 = {"lam": (0.0, 1e-3, 0.1), "alpha": (0.0, 1.0),
                  "standardize_internally": (True, False)}


@pytest.mark.parametrize("family, axes, k, n_jobs", [
    ("random_forest", {"n_trees": (3, 6), "max_depth": (2,)}, 3, 2),
    ("random_forest", {"max_depth": (2, 3), "bootstrap": (True, False), "n_trees": (2, 5)}, 3, 2),
    ("elastic_net", {"lam": (1e-4, 0.01, 0.5), "alpha": (0.0, 1.0),
                     "standardize_internally": (True, False)}, 3, 2),
    ("mlp", {"hidden_layers": ([4], [3, 2]), "activation": ("relu", "tanh"),
             "batch_size": (16,), "max_epochs": (5,)}, 3, 2),
    ("gbdt", {"n_trees": (3, 6), "reg_lambda": (0.0, 1.0)}, 3, 2),
    ("gbdt_goss", {"n_trees": (3, 6), "max_depth": (2,), "top_rate": (0.2, 0.3)}, 3, 2),
    ("mlp", ONE_ARCHITECTURE, 5, 2),
    ("mlp", ONE_ARCHITECTURE, 5, 3),
    ("elastic_net", ELASTIC_NET_K5, 5, 2),
    ("elastic_net", ELASTIC_NET_K5, 5, 3),
], ids=["random_forest", "random_forest_prefix", "elastic_net", "mlp", "gbdt", "gbdt_goss",
        "mlp_one_architecture_k5_jobs2", "mlp_one_architecture_k5_jobs3",
        "elastic_net_k5_jobs2", "elastic_net_k5_jobs3"])
def test_parallel_matches_serial(family, axes, k, n_jobs):
    X, y = _search_data(seed=6, n=48 if k == 3 else 47)
    _assert_parallel_matches_serial(family, axes, X, y, CVConfig(k=k), n_jobs)


@pytest.mark.parametrize("scheme", list(FoldScheme))
@pytest.mark.parametrize("n_jobs", [2, 3])
def test_parallel_matches_serial_with_a_column_constant_on_one_fold(scheme, n_jobs):
    # a one-hot column that is 0 on fold 4's training rows and 1 on its
    # validation rows: whichever chunk holds fold 4, and whichever blocks
    # its minimum and maximum come from, the column is constant there
    X, y = _search_data(seed=6, n=47)
    cv = CVConfig(k=5, scheme=scheme)
    X[:, 2] = 0.0
    X[kfold_split(47, cv, 11)[4][1], 2] = 1.0
    _assert_parallel_matches_serial("elastic_net", ELASTIC_NET_K5, X, y, cv, n_jobs)


def _assert_parallel_matches_serial(family, grid, X, y, cv, n_jobs):
    serial = grid_search(family, grid, X, y, cv, seed=11, n_jobs=1)
    parallel = grid_search(family, grid, X, y, cv, seed=11, n_jobs=n_jobs)
    assert serial.best_config == parallel.best_config
    assert serial.mean_scores == parallel.mean_scores
    assert serial.fold_scores == parallel.fold_scores
    assert serial.timing.total_fits == parallel.timing.total_fits == len(grid_configs(grid)) * cv.k
    family = get_family(family)
    assert _exported(family, serial.best_model) == _exported(family, parallel.best_model)


@pytest.mark.parametrize("k, n_jobs, chunks", [
    (5, 1, [[0, 1, 2, 3, 4]]),
    (5, 2, [[0, 1, 2], [3, 4]]),
    (5, 3, [[0, 1], [2, 3], [4]]),
    (3, 3, [[0], [1], [2]]),
    (2, 8, [[0], [1]]),
])
def test_fold_chunks_are_contiguous_and_balanced(k, n_jobs, chunks):
    assert [list(chunk) for chunk in tuner.fold_chunks(k, n_jobs)] == chunks


SERIAL_CASES = {
    "elastic_net": {"lam": (1e-4, 0.01), "alpha": (0.0, 1.0)},
    "random_forest": {"max_depth": (2,), "n_trees": (2, 3)},
    "gbdt": {"max_depth": (1, 2), "n_trees": (2, 3)},
    "gbdt_goss": {"top_rate": (0.2,), "n_trees": (2, 3)},
    "mlp": {"hidden_layers": ([3], [2, 2]), "max_epochs": (2,)},
}


@pytest.mark.parametrize("family, axes", SERIAL_CASES.items(), ids=SERIAL_CASES)
def test_serial_search_runs_one_task_over_all_folds(monkeypatch, family, axes):
    # with one job, every family fits all configs of every fold in one
    # task, through its hook
    X, y = _search_data(seed=8, n=36)
    tasks = []

    def counted(chunk, _task=tuner._pool_task):
        tasks.append(list(chunk))
        return _task(chunk)

    monkeypatch.setattr(tuner, "_pool_task", counted)
    result = grid_search(family, axes, X, y, CVConfig(k=3), seed=2)
    assert tasks == [[0, 1, 2]]
    assert result.timing.total_fits == len(grid_configs(axes)) * 3


@pytest.mark.parametrize("n, stacks", [(36, [3, 3]), (37, [1, 1, 2, 2])], ids=["equal", "ragged"])
def test_serial_mlp_search_stacks_an_architecture_across_folds(monkeypatch, n, stacks):
    # 36 rows give three training sets of 24: each architecture is one
    # stack of its three folds; 37 give 24, 25 and 25, two lockstep keys
    sizes = []

    def counted(X, y, cfgs, rows, _stack=nn._fit_stack):
        sizes.append(len(cfgs))
        return _stack(X, y, cfgs, rows)

    monkeypatch.setattr(nn, "_fit_stack", counted)
    X, y = _search_data(seed=8, n=n)
    grid_search("mlp", SERIAL_CASES["mlp"], X, y, CVConfig(k=3), seed=2)
    assert sizes == stacks + [1]  # and the winner's refit


def _exported(family, model) -> str:
    return json.dumps(to_json(model), sort_keys=True)


def _per_config(name):
    """The registry entry ``name`` with a fit_folds hook that calls its fit
    once per (config, fold): the reference the shared hooks must match."""
    family = FAMILIES[name]

    def fit_folds(X, y, folds, cfgs):
        for rows, fold_cfgs in zip(folds, cfgs):
            for cfg in fold_cfgs:
                yield family.fit(X[rows], y[rows], cfg)

    return dataclasses.replace(family, fit_folds=fit_folds)


def _fit_fold(family, X, y, cfgs):
    """family's fit_folds hook on one fold that trains on every row."""
    return family.fit_folds(X, y, [np.arange(len(y))], [cfgs])


def _fold_cell(X, y, rows, cfg):
    """An elastic-net (config, fold) cell as the contract gives it: the
    solve of cfg from the fold's own set-up (prepare_folds on that fold
    alone). It equals a lone fit on X[rows] to rounding, not bit for bit."""
    setup = en.prepare_folds(X, y, [rows], cfg.standardize_internally)[0]
    return en.fit_elastic_net(None, None, cfg, setup=setup)


def test_elastic_net_fit_fold_matches_fit_and_predict():
    # each cell is the solve from its fold's set-up, built alone, bit for
    # bit, so the folds built with it cannot move it; that set-up is a lone
    # fit's on the fold's rows to rounding, and so are the predictions
    family = get_family("elastic_net")
    X, y = _search_data(seed=9, n=50, p=4)
    X[:, 1] *= 20.0  # standardizing moves this column's penalty
    # the last axis varies fastest, so the two set-ups alternate
    configs = grid_configs({"lam": (0.0, 1e-3, 0.2), "alpha": (0.0, 0.5, 1.0),
                            "standardize_internally": (True, False)})
    cfgs = [family.config(params, 0) for params in configs]
    folds = [train for train, _ in kfold_split(len(y), CVConfig(k=3), 9)]
    models = family.fit_folds(X, y, folds, [cfgs] * len(folds))
    for rows in folds:
        for flag in (True, False):
            assert_setups_close(en.prepare_folds(X, y, [rows], flag)[0],
                                oracle_setup(X[rows], y[rows], flag))
        for params, cfg in zip(configs, cfgs):
            model = next(models)
            assert (_exported(family, model)
                    == _exported(family, _fold_cell(X, y, rows, cfg))), params
            alone = family.fit(X[rows], y[rows], cfg)
            np.testing.assert_allclose(family.predict(model, X), family.predict(alone, X),
                                       rtol=0, atol=1e-12, err_msg=str(params))
    assert next(models, None) is None


def test_mlp_fit_fold_matches_fit_and_predict():
    family = get_family("mlp")
    X, y = _search_data(seed=10, n=45, p=3)
    # the widths vary fastest, so each lockstep group's configs sit apart
    # in the order, and activations change inside every group
    configs = grid_configs({
        "early_stop": (None, {"validation_fraction": 0.2, "patience": 2}),
        "batch_size": (8, 64), "activation": ("relu", "tanh", "logistic"),
        "hidden_layers": ([4], [3, 2], []), "max_epochs": (6,)})
    cfgs = [family.config(params, subseed(5, 2, ci, 0)) for ci, params in enumerate(configs)]
    shared = list(_fit_fold(family, X, y, cfgs))
    assert len(shared) == len(configs)
    for params, cfg, model in zip(configs, cfgs, shared):
        alone = family.fit(X, y, cfg)
        assert _exported(family, model) == _exported(family, alone), params


def _counting_fit(monkeypatch, learner: str = "fit_gbdt") -> list:
    """Patch the trees learner to record the n_trees of every fit it runs."""
    fitted = []
    fit = getattr(tr, learner)

    def counted(X, y, cfg):
        fitted.append(cfg.n_trees)
        return fit(X, y, cfg)

    monkeypatch.setattr(tr, learner, counted)
    return fitted


def _tuner_configs(family, axes, seed=5, fold=0) -> tuple[list[dict], list]:
    """The configs of a grid, each built with the fit seed the tuner gives
    it on ``fold``."""
    configs = grid_configs(axes)
    keys = fit_seed_keys(axes, family.prefix_axis)
    return configs, [family.config(params, subseed(seed, TAG_FIT, key, fold))
                     for params, key in zip(configs, keys)]


# each axis's values per family: int/float twins on float fields, repeated
# and unsorted n_trees, mixed activations, and values that fail the fit (a
# max_features past the 3 columns, a learning rate that diverges)
FOLD_POOLS = {
    "elastic_net": {"lam": [0, 0.0, 1e-3, 0.1, 1, 1.0], "alpha": [0, 0.5, 1, 1.0],
                    "standardize_internally": [True, False]},
    "random_forest": {"max_depth": [1, 3], "max_features": [None, 1, 2, 4],
                      "bootstrap": [True, False], "n_trees": [1, 2, 3, 4]},
    "gbdt": {"learning_rate": [1, 1.0, 0.3], "max_depth": [1, 2],
             "reg_lambda": [0, 0.0, 1.0], "n_trees": [0, 1, 2, 3]},
    "gbdt_goss": {"top_rate": [0.2, 0.5], "other_rate": [0.1, 0.5], "learning_rate": [1, 1.0],
                  "n_trees": [1, 2, 3]},
    "mlp": {"hidden_layers": [[3], [2, 2], []], "activation": ["relu", "tanh", "logistic"],
            "learning_rate": [0.05, 1, 1.0, 1e100], "batch_size": [8, 64], "momentum": [0, 0.5],
            "early_stop": [None, {"validation_fraction": 0.25, "patience": 1}],
            "max_epochs": [3]},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging fits overflow
@pytest.mark.parametrize("name", FOLD_POOLS)
@settings(max_examples=25)
@given(data=st.data())
def test_fit_fold_equals_fit_of_each_config_of_a_drawn_grid(name, data):
    # at most 12 configs: each axis, in a drawn order, takes up to 3 values;
    # k folds of n rows, where k need not divide n, so the training sets
    # of one task may differ in size (and an MLP architecture's lockstep key).
    # An elastic-net cell is compared with its fold's own set-up (_fold_cell)
    family = get_family(name)
    axes, size = {}, 1
    for axis in data.draw(st.permutations(sorted(FOLD_POOLS[name])), label="axis order"):
        axes[axis] = data.draw(st.lists(st.sampled_from(FOLD_POOLS[name][axis]), min_size=1,
                                        max_size=min(3, 12 // size)), label=axis)
        size *= len(axes[axis])
    k = data.draw(st.sampled_from([2, 3, 5]), label="k")
    n = data.draw(st.sampled_from([30, 31, 32, 33]), label="n")
    X, y = _search_data(seed=24, n=n, p=3)
    X[:, 1] = np.round(X[:, 1])  # tied values and tied gains
    folds = [train for train, _ in kfold_split(n, CVConfig(k=k), n)]
    cfgs = [_tuner_configs(family, axes, seed=3, fold=fi)[1] for fi in range(k)]
    models = family.fit_folds(X, y, folds, cfgs)
    for fi, train in enumerate(folds):
        for params, cfg in zip(grid_configs(axes), cfgs[fi]):
            try:
                alone = (_fold_cell(X, y, train, cfg) if name == "elastic_net"
                         else family.fit(X[train], y[train], cfg))
            except Exception as exc:  # the task fails at the first cell that does
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    next(models)
                return
            assert _exported(family, next(models)) == _exported(family, alone), (fi, params)
    assert next(models, None) is None


def test_gbdt_fit_fold_matches_fit_and_predict(monkeypatch):
    family = get_family("gbdt")
    X, y = _search_data(seed=12, n=70, p=4)
    X_val, _ = _search_data(seed=13, n=25, p=4)
    X[:, 2] = np.round(X[:, 2])  # tied values and tied gains
    # n_trees varies slowest, so each prefix group's configs sit 8 apart;
    # each config's seed is the tuner's, which n_trees does not change
    configs, cfgs = _tuner_configs(family, {"n_trees": (3, 0, 5, 3), "max_depth": (1, 3),
                                            "reg_lambda": (0.0, 1.0), "n_bins": (4, 256)})
    fitted = _counting_fit(monkeypatch)
    shared = list(_fit_fold(family, X, y, cfgs))
    assert fitted == [5] * 8  # one boosting run per setting of the other axes
    assert len(shared) == len(configs)
    for params, cfg, model in zip(configs, cfgs, shared):
        alone = family.fit(X, y, cfg)
        assert len(model.trees) == params["n_trees"]
        assert _exported(family, model) == _exported(family, alone), params
        np.testing.assert_array_equal(family.predict(model, X_val),
                                      family.predict(alone, X_val))


def test_gbdt_fit_fold_groups_only_configs_a_prefix_reproduces(monkeypatch):
    # a model keeps learning_rate as given, so 1 and 1.0 are fit apart
    family = get_family("gbdt")
    X, y = _search_data(seed=14, n=40)
    configs = [{"learning_rate": 1, "n_trees": 2}, {"learning_rate": 1.0, "n_trees": 3},
               {"learning_rate": 1, "n_trees": 4}, {"n_trees": 2}, {}]
    cfgs = [family.config(params, 0) for params in configs]
    fitted = _counting_fit(monkeypatch)
    shared = list(_fit_fold(family, X, y, cfgs))
    assert fitted == [4, 3, 100]
    for params, cfg, model in zip(configs, cfgs, shared):
        alone = family.fit(X, y, cfg)
        assert _exported(family, model) == _exported(family, alone), params


def test_gbdt_grid_search_equals_per_config_fits(monkeypatch):
    X, y = _search_data(seed=15, n=45)
    grid = {"n_trees": (2, 6, 4), "max_depth": (1, 2), "gamma": (0.0, 0.05)}
    cv = CVConfig(k=3)
    shared = grid_search("gbdt", grid, X, y, cv, seed=2)
    monkeypatch.setitem(FAMILIES, "gbdt", _per_config("gbdt"))
    alone = grid_search("gbdt", grid, X, y, cv, seed=2)
    assert shared.to_dict() == alone.to_dict()
    assert shared.timing.total_fits == len(grid_configs(grid)) * 3
    family = get_family("gbdt")
    assert _exported(family, shared.best_model) == _exported(family, alone.best_model)


# (family, learner on trees, grid); n_trees sits first, mid-grid or last
PREFIX_CASES = {
    "rf_bootstrap": ("random_forest", "fit_random_forest",
                     {"n_trees": (3, 1, 5), "max_depth": (2, 4), "max_features": (2, None)}),
    "rf_no_bootstrap": ("random_forest", "fit_random_forest",
                        {"bootstrap": (False,), "min_samples_leaf": (1, 3),
                         "n_trees": (2, 4), "max_features": (1, 3)}),
    "gbdt": ("gbdt", "fit_gbdt",
             {"max_depth": (1, 3), "reg_lambda": (0.0, 1.0), "n_trees": (3, 0, 5)}),
    "gbdt_goss": ("gbdt_goss", "fit_gbdt",
                  {"top_rate": (0.2, 0.4), "max_depth": (2,), "n_trees": (4, 2, 6)}),
}


@pytest.mark.parametrize("name, learner, axes", PREFIX_CASES.values(), ids=PREFIX_CASES)
def test_prefix_fold_models_equal_fresh_fits_of_their_configs(monkeypatch, name, learner, axes):
    # each setting of the other axes is one fit at its longest n_trees, and
    # each config's model is a fresh fit of it under its tuner seed
    family = get_family(name)
    X, y = _search_data(seed=18, n=60, p=4)
    X_val, _ = _search_data(seed=19, n=20, p=4)
    X[:, 1] = np.round(X[:, 1])  # tied values and tied gains
    configs, cfgs = _tuner_configs(family, axes, seed=7, fold=2)
    fitted = _counting_fit(monkeypatch, learner)
    shared = list(_fit_fold(family, X, y, cfgs))
    assert fitted == [max(axes["n_trees"])] * (len(configs) // len(axes["n_trees"]))
    assert len(shared) == len(configs)
    for params, cfg, model in zip(configs, cfgs, shared):
        alone = family.fit(X, y, cfg)
        assert len(model.trees) == params["n_trees"]
        assert _exported(family, model) == _exported(family, alone), params
        np.testing.assert_array_equal(family.predict(model, X_val),
                                      family.predict(alone, X_val))


def test_prefix_fold_shares_a_fit_only_under_one_seed(monkeypatch):
    # a forest's trees depend on its seed, so configs that differ in seed
    # as well as n_trees fit apart
    family = get_family("random_forest")
    X, y = _search_data(seed=23, n=40)
    cfgs = [family.config({"n_trees": n_trees, "max_depth": 2}, seed)
            for n_trees, seed in ((2, 1), (3, 2), (4, 1))]
    fitted = _counting_fit(monkeypatch, "fit_random_forest")
    shared = list(_fit_fold(family, X, y, cfgs))
    assert fitted == [4, 3]
    for cfg, model in zip(cfgs, shared):
        assert _exported(family, model) == _exported(family, family.fit(X, y, cfg)), cfg


@pytest.mark.parametrize("name, axes", [
    ("random_forest", {"max_depth": (1, 3), "n_trees": (2, 5, 3), "max_features": (1, 2)}),
    ("gbdt_goss", {"n_trees": (3, 1), "top_rate": (0.2, 0.5), "learning_rate": (0.3,)}),
], ids=["random_forest", "gbdt_goss"])
def test_prefix_grid_search_equals_per_config_fits(monkeypatch, name, axes):
    X, y = _search_data(seed=20, n=45)
    cv = CVConfig(k=3)
    shared = grid_search(name, axes, X, y, cv, seed=2)
    monkeypatch.setitem(FAMILIES, name, _per_config(name))
    alone = grid_search(name, axes, X, y, cv, seed=2)
    assert shared.to_dict() == alone.to_dict()
    family = get_family(name)
    assert _exported(family, shared.best_model) == _exported(family, alone.best_model)


def test_gbdt_invalid_config_fails_as_per_config_fits_name_it(monkeypatch):
    # the second config is invalid; it fails while the fold's configs are
    # built, before any fit, and names itself as a per-config fit does
    X, y = _search_data(seed=16, n=30)
    grid = {"n_trees": (2, 4), "max_depth": (1, -1, 2)}
    cv = CVConfig(k=3)
    fitted = _counting_fit(monkeypatch)
    with pytest.raises(FitFailedError) as shared:
        grid_search("gbdt", grid, X, y, cv, seed=3)
    assert fitted == []
    monkeypatch.setitem(FAMILIES, "gbdt", _per_config("gbdt"))
    with pytest.raises(FitFailedError) as alone:
        grid_search("gbdt", grid, X, y, cv, seed=3)
    assert str(shared.value) == str(alone.value) == (
        "gbdt fit failed for config {'n_trees': 2, 'max_depth': -1} on fold 0: "
        "max_depth >= 0 and n_bins >= 1 required")


def test_mlp_invalid_config_fails_as_per_config_fits_name_it(monkeypatch):
    # the invalid width sits mid-grid, between configs of two lockstep groups
    X, y = _search_data(seed=17, n=30)
    grid = {"hidden_layers": ([3], [0], [2, 2]), "max_epochs": (2,)}
    cv = CVConfig(k=3)
    with pytest.raises(FitFailedError) as shared:
        grid_search("mlp", grid, X, y, cv, seed=3)
    monkeypatch.setitem(FAMILIES, "mlp", _per_config("mlp"))
    with pytest.raises(FitFailedError) as alone:
        grid_search("mlp", grid, X, y, cv, seed=3)
    assert str(shared.value) == str(alone.value) == (
        "mlp fit failed for config {'hidden_layers': [0], 'max_epochs': 2} on fold 0: "
        "hidden layer widths must be >= 1")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_failures_across_groups_and_folds_fail_as_per_config_fits_name_them(monkeypatch):
    # every lockstep group spans the three folds. Fold 0 trains without the
    # largest inputs, so there only the wide net's faster rate diverges;
    # the narrow net's group, fit first, fails on folds 1 and 2. The first
    # cell to fail in fold order, not the first group, must name itself.
    X, y = _search_data(seed=25, n=30)
    cv = CVConfig(k=3)
    folds = kfold_split(len(y), cv, 3)
    X[folds[0][1]] *= 40.0
    X[folds[2][1]] *= 5.0
    grid = {"hidden_layers": ([2], [32]), "learning_rate": (0.001, 0.01),
            "batch_size": (4,), "max_epochs": (4,)}
    family = get_family("mlp")
    failing = []
    with np.errstate(over="ignore", invalid="ignore"):
        for fi, (train, _) in enumerate(folds):
            for ci, cfg in enumerate(_tuner_configs(family, grid, seed=3, fold=fi)[1]):
                try:
                    family.fit(X[train], y[train], cfg)
                except nn.TrainingDivergedError:
                    failing.append((fi, ci))
        assert failing[0] == (0, 3)
        assert {fi for fi, ci in failing if ci < 2} == {1, 2}
        with pytest.raises(FitFailedError) as shared:
            grid_search("mlp", grid, X, y, cv, seed=3)
        monkeypatch.setitem(FAMILIES, "mlp", _per_config("mlp"))
        with pytest.raises(FitFailedError) as alone:
            grid_search("mlp", grid, X, y, cv, seed=3)
    assert str(shared.value) == str(alone.value)
    assert str(shared.value).startswith(
        "mlp fit failed for config {'hidden_layers': [32], 'learning_rate': 0.01, "
        "'batch_size': 4, 'max_epochs': 4} on fold 0: training loss became non-finite")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_divergence_fails_the_config_per_config_fits_name(monkeypatch):
    # the second of three configs diverges; configs share a fold's task
    X, y = _search_data(seed=11, n=40)
    grid = {"learning_rate": (1e-4, 50.0, 2e-4),
            "hidden_layers": ([16],), "batch_size": (8,),
            "max_epochs": (6,)}
    cv = CVConfig(k=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FitFailedError) as shared:
            grid_search("mlp", grid, X * 10.0, y * 10.0, cv, seed=3)
        monkeypatch.setitem(FAMILIES, "mlp", _per_config("mlp"))
        with pytest.raises(FitFailedError) as alone:
            grid_search("mlp", grid, X * 10.0, y * 10.0, cv, seed=3)
    assert str(shared.value) == str(alone.value)
    assert "'learning_rate': 50.0" in str(shared.value)
    assert "on fold 0: training loss became non-finite at epoch" in str(shared.value)


def test_invalid_grid_name_rejected():
    X, y = _search_data()
    with pytest.raises(ValueError, match="invalid for family"):
        grid_search("elastic_net", {"depth": (1,)},
                    X, y, CVConfig(k=3))


def test_a_tol_axis_is_refused_naming_it():
    # the exact solver has no stop tolerance to tune
    X, y = _search_data()
    with pytest.raises(ValueError, match=r"grid names \['tol'\] invalid for family 'elastic_net'"):
        grid_search("elastic_net", {"tol": (float("inf"),)}, X, y, CVConfig(k=3))


def test_fit_failure_identifies_config():
    # a fold's configs are fit as one group; the bad one sits mid-group
    X, y = _search_data(n=20)
    grid = {"lam": (0.01, 0.1, -1.0, 1.0)}  # invalid once built
    with pytest.raises(FitFailedError,
                       match=r"config \{'lam': -1\.0\} on fold 0: lam must be >= 0"):
        grid_search("elastic_net", grid, X, y, CVConfig(k=3))


@pytest.mark.parametrize("family, params, message", [
    ("elastic_net", {"max_iter": 0}, "max_iter must be >= 1"),
    ("mlp", {"max_epochs": 0}, "max_epochs must be >= 1"),
    ("mlp", {"l2_penalty": -1.0}, "l2_penalty must be >= 0"),
    ("random_forest", {"n_bins": 0}, "max_depth >= 0 and n_bins >= 1 required"),
    ("random_forest", {"max_depth": -1}, "max_depth >= 0 and n_bins >= 1 required"),
    ("gbdt_goss", {"top_rate": 1.5}, "top_rate and other_rate must be in [0, 1]"),
    ("elastic_net", {"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ("elastic_net", {"max_iter": True}, "max_iter must be an integer, got True"),
    ("elastic_net", {"lam": float("nan")}, "lam must be a finite number, got nan"),
    ("random_forest", {"n_trees": 2.0}, "n_trees must be an integer, got 2.0"),
    ("random_forest", {"n_trees": True}, "n_trees must be an integer, got True"),
    ("gbdt", {"n_trees": 2.0}, "n_trees must be an integer, got 2.0"),
    ("gbdt", {"n_trees": True}, "n_trees must be an integer, got True"),
    ("gbdt", {"n_trees": 0.0}, "n_trees must be an integer, got 0.0"),
    ("random_forest", {"max_features": 1.5}, "max_features must be an integer, got 1.5"),
    ("mlp", {"batch_size": 8.5}, "batch_size must be an integer, got 8.5"),
    ("gbdt", {"min_child_weight": float("nan")},
     "min_child_weight must be a finite number, got nan"),
    # a string used to read "must be finite", as if it were a number
    ("gbdt_goss", {"top_rate": "x"}, "top_rate must be a finite number, got 'x'"),
    ("elastic_net", {"standardize_internally": "no"},
     "standardize_internally must be a bool, got 'no'"),
    # each value as written: these used to raise a bare TypeError, or read
    # "64" as ('6', '4') and [8.5] as (8.5,)
    ("mlp", {"hidden_layers": 64}, "hidden_layers must be a tuple of integers, got 64"),
    ("mlp", {"hidden_layers": None}, "hidden_layers must be a tuple of integers, got None"),
    ("mlp", {"hidden_layers": "64"}, "hidden_layers must be a tuple of integers, got '64'"),
    ("mlp", {"hidden_layers": [8.5]}, "hidden_layers must be a tuple of integers, got [8.5]"),
    ("mlp", {"early_stop": "x"}, "early_stop must be a JSON object, got 'x'"),
    # this raised a bare TypeError from EarlyStopConfig(**value)
    ("mlp", {"early_stop": {"bogus": 1}}, "early_stop.bogus is not a setting"),
], ids=["max_iter", "max_epochs", "l2_penalty", "rf_n_bins", "rf_max_depth", "goss_top_rate",
        "max_iter_fraction", "max_iter_bool", "lam_nan", "rf_n_trees_float",
        "rf_n_trees_bool", "gbdt_n_trees_float", "gbdt_n_trees_bool", "gbdt_n_trees_zero_float",
        "rf_max_features_fraction", "mlp_batch_size_fraction", "gbdt_min_child_weight_nan",
        "goss_top_rate_string",
        "standardize_internally_string", "hidden_layers_int", "hidden_layers_null",
        "hidden_layers_string", "hidden_layers_fraction", "early_stop_string",
        "early_stop_unknown_key"])
def test_out_of_range_config_value_fails_naming_the_config(family, params, message):
    X, y = _search_data(n=20)
    grid = {name: (value,) for name, value in params.items()}
    with pytest.raises(FitFailedError, match=re.escape(f"config {params} on fold 0: {message}")):
        grid_search(family, grid, X, y, CVConfig(k=3))


def test_seeded_search_reproducible():
    X, y = _search_data(seed=8)
    grid = {"n_trees": (4,), "max_depth": (2, 3)}
    cv = CVConfig(k=3)
    a = grid_search("random_forest", grid, X, y, cv, seed=21)
    b = grid_search("random_forest", grid, X, y, cv, seed=21)
    assert a.mean_scores == b.mean_scores
    assert a.best_config == b.best_config


def test_subseed_is_deterministic_and_tag_sensitive():
    assert subseed(5, 1, 2) == subseed(5, 1, 2)
    assert subseed(5, 1, 2) != subseed(5, 2, 1)
    assert subseed(5, 1) != subseed(6, 1)


def _assert_tuner_fit_seeds(monkeypatch, name, axes, keys):
    """grid_search seeds each config's fold-fi fit with subseed(seed,
    TAG_FIT, key, fi) and the winning refit with fold k's, for the key
    of that config in ``keys``."""
    seeds = {}
    family = FAMILIES[name]

    def config(params, seed):
        seeds.setdefault(json.dumps(params, sort_keys=True), set()).add(seed)
        return family.config(params, seed)

    monkeypatch.setitem(FAMILIES, name, dataclasses.replace(family, config=config))
    X, y = _search_data(seed=21, n=30)
    result = grid_search(name, axes, X, y, CVConfig(k=3), seed=9)
    for ci, (params, key) in enumerate(zip(grid_configs(axes), keys)):
        expected = {subseed(9, TAG_FIT, key, fi) for fi in range(3)}
        if ci == result.best_index:
            expected.add(subseed(9, TAG_FIT, key, 3))
        assert seeds[json.dumps(params, sort_keys=True)] == expected, params


@pytest.mark.parametrize("name, axes", [
    ("elastic_net", {"lam": (0.01, 0.1), "alpha": (0.5, 1.0)}),
    ("mlp", {"hidden_layers": ([3],), "activation": ("relu", "tanh"), "max_epochs": (2,)}),
    ("random_forest", {"n_trees": (3,), "max_depth": (2, 3), "max_features": (1,)}),
    ("gbdt", {"n_trees": (4,), "learning_rate": (0.1,), "max_depth": (1, 2)}),
    ("gbdt_goss", {"n_trees": (4,), "max_depth": (1, 2), "top_rate": (0.2, 0.3)}),
], ids=["elastic_net", "mlp", "random_forest", "gbdt", "gbdt_goss"])
def test_fit_seed_is_keyed_on_the_grid_index_without_a_prefix_axis(monkeypatch, name, axes):
    # no prefix axis, or one n_trees value: each fit is seeded from the
    # config's grid index, as before configs could share a seed
    indices = list(range(len(grid_configs(axes))))
    assert fit_seed_keys(axes, FAMILIES[name].prefix_axis) == indices
    _assert_tuner_fit_seeds(monkeypatch, name, axes, indices)


def test_fit_seed_is_shared_only_across_n_trees(monkeypatch):
    axes = {"max_depth": (2, 3), "n_trees": (1, 4, 2), "max_features": (1, 2)}
    configs = grid_configs(axes)
    keys = fit_seed_keys(axes, "n_trees")
    for a, b in itertools.combinations(range(len(configs)), 2):
        others = [{k: v for k, v in configs[i].items() if k != "n_trees"} for i in (a, b)]
        assert (keys[a] == keys[b]) == (others[0] == others[1]), (configs[a], configs[b])
    _assert_tuner_fit_seeds(monkeypatch, "random_forest", axes, keys)


# ------------------------------------------------------------------ tables

def test_results_csv_display_formatting():
    from wqpanel.metrics import evaluate
    from wqpanel.reporting import build_results_table

    table = build_results_table({"benchmark": evaluate([2.0, 4.0], [3.0, 3.0])})
    text = render_results_csv(table)
    assert "1000.00" in text  # rmse 1.0 displayed x1000
    rows = text.strip().splitlines()
    assert rows[0] == "model,rmse,mape,wmape,wupred,wopred"
    assert rows[-1].startswith("best_model,")
    # external reference row carries only its published RMSE
    assert any(line.startswith("SADL-II") and ",11.50," in line for line in rows)


def test_zero_target_does_not_abort_search():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 2))
    y = 1.0 + X @ [0.5, -0.3]
    y[3] = 0.0
    result = grid_search("elastic_net", {"lam": (0.01, 0.1)}, X, y,
                         CVConfig(k=4))
    assert np.isfinite(result.mean_scores).all()
