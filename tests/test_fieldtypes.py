import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wqpanel.elastic_net import ElasticNetConfig, LinearModel
from wqpanel.features import Categoricals, PipelineState, StandardizationParams, Strategy
from wqpanel.fieldtypes import build, field_rules, to_json
from wqpanel.mlp import EarlyStopConfig, MLPConfig, MLPModel
from wqpanel.panel import PanelSchema
from wqpanel.run_config import DataSection, RunConfig, ShapSection
from wqpanel.trees import (Ensemble, EnsembleKind, GBDTConfig, GossConfig, RegressionTree,
                           RFConfig)
from wqpanel.tuner import CVConfig, TimingRow

# every dataclass read from JSON: the learner and run configs, the bundle
# pipeline and model params, the panel schema and the timing rows
CONFIGS = (GossConfig, GBDTConfig, RFConfig, ElasticNetConfig, EarlyStopConfig, MLPConfig,
           RunConfig, DataSection, CVConfig, ShapSection, Categoricals, PipelineState,
           RegressionTree, Ensemble, MLPModel, LinearModel, StandardizationParams, PanelSchema,
           TimingRow)

DATA = {"train_csv": "a.csv", "test_csv": "b.csv", "schema": "s.json"}  # a run config's data

# fields the type rule leaves to their class: the SHAP rows, a list of
# integers or {"sample": n}, which ShapSection checks itself
UNCHECKED = {ShapSection: {"rows"}}


@pytest.mark.parametrize("config, kwargs, message", [
    (RFConfig, {"max_features": 1.5}, "max_features must be an integer, got 1.5"),
    (RFConfig, {"min_samples_leaf": 1.5}, "min_samples_leaf must be an integer, got 1.5"),
    (RFConfig, {"max_depth": True}, "max_depth must be an integer, got True"),
    (RFConfig, {"bootstrap": 1}, "bootstrap must be a bool, got 1"),
    (GBDTConfig, {"max_depth": 2.5}, "max_depth must be an integer, got 2.5"),
    (GBDTConfig, {"n_bins": 4.5}, "n_bins must be an integer, got 4.5"),
    (GBDTConfig, {"min_child_weight": float("nan")},
     "min_child_weight must be a finite number, got nan"),
    (GBDTConfig, {"gamma": float("inf")}, "gamma must be a finite number, got inf"),
    (MLPConfig, {"batch_size": 8.5}, "batch_size must be an integer, got 8.5"),
    (MLPConfig, {"max_epochs": 2.0}, "max_epochs must be an integer, got 2.0"),
    (MLPConfig, {"learning_rate": float("nan")}, "learning_rate must be a finite number, got nan"),
    (MLPConfig, {"l2_penalty": float("nan")}, "l2_penalty must be a finite number, got nan"),
    (MLPConfig, {"hidden_layers": (8.5,)}, "hidden_layers must be a tuple of integers, got (8.5,)"),
    (EarlyStopConfig, {"patience": 2.5}, "patience must be an integer, got 2.5"),
    (MLPConfig, {"early_stop": "x"}, "early_stop must be a JSON object, got 'x'"),
    (GBDTConfig, {"goss": [0.2]}, "goss must be a JSON object, got [0.2]"),
    (MLPConfig, {"activation": 5}, "activation must be a string, got 5"),
    (ElasticNetConfig, {"standardize_internally": "no"},
     "standardize_internally must be a bool, got 'no'"),
    # every fit then died in fit_gradient_tree on a tree of no rows
    (GossConfig, {"top_rate": 0.0, "other_rate": 0.0}, "top_rate + other_rate must be > 0"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_config_rejects_a_value_of_the_wrong_type_naming_its_field(config, kwargs, message):
    # each of these used to build a config, load from a bundle and reach a fit
    with pytest.raises(ValueError, match=re.escape(message)):
        config(**kwargs)


def test_config_takes_numpy_integers_ints_for_floats_and_none():
    assert RFConfig(max_depth=np.int64(4), max_features=np.int32(2)).max_depth == 4
    assert MLPConfig(hidden_layers=(np.int64(8), 4)).hidden_layers == (8, 4)
    # no coercion: an int stays the int the grid or bundle gave
    assert type(GBDTConfig(learning_rate=1).learning_rate) is int
    assert RFConfig(max_features=None).max_features is None


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_type_checked_or_listed(config):
    # a new field must take an annotation the rule checks, or join UNCHECKED
    unchecked = {f.name for f in fields(config)} - set(field_rules(config))
    assert unchecked == UNCHECKED.get(config, set())


def test_build_converts_json_values_by_their_field_annotation():
    cfg = build(MLPConfig, {"hidden_layers": [8, 4], "early_stop": {"patience": 3}}, seed=2)
    assert cfg == MLPConfig(hidden_layers=(8, 4), early_stop=EarlyStopConfig(patience=3), seed=2)
    assert build(GBDTConfig, {"goss": {"top_rate": 0.3}}).goss == GossConfig(top_rate=0.3)
    data = build(DataSection, {"train_csv": "a.csv", "test_csv": "b.csv", "schema": "s.json",
                               "sites_csv": ""})
    assert (data.train_csv, data.sites_csv) == (Path("a.csv"), None)
    assert build(RunConfig, {"seed": 1, "data": DATA, "strategy": 2}).strategy \
        is Strategy.STANDARDIZED_NUMERIC


@pytest.mark.parametrize("config, raw, fixed, message", [
    (MLPConfig, {"early_stop": {"bogus": 1}}, {}, "early_stop.bogus is not a setting"),
    (MLPConfig, {"seed": 1}, {"seed": 2}, "seed is not a setting"),
    (MLPConfig, {"early_stop": {"patience": 0}}, {}, "early_stop.patience must be >= 1"),
    # a list of non-integers stays as written, so the fault shows it so
    (MLPConfig, {"hidden_layers": [8, "4"]}, {},
     "hidden_layers must be a tuple of integers, got [8, '4']"),
    (RunConfig, {"data": {}}, {}, "seed must be set"),
    (RunConfig, {"seed": 1, "data": {"train_csv": "a.csv"}}, {}, "data.test_csv must be set"),
    (RunConfig, {"seed": 1, "data": 5}, {}, "data must be a JSON object, got 5"),
    (RegressionTree, [1], {}, "the top level must be a JSON object, got [1]"),
    (Ensemble, {"kind": "forest", "base_score": 0.0, "trees": []}, {},
     "kind must be one of ['random_forest', 'gbdt'], got 'forest'"),
    (Ensemble, {"kind": "gbdt", "base_score": 0.0, "trees": [5]}, {},
     "trees[0] must be a JSON object, got 5"),
    (Ensemble, {"kind": "gbdt", "base_score": 0.0, "trees": {}}, {},
     "trees must be a list, each a JSON object, got {}"),
    (MLPModel, {"weights": [[[1.0]], [1.0]], "biases": [], "activation": "relu"}, {},
     "weights[1] must be a 2-d array of numbers"),
    (StandardizationParams, {"mean": [0.5, None], "sd": [1.0, 1.0]}, {},
     "mean must be a 1-d array of numbers, all finite"),
    (LinearModel, {"intercept": 0.5, "coefficients": [1.5], "sweeps_used": 2.0}, {},
     "sweeps_used must be an integer, got 2.0"),
    # an Enum member is read only from a value of its value's type: an
    # equality read took true for strategy 1 and 2.0 for strategy 2
    (RunConfig, {"seed": 1, "data": DATA, "strategy": True}, {},
     "strategy must be one of [1, 2, 3], got True"),
    (RunConfig, {"seed": 1, "data": DATA, "strategy": 2.0}, {},
     "strategy must be one of [1, 2, 3], got 2.0"),
], ids=["nested-unknown", "fixed", "nested-range", "tuple-item", "missing",
        "nested-missing", "nested-not-object", "not-object", "enum", "tuple-of-models-item",
        "tuple-of-models", "tuple-of-arrays-item", "array-null", "model-int", "enum-bool",
        "enum-float"])
def test_build_fails_naming_the_json_path(config, raw, fixed, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(config, raw, **fixed)


def test_build_reads_back_what_to_json_writes():
    leaf = np.array([np.nan, np.nan])
    tree = RegressionTree(feature=np.array([0, -1, -1], dtype=np.int32),
                          threshold=np.array([0.5, *leaf]), left=np.array([1, -1, -1]),
                          right=np.array([2, -1, -1]), value=np.array([0.0, -1.0, 1.0]),
                          n_samples=np.array([4, 2, 2]), gain=np.array([2.0, 0.0, 0.0]))
    model = Ensemble(kind=EnsembleKind.GBDT, base_score=0.5, trees=(tree, tree),
                     learning_rate=0.1)
    raw = to_json(model)
    assert raw["kind"] == "gbdt" and raw["trees"][1]["feature"] == [0, -1, -1]
    back = build(Ensemble, json.loads(json.dumps(raw)), "params")
    assert back.kind is EnsembleKind.GBDT and len(back.trees) == 2
    # integral arrays come back as int64, the others as float64
    assert back.trees[1].left.dtype == np.int64 and back.trees[1].value.dtype == np.float64
    for name in raw["trees"][0]:
        np.testing.assert_array_equal(getattr(back.trees[1], name), getattr(tree, name))
    assert json.dumps(to_json(back)) == json.dumps(raw)  # NaN != NaN in a list
