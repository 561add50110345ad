import copy
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wqpanel.families import FAMILIES
from wqpanel.features import Strategy, StrategyConfig
from wqpanel.serialize import PipelineState, load_model, save_model


@pytest.fixture(scope="module")
def pipeline_state():
    return PipelineState(
        strategy=StrategyConfig(strategy=Strategy.RAW_NUMERIC),
        numeric_names=("X1", "X2", "X3"),
        column_names=("X1", "X2", "X3"),
        kinds=("numeric",) * 3,
        groups={},
        standardizer=None,
        site_vocabulary=("a", "b"),
    )


FIT_PARAMS = {
    "elastic_net": {"lam": 0.01, "alpha": 0.5},
    "random_forest": {"n_trees": 3, "max_depth": 3},
    "gbdt": {"n_trees": 4, "max_depth": 2},
    "gbdt_goss": {"n_trees": 4, "max_depth": 2, "top_rate": 0.3, "other_rate": 0.2},
    "mlp": {"hidden_layers": [4], "activation": "tanh", "max_epochs": 5,
            "learning_rate": 0.01, "batch_size": 8},
}


@pytest.mark.parametrize("family_name", sorted(FIT_PARAMS))
def test_round_trip_preserves_predictions(family_name, pipeline_state, tmp_path):
    rng = np.random.default_rng(hash(family_name) % 2**32)
    X = rng.standard_normal((30, 3))
    y = 1.0 + X @ [0.5, -0.25, 0.1] + 0.05 * rng.standard_normal(30)

    family = FAMILIES[family_name]
    model = family.fit(X, y, family.config(FIT_PARAMS[family_name], 11))
    path = tmp_path / f"{family_name}.json"
    save_model(path, family_name, model, FIT_PARAMS[family_name], 11, pipeline_state)

    bundle = load_model(path)
    assert bundle.family.name == family_name
    assert bundle.seed == 11
    assert bundle.hyper_params == json.loads(json.dumps(FIT_PARAMS[family_name]))
    assert bundle.pipeline.column_names == pipeline_state.column_names
    np.testing.assert_array_equal(family.predict(bundle.model, X),
                                  family.predict(model, X))


def test_unsupported_version_rejected(pipeline_state, tmp_path):
    family = FAMILIES["elastic_net"]
    X = np.eye(3)
    model = family.fit(X, np.array([1.0, 2.0, 4.0]), family.config({}, 0))
    path = tmp_path / "model.json"
    save_model(path, "elastic_net", model, {}, 0, pipeline_state)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_pipeline_state_round_trip():
    from wqpanel.features import StandardizationParams

    state = PipelineState(
        strategy=StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL,
                                year_ordinal=True),
        numeric_names=("X1", "year"),
        column_names=("X1", "year", "site=a", "site=b"),
        kinds=("numeric", "numeric", "one_hot", "one_hot"),
        groups={"site": [2, 3]},
        standardizer=StandardizationParams(mean=np.array([0.5, 2017.0]),
                                           sd=np.array([0.1, 1.0])),
        site_vocabulary=("a", "b"),
    )
    back = PipelineState.from_dict(json.loads(json.dumps(state.as_dict())))
    assert back.strategy == state.strategy
    assert back.column_names == state.column_names
    assert back.groups == state.groups
    np.testing.assert_array_equal(back.standardizer.mean, state.standardizer.mean)
    np.testing.assert_array_equal(back.standardizer.sd, state.standardizer.sd)

    raw = state.as_dict()
    raw["standardizer"]["sd"][1] = None
    with pytest.raises(ValueError, match="pipeline.standardizer.sd must be a 1-d array"
                                         " of numbers, all finite"):
        PipelineState.from_dict(raw)
    raw["standardizer"]["sd"][1] = "1.0"
    with pytest.raises(ValueError, match="pipeline.standardizer.sd must be a 1-d array"
                                         " of numbers$"):
        PipelineState.from_dict(raw)


def _first_leaf(tree):
    return tree["feature"].index(-1)


def _set(tree, name, index, value):
    tree[name][index] = value


CORRUPT_BUNDLES = {
    "child out of range": ("random_forest",
                           lambda p: _set(p["trees"][1], "right", 0,
                                          len(p["trees"][1]["feature"])),
                           r"trees\[1\]\.right\[0\] = \d+ must be a node after"),
    "child before parent": ("gbdt", lambda p: _set(p["trees"][0], "left", 0, 0),
                            r"trees\[0\]\.left\[0\] = 0 must be a node after"),
    "leaf with a child": ("gbdt",
                          lambda p: _set(p["trees"][0], "right",
                                         _first_leaf(p["trees"][0]), 1),
                          r"trees\[0\]\.right\[\d+\] = 1 must be -1 at a leaf"),
    "bad leaf marker": ("gbdt_goss",
                        lambda p: _set(p["trees"][2], "feature",
                                       _first_leaf(p["trees"][2]), -7),
                        r"trees\[2\]\.feature\[\d+\] = -7 must be -1 at a leaf"),
    "split feature past the design": ("gbdt", lambda p: _set(p["trees"][3], "feature", 0, 3),
                                      r"trees\[3\]\.feature\[0\] = 3 must be below "
                                      r"the 3 design columns"),
    "ragged arena": ("random_forest", lambda p: p["trees"][0]["value"].pop(),
                     r"trees\[0\]\.value has"),
    "linear width": ("elastic_net", lambda p: p["coefficients"].append(0.0),
                     "coefficients has 4 entries, the design has 3 columns"),
    "mlp width": ("mlp", lambda p: p["weights"][0].append(p["weights"][0][0]),
                  r"weights\[0\] has 4 input rows, the design has 3 columns"),
    "tree array not a list": ("gbdt", lambda p: p["trees"][1].update(gain=5),
                              r"trees\[1\]\.gain must be a 1-d array of numbers"),
    "tree array of strings": ("random_forest", lambda p: _set(p["trees"][0], "left", 0, "x"),
                              r"trees\[0\]\.left must be a 1-d array of numbers"),
    "linear coefficients not numbers": ("elastic_net", lambda p: _set(p, "coefficients", 1, [2]),
                                        "coefficients must be a 1-d array of numbers"),
    "mlp weights not a matrix": ("mlp", lambda p: _set(p, "weights", 1, 5),
                                 r"weights\[1\] must be a 2-d array of numbers"),
    "mlp biases not a vector": ("mlp", lambda p: _set(p, "biases", 0, [[0.5]]),
                                r"biases\[0\] must be a 1-d array of numbers"),
    "intercept not a number": ("elastic_net", lambda p: p.update(intercept="x"),
                               "intercept must be a number"),
    "base score not a number": ("gbdt_goss", lambda p: p.update(base_score={"x": 1}),
                                "base_score must be a number"),
    "learning rate not a number": ("gbdt", lambda p: p.update(learning_rate=[0.1]),
                                   "learning_rate must be a number"),
    # JSON null reads as NaN; NaN and infinities are valid only as a leaf threshold
    "base score null": ("gbdt", lambda p: p.update(base_score=None),
                        "base_score must be a number, all finite"),
    "learning rate infinite": ("gbdt_goss", lambda p: p.update(learning_rate=float("inf")),
                               "learning_rate must be a number, all finite"),
    "intercept NaN": ("elastic_net", lambda p: p.update(intercept=float("nan")),
                      "intercept must be a number, all finite"),
    "intercept null": ("elastic_net", lambda p: p.update(intercept=None),
                       "intercept must be a number, all finite"),
    "coefficient NaN": ("elastic_net", lambda p: _set(p, "coefficients", 2, float("nan")),
                        "coefficients must be a 1-d array of numbers, all finite"),
    "tree value null": ("random_forest", lambda p: _set(p["trees"][2], "value", 0, None),
                        r"trees\[2\]\.value must be a 1-d array of numbers, all finite"),
    "tree gain infinite": ("gbdt", lambda p: _set(p["trees"][0], "gain", 0, float("-inf")),
                           r"trees\[0\]\.gain must be a 1-d array of numbers, all finite"),
    "tree sample count null": ("gbdt", lambda p: _set(p["trees"][0], "n_samples", 0, None),
                               r"trees\[0\]\.n_samples must be a 1-d array of numbers"),
    "leaf threshold null": ("gbdt", lambda p: _set(p["trees"][1], "threshold",
                                                   _first_leaf(p["trees"][1]), None),
                            r"trees\[1\]\.threshold must be a 1-d array of numbers, not null"),
    "split threshold NaN": ("random_forest",
                            lambda p: _set(p["trees"][0], "threshold", 0, float("nan")),
                            r"trees\[0\]\.threshold\[0\] = nan must be finite at a split"),
    "mlp weight null": ("mlp", lambda p: _set(p["weights"][1], 2, 0, None),
                        r"weights\[1\] must be a 2-d array of numbers, all finite"),
    "mlp bias infinite": ("mlp", lambda p: _set(p, "biases", 0, [float("inf")] * 4),
                          r"biases\[0\] must be a 1-d array of numbers, all finite"),
    # a bundle number is a JSON number, not a string or a bool, and an
    # integer field holds integers: these used to load, cast or truncated
    "tree value string": ("random_forest", lambda p: _set(p["trees"][0], "value", 0, "0.5"),
                          r"trees\[0\]\.value must be a 1-d array of numbers$"),
    "tree gain bool": ("gbdt", lambda p: _set(p["trees"][1], "gain", 0, True),
                       r"trees\[1\]\.gain must be a 1-d array of numbers$"),
    "split threshold string": ("gbdt", lambda p: _set(p["trees"][0], "threshold", 0, "0.5"),
                               r"trees\[0\]\.threshold must be a 1-d array of numbers$"),
    "tree feature fraction": ("gbdt", lambda p: _set(p["trees"][0], "feature", 0, 1.5),
                              r"trees\[0\]\.feature must be a 1-d array of numbers, "
                              r"all integers"),
    "tree child fraction": ("random_forest",
                            lambda p: _set(p["trees"][0], "left", 0,
                                           p["trees"][0]["left"][0] + 0.5),
                            r"trees\[0\]\.left must be a 1-d array of numbers, all integers"),
    "tree sample count huge": ("gbdt", lambda p: _set(p["trees"][0], "n_samples", 0, 2**70),
                               r"trees\[0\]\.n_samples must be a 1-d array of numbers, "
                               r"all integers"),
    "tree sample count bool": ("gbdt_goss", lambda p: _set(p["trees"][0], "n_samples", 0, True),
                               r"trees\[0\]\.n_samples must be a 1-d array of numbers$"),
    "base score string": ("gbdt", lambda p: p.update(base_score="0.5"),
                          "base_score must be a number$"),
    "learning rate bool": ("gbdt_goss", lambda p: p.update(learning_rate=True),
                           "learning_rate must be a number$"),
    "intercept string": ("elastic_net", lambda p: p.update(intercept="7.5"),
                         "intercept must be a number$"),
    "coefficient beyond the doubles": ("elastic_net",
                                       lambda p: _set(p, "coefficients", 0, 10**400),
                                       "coefficients must be a 1-d array of numbers, "
                                       "all finite"),
    "coefficient bool": ("elastic_net", lambda p: _set(p, "coefficients", 0, False),
                         "coefficients must be a 1-d array of numbers$"),
    "sweeps used fraction": ("elastic_net", lambda p: p.update(sweeps_used=3.5),
                             "sweeps_used must be a number, all integers"),
    "sweeps used null": ("elastic_net", lambda p: p.update(sweeps_used=None),
                         "sweeps_used must be a number, all finite"),
    "sweeps used negative": ("elastic_net", lambda p: p.update(sweeps_used=-2),
                             "sweeps_used = -2 must be >= 0"),
    "mlp weight string": ("mlp", lambda p: _set(p["weights"][0], 1, 0, "0.1"),
                          r"weights\[0\] must be a 2-d array of numbers$"),
    "mlp bias bool": ("mlp", lambda p: _set(p["biases"], 1, 0, True),
                      r"biases\[1\] must be a 1-d array of numbers$"),
    # the chain of layer shapes
    "mlp bias short": ("mlp", lambda p: p["biases"][0].pop(),
                       r"biases\[0\] has 3 entries, weights\[0\] has 4 columns"),
    "mlp hidden rows": ("mlp", lambda p: p["weights"][1].pop(),
                        r"weights\[1\] has 3 input rows, weights\[0\] has 4 columns"),
    "mlp two outputs": ("mlp", lambda p: (p["biases"][1].append(0.0),
                                          [row.append(0.0) for row in p["weights"][1]]),
                        r"weights\[1\] has 2 columns, the output layer needs 1"),
    "mlp layer counts": ("mlp", lambda p: p["biases"].pop(),
                         "weights has 2 layers, biases has 1"),
    "mlp no layers": ("mlp", lambda p: (p["weights"].clear(), p["biases"].clear()),
                      "weights has 0 layers, biases has 0"),
    # a dict sets top-level bundle fields: the config must be one the
    # family's config builder accepts, the seed a non-negative integer
    "config not an object": ("elastic_net", {"config": [1]},
                             r"config must be a JSON object, got \[1\]"),
    "config value string": ("elastic_net", {"config": {"lam": "x"}},
                            r"config \{'lam': 'x'\} is invalid"),
    "config unknown name": ("random_forest", {"config": {"depth": 3}},
                            r"config \{'depth': 3\} is invalid"),
    "config bad layers": ("mlp", {"config": {"hidden_layers": 4}},
                          r"config \{'hidden_layers': 4\} is invalid"),
    # these loaded, and a retrain explain then died in range(max_iter) or
    # refit with NaN
    "config max_iter fraction": ("elastic_net", {"config": {"max_iter": 2.5}},
                                 r"config \{'max_iter': 2\.5\} is invalid: "
                                 r"max_iter must be an integer, got 2\.5"),
    "config max_iter bool": ("elastic_net", {"config": {"max_iter": True}},
                             "max_iter must be an integer, got True"),
    "config max_iter huge": ("elastic_net", {"config": {"max_iter": 1e308}},
                             r"max_iter must be an integer, got 1e\+308"),
    # these loaded, and tune then failed in SeedSequence.spawn without
    # naming the field, or fit True as 1 tree and 0.0 as none
    "config n_trees float": ("random_forest", {"config": {"n_trees": 2.0}},
                             r"config \{'n_trees': 2\.0\} is invalid: "
                             r"n_trees must be an integer, got 2\.0"),
    "config n_trees bool": ("gbdt", {"config": {"n_trees": True}},
                            "n_trees must be an integer, got True"),
    "config n_trees zero float": ("gbdt", {"config": {"n_trees": 0.0}},
                                  r"n_trees must be an integer, got 0\.0"),
    "config lam NaN": ("elastic_net", {"config": {"lam": float("nan")}},
                       r"config \{'lam': nan\} is invalid: lam must be finite, got nan"),
    "config tol infinite": ("elastic_net", {"config": {"tol": float("inf")}},
                            "tol must be finite, got inf"),
    # math.isfinite raises OverflowError on an int this large
    "config lam huge int": ("elastic_net", {"config": {"lam": 10 ** 400}},
                            "lam must be finite, got 1000"),
    # these loaded, and a fit then died in Generator.choice or range(), fit
    # on NaN child weights, or standardized on a string
    "config max_features fraction": ("random_forest", {"config": {"max_features": 1.5}},
                                     r"config \{'max_features': 1\.5\} is invalid: "
                                     r"max_features must be an integer, got 1\.5"),
    "config batch_size fraction": ("mlp", {"config": {"batch_size": 8.5}},
                                   r"batch_size must be an integer, got 8\.5"),
    "config min_child_weight NaN": ("gbdt", {"config": {"min_child_weight": float("nan")}},
                                    "min_child_weight must be finite, got nan"),
    "config standardize_internally string": ("elastic_net",
                                             {"config": {"standardize_internally": "no"}},
                                             "standardize_internally must be a bool, got 'no'"),
    "seed negative": ("gbdt", {"seed": -1}, "seed must be a non-negative integer, got -1"),
    "seed bool": ("elastic_net", {"seed": True},
                  "seed must be a non-negative integer, got True"),
    "seed string": ("random_forest", {"seed": "11"},
                    "seed must be a non-negative integer, got '11'"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_BUNDLES))
def test_corrupt_bundle_rejected_naming_field_and_node(case, pipeline_state, tmp_path):
    family_name, corrupt, message = CORRUPT_BUNDLES[case]
    rng = np.random.default_rng(21)
    X = rng.standard_normal((30, 3))
    y = X @ [0.5, -0.25, 0.1] + 0.05 * rng.standard_normal(30)
    family = FAMILIES[family_name]
    model = family.fit(X, y, family.config(FIT_PARAMS[family_name], 11))
    path = tmp_path / "model.json"
    save_model(path, family_name, model, FIT_PARAMS[family_name], 11, pipeline_state)
    payload = json.loads(path.read_text())
    if isinstance(corrupt, dict):
        payload.update(corrupt)
    else:
        corrupt(payload["params"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_model(path)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(min_value=-2, max_value=2**64) | st.sampled_from([-1, 0, 10**400]),
    st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=5)


@pytest.fixture(scope="module")
def fitted_bundles(pipeline_state, tmp_path_factory):
    """A bundle path and a valid bundle payload of each family, fit on a
    tiny design."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 3))
    y = X @ [0.5, -0.25, 0.1]
    path = tmp_path_factory.mktemp("bundles") / "model.json"
    payloads = {}
    for name, params in FIT_PARAMS.items():
        family = FAMILIES[name]
        model = family.fit(X, y, family.config(params, 3))
        save_model(path, name, model, params, 3, pipeline_state)
        payloads[name] = json.loads(path.read_text())
    return path, payloads


@given(data=st.data())
def test_any_bundle_config_value_loads_or_fails_naming_file_and_config(fitted_bundles, data):
    # a loaded config is never fit: a huge n_trees or layer width is valid
    path, payloads = fitted_bundles
    name = data.draw(st.sampled_from(sorted(payloads)))
    payload = copy.deepcopy(payloads[name])
    field = data.draw(st.sampled_from(sorted(FAMILIES[name].param_names)))
    payload["config"][field] = data.draw(JSON_VALUES)
    path.write_text(json.dumps(payload))
    try:
        load_model(path)
    except ValueError as exc:
        assert str(path) in str(exc) and "config" in str(exc)
