import json

import numpy as np
import pytest

from wqpanel.families import FAMILIES
from wqpanel.features import Strategy, StrategyConfig
from wqpanel.serialize import PipelineState, load_model, save_model


@pytest.fixture
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
    "benchmark": {},
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
    model = family.fit(X, y, FIT_PARAMS[family_name], 11)
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
    family = FAMILIES["benchmark"]
    model = family.fit(None, np.array([1.0, 2.0]), {}, 0)
    path = tmp_path / "model.json"
    save_model(path, "benchmark", model, {}, 0, pipeline_state)
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
}


@pytest.mark.parametrize("case", sorted(CORRUPT_BUNDLES))
def test_corrupt_bundle_rejected_naming_field_and_node(case, pipeline_state, tmp_path):
    family_name, corrupt, message = CORRUPT_BUNDLES[case]
    rng = np.random.default_rng(21)
    X = rng.standard_normal((30, 3))
    y = X @ [0.5, -0.25, 0.1] + 0.05 * rng.standard_normal(30)
    model = FAMILIES[family_name].fit(X, y, FIT_PARAMS[family_name], 11)
    path = tmp_path / "model.json"
    save_model(path, family_name, model, FIT_PARAMS[family_name], 11, pipeline_state)
    payload = json.loads(path.read_text())
    corrupt(payload["params"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_model(path)
