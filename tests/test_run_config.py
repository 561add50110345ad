import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_VALUES
from wqpanel.run_config import OUTPUT_DIR_ENV, ConfigError, RunConfig, load_run_config

# every section and option the loader reads, each set to a valid value
VALID_CONFIG = {
    "seed": 7,
    "data": {"train_csv": "train.csv", "test_csv": "test.csv",
             "schema": "schema.json", "sites_csv": "sites.csv"},
    "output_dir": "out",
    "strategy": 3,
    "categoricals": {"site": True, "month": False},
    "cv": {"k": 3, "scheme": "blocked_by_time"},
    "families": ["elastic_net", "mlp"],
    "grids": {"elastic_net": {"lam": [0.01, 0.1], "alpha": [0.5]},
              "mlp": {"hidden_layers": [[4]], "early_stop": [{"patience": 2}]}},
    "shap": {"kind": "retrain", "background_size": 8, "rows": {"sample": 2}, "cap": 10},
    "n_jobs": 2,
}


def _key_paths(node, prefix=()):
    """The path of every key of every JSON object in node, at any depth."""
    for key, value in node.items() if isinstance(node, dict) else ():
        yield (*prefix, key)
        yield from _key_paths(value, (*prefix, key))


KEY_PATHS = sorted(_key_paths(VALID_CONFIG))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    # the output-directory override would hide a bad output_dir
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(OUTPUT_DIR_ENV, raising=False)
        yield tmp_path_factory.mktemp("config") / "config.json"


def test_the_valid_config_loads(config_path):
    config_path.write_text(json.dumps(VALID_CONFIG))
    cfg = load_run_config(config_path)
    assert (cfg.seed, cfg.strategy, cfg.cv_k, cfg.n_jobs) == (7, 3, 3, 2)
    assert cfg.shap_rows == {"sample": 2}


@settings(max_examples=150)
@given(path=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
def test_any_config_value_loads_or_fails_naming_its_key(config_path, path, value):
    raw = copy.deepcopy(VALID_CONFIG)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    config_path.write_text(json.dumps(raw))
    try:
        assert isinstance(load_run_config(config_path), RunConfig)
    except ConfigError as exc:
        assert path[-1] in str(exc), (path, value)
