import copy
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_VALUES
from wqpanel.run_config import (OUTPUT_DIR_ENV, ConfigError, DataSection, RunConfig,
                                ShapSection, load_run_config)
from wqpanel.tuner import CVConfig

README = Path(__file__).resolve().parents[1] / "README.md"

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
    assert (cfg.seed, cfg.strategy, cfg.cv.k, cfg.n_jobs) == (7, 3, 3, 2)
    assert cfg.shap.rows == {"sample": 2}


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


# the JSON objects whose keys are the fields of a config dataclass
SECTIONS = {(): RunConfig, ("data",): DataSection, ("cv",): CVConfig, ("shap",): ShapSection}


@given(section=st.sampled_from(sorted(SECTIONS)), key=st.text(max_size=6))
def test_a_key_that_is_not_a_setting_fails_naming_its_path(config_path, section, key):
    if key in {f.name for f in fields(SECTIONS[section])}:
        return
    raw = copy.deepcopy(VALID_CONFIG)
    parent = raw[section[0]] if section else raw
    parent[key] = 1
    config_path.write_text(json.dumps(raw))
    path = ".".join((*section, key))
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} is not a setting"):
        load_run_config(config_path)


def test_a_config_of_seed_and_data_takes_each_default_of_its_dataclass(config_path):
    config_path.write_text(json.dumps({"seed": 3, "data": VALID_CONFIG["data"]}))
    cfg = load_run_config(config_path)
    assert (cfg.cv, cfg.shap) == (CVConfig(), ShapSection())
    assert cfg == RunConfig(seed=3, data=cfg.data, output_dir=config_path.parent / "out")
    assert cfg.data.train_csv == config_path.parent / "train.csv"


def test_the_readme_run_config_example_loads(tmp_path):
    # unknown keys fail, so the documented example cannot drift from the loader
    section = README.read_text(encoding="utf-8").split("\n## Run config\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    cfg = load_run_config(path)
    assert cfg.seed == 20160128
    assert cfg.data.sites_csv == tmp_path / "sites.csv"
