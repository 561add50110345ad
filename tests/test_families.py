import ast
from pathlib import Path

import numpy as np
import pytest

import wqpanel
from wqpanel.families import FAMILIES
from wqpanel.trees import EnsembleKind
from wqpanel.tuner import CVConfig, grid_configs, grid_search


SEEDED_FAMILIES = {"random_forest", "gbdt", "gbdt_goss", "mlp"}


@pytest.mark.parametrize("name", FAMILIES)
def test_default_grid_names_are_params_and_first_config_fits(name):
    family = FAMILIES[name]
    assert set(family.default_grid) <= family.param_names
    params = grid_configs(family.default_grid)[0]
    cfg = family.config(params, 7)
    for axis, value in params.items():
        # GOSS keeps its rates in a nested config; lists are built as tuples
        built = getattr(cfg.goss if axis in ("top_rate", "other_rate") else cfg, axis)
        assert built == (tuple(value) if isinstance(value, list) else value), axis
    assert (getattr(cfg, "seed", None) == 7) == (name in SEEDED_FAMILIES)
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(30, 3))
    y = 0.5 + X @ np.array([0.3, -0.2, 0.1])
    model = family.fit(X, y, cfg)
    pred = family.predict(model, X)
    assert pred.shape == (30,)
    assert np.all(np.isfinite(pred))


def test_default_grids_list_the_prefix_axis_last():
    # a prefix group's configs are then adjacent, so a fit_fold hook holds
    # one longest fit at a time, not one per setting of the other axes
    prefixed = {name for name, family in FAMILIES.items() if family.prefix_axis}
    assert prefixed == {"random_forest", "gbdt", "gbdt_goss"}
    for name in prefixed:
        family = FAMILIES[name]
        assert list(family.default_grid)[-1] == family.prefix_axis == "n_trees", name


@pytest.mark.parametrize("name", FAMILIES)
def test_grid_search_rejects_seed_as_grid_name(name):
    # the config builder sets the seed itself, so it is no hyperparameter
    X = np.zeros((6, 2))
    with pytest.raises(ValueError, match="'seed'"):
        grid_search(name, {"seed": (1,)}, X, np.zeros(6),
                    CVConfig(k=2))


def test_only_the_registry_names_families():
    # families.py is the one module that knows individual families; the
    # ensemble kinds of the bundle format are the one exception
    kinds = {kind.value for kind in EnsembleKind}
    package = Path(wqpanel.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and node.value in FAMILIES
                    and not (path.name == "trees.py" and node.value in kinds)):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found
