import numpy as np
import pytest

from wqpanel.cli import grid_for
from wqpanel.families import FAMILIES, TUNABLE_FAMILIES
from wqpanel.tuner import CVConfig, HyperGrid, grid_search


@pytest.mark.parametrize("name", TUNABLE_FAMILIES)
def test_default_grid_names_are_params_and_first_config_fits(name):
    family = FAMILIES[name]
    assert set(family.default_grid) <= family.param_names
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(30, 3))
    y = 0.5 + X @ np.array([0.3, -0.2, 0.1])
    model = family.fit(X, y, grid_for({}, name).configs()[0], 7)
    pred = family.predict(model, X)
    assert pred.shape == (30,)
    assert np.all(np.isfinite(pred))


@pytest.mark.parametrize("name", TUNABLE_FAMILIES)
def test_grid_search_rejects_seed_as_grid_name(name):
    # fit sets the seed itself, so it is no hyperparameter
    X = np.zeros((6, 2))
    with pytest.raises(ValueError, match="'seed'"):
        grid_search(name, HyperGrid(axes={"seed": (1,)}), X, np.zeros(6),
                    CVConfig(k=2))
