import ast
import dataclasses
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import wqpanel
from wqpanel import elastic_net as en
from wqpanel import mlp as nn
from wqpanel import trees as tr
from wqpanel.families import FAMILIES, FAMILY_NAMES, _grouped_folds
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


# each family's learner config dataclasses, whose fields less the run seed
# and the nested GOSS config are its hyperparameters
CONFIG_CLASSES = {"elastic_net": (en.ElasticNetConfig,), "random_forest": (tr.RFConfig,),
                  "gbdt": (tr.GBDTConfig,), "gbdt_goss": (tr.GBDTConfig, tr.GossConfig),
                  "mlp": (nn.MLPConfig,)}


def test_name_table_matches_the_built_entries():
    # run_config and reporting read FAMILY_NAMES without loading a learner,
    # so it must say what the entries and their config dataclasses say
    assert list(FAMILY_NAMES) == list(FAMILIES) == list(CONFIG_CLASSES)
    for name, family in FAMILIES.items():
        fields = {f.name for cls in CONFIG_CLASSES[name] for f in dataclasses.fields(cls)}
        assert family.name == name
        assert family.display_name == FAMILY_NAMES[name].display_name
        assert family.param_names == FAMILY_NAMES[name].param_names == fields - {"seed", "goss"}


def test_the_registry_is_one_dict(monkeypatch):
    # built on first use, then kept: an import, an attribute read and
    # get_family all reach the dict that a patch changes
    import wqpanel.families as fam
    assert fam.FAMILIES is FAMILIES
    patched = dataclasses.replace(FAMILIES["mlp"], cheap_refit=True)
    monkeypatch.setitem(FAMILIES, "mlp", patched)
    assert fam.get_family("mlp") is patched
    with pytest.raises(AttributeError, match="no attribute 'FAMILY'"):
        fam.FAMILY


def test_get_family_builds_one_entry_and_families_completes_it_in_order():
    # in a fresh interpreter: get_family imports only its learner, and the
    # first read of FAMILIES keeps the entries built so far, in registry order
    probe = ("import sys\nfrom wqpanel.families import FAMILY_NAMES, get_family\n"
             "mlp, en = get_family('mlp'), get_family('elastic_net')\n"
             "print('wqpanel.trees' in sys.modules, 'wqpanel.shap_exact' in sys.modules)\n"
             "from wqpanel.families import FAMILIES\n"
             "print(list(FAMILIES) == list(FAMILY_NAMES), FAMILIES['mlp'] is mlp,\n"
             "      FAMILIES['elastic_net'] is en, get_family('gbdt') is FAMILIES['gbdt'])")
    src = str(Path(wqpanel.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == ["False", "False", "True", "True", "True", "True"]


def test_default_grids_list_the_prefix_axis_last():
    # a prefix group's configs are then adjacent, so a fit_folds hook holds
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


class _Model:
    def __init__(self, cfg):
        self.cfg = cfg


def _recording_folds(failing=(), by_fold=False):
    """A grouped fit_folds hook keyed on each config's first letter (and
    on the fold, if ``by_fold``) whose group fit records (configs, models
    alive when it starts, each config's row count) and returns a model per
    config, or a ValueError for the configs in ``failing``; a config
    without a letter fails its key."""
    live, calls = weakref.WeakSet(), []

    def key(cfg, fold, n_rows):
        if not cfg[0].isalpha():
            raise ValueError(f"no group for {cfg}")
        return (fold, cfg[0]) if by_fold else cfg[0]

    def fit_group(X, y, rows, cfgs):
        calls.append((list(cfgs), len(live), [len(r) for r in rows]))
        models = [ValueError(f"{cfg} failed") if cfg in failing else _Model(cfg)
                  for cfg in cfgs]
        live.update(m for m in models if isinstance(m, _Model))
        return models

    return _grouped_folds(key, fit_group), live, calls


def _recording_fold(failing=()):
    """_recording_folds as a hook of one four-row fold."""
    folds, live, calls = _recording_folds(failing)
    return lambda X, y, cfgs: folds(X, y, [np.arange(4)], [cfgs]), live, calls


def test_grouped_fold_fits_a_group_when_due_and_drops_it_after_its_last():
    fold, live, calls = _recording_fold()
    held = []
    for model in fold(None, np.zeros(4), ["a1", "a2", "b1", "b2", "b3", "c1", "a3"]):
        held.append((model.cfg, sorted(m.cfg for m in live)))
        del model
    # "a3" sits apart from its group, so group a is held until it is served
    assert [(group, alive) for group, alive, _ in calls] == [
        (["a1", "a2", "a3"], 0), (["b1", "b2", "b3"], 1), (["c1"], 1)]
    assert held == [("a1", ["a1", "a2", "a3"]), ("a2", ["a2", "a3"]),
                    ("b1", ["a3", "b1", "b2", "b3"]), ("b2", ["a3", "b2", "b3"]),
                    ("b3", ["a3", "b3"]), ("c1", ["a3", "c1"]), ("a3", ["a3"])]
    fold, live, calls = _recording_fold()
    held = []
    for model in fold(None, np.zeros(4), ["a1", "a2", "b1", "b2", "c1"]):
        held.append(len(live))
        del model
    # adjacent groups: each fit starts with nothing held
    assert [alive for _, alive, _ in calls] == [0, 0, 0]
    assert held == [2, 1, 2, 1, 1]


@pytest.mark.parametrize("cfgs, failing, message, served, fitted", [
    (["a1", "a2", "b1", "b2", "c1"], ("b1",), "b1 failed", ["a1", "a2"],
     [["a1", "a2"], ["b1", "b2"]]),
    (["a1", "b1", "2", "b2", "c1"], (), "no group for 2", ["a1", "b1"],
     [["a1"], ["b1", "b2"]]),
    (["a1", "2", "b1"], (), "no group for 2", ["a1"], [["a1"]]),
], ids=["fit", "key", "key_before_a_group"])
def test_grouped_fold_fails_a_config_in_place_before_any_later_group_is_fit(
        cfgs, failing, message, served, fitted):
    fold, _, calls = _recording_fold(failing)
    got = []
    with pytest.raises(ValueError, match=message):
        for model in fold(None, np.zeros(4), cfgs):
            got.append(model.cfg)
    assert got == served
    assert [group for group, _, _ in calls] == fitted


@pytest.mark.parametrize("by_fold, fitted", [
    (False, [(["a1", "a2", "a1"], [3, 3, 2]), (["b1", "b1"], [3, 2])]),
    (True, [(["a1", "a2"], [3, 3]), (["b1"], [3]), (["a1"], [2]), (["b1"], [2])]),
], ids=["across_folds", "per_fold"])
def test_grouped_folds_groups_cells_across_folds_unless_the_key_holds_the_fold(by_fold, fitted):
    # two folds of 3 and 2 training rows; cells come out fold by fold, and
    # a group spanning both folds is fit when its first cell is due
    folds, _, calls = _recording_folds(by_fold=by_fold)
    rows = [np.arange(3), np.arange(2)]
    served = [model.cfg for model in folds(None, None, rows, [["a1", "a2", "b1"], ["a1", "b1"]])]
    assert served == ["a1", "a2", "b1", "a1", "b1"]
    assert [(group, sizes) for group, _, sizes in calls] == fitted


def test_grouped_folds_raises_the_first_failing_cell_fold_by_fold():
    # the group spanning both folds fails on fold 1; the later group fails
    # on fold 0, which comes first
    folds, _, calls = _recording_folds(failing=("a9", "b1"))
    got = []
    with pytest.raises(ValueError, match="b1 failed"):
        for model in folds(None, None, [np.arange(3), np.arange(2)],
                           [["a1", "b1"], ["a9", "b2"]]):
            got.append(model.cfg)
    assert got == ["a1"]
    assert [group for group, _, _ in calls] == [["a1", "a9"], ["b1", "b2"]]
