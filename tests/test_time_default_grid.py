"""scripts/time_default_grid.py, run in process on trimmed default grids."""

import dataclasses
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from wqpanel import elastic_net as en
from wqpanel import mlp as nn
from wqpanel import trees as tr
from wqpanel.families import FAMILIES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "time_default_grid.py"


def _time(monkeypatch, capsys, family, grid, *panel_args):
    # the script counts trees, searches and fits by rebinding the grower and
    # the split search on trees and the fit on elastic_net; patching them
    # first makes monkeypatch put the originals back afterwards
    monkeypatch.setattr(tr, "_grow_batch", tr._grow_batch)
    monkeypatch.setattr(tr, "_search", tr._search)
    monkeypatch.setattr(en, "fit_elastic_net", en.fit_elastic_net)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setitem(FAMILIES, family,
                        dataclasses.replace(FAMILIES[family], default_grid=grid))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--family", family, *panel_args])
    spec = importlib.util.spec_from_file_location("time_default_grid", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    return json.loads(capsys.readouterr().out)


def test_gbdt_grid_is_one_task_of_prefix_models(monkeypatch, capsys):
    record = _time(monkeypatch, capsys, "gbdt", {"n_trees": [2, 3], "max_depth": [2]})
    assert (record["configs"], record["trees_grown"]) == (2, 3)
    # a boosted tree's step scores its one node: the root, then at most
    # two children at depth 1
    assert record["searches"] == record["nodes_searched"]
    assert 3 <= record["searches"] <= 3 * 3
    assert record["rows"] > 0 and record["wall_s"] >= 0
    assert record["fits_at_max_iter"] == 0


def test_elastic_net_fits_stopped_at_max_iter_are_counted(monkeypatch, capsys):
    # the config takes more than two steps, so the fits cut at one and two count
    grid = {"lam": [1e-4], "alpha": [0.5], "max_iter": [1, 2, 1000]}
    record = _time(monkeypatch, capsys, "elastic_net", grid)
    assert (record["configs"], record["trees_grown"]) == (3, 0)
    assert (record["searches"], record["nodes_searched"]) == (0, 0)
    assert record["fits_at_max_iter"] == 2


def test_random_forest_grid_is_one_task(monkeypatch, capsys):
    record = _time(monkeypatch, capsys, "random_forest",
                   {"n_trees": [2], "max_depth": [2, 3]})
    assert (record["configs"], record["trees_grown"]) == (2, 4)
    # a forest's steps score a node of each of its growing trees: at least
    # the four roots, at most the 2 * (3 + 7) internal nodes of full trees
    assert record["searches"] < record["nodes_searched"]
    assert 4 <= record["nodes_searched"] <= 20


@pytest.mark.parametrize("family", ["random_forest", "gbdt_goss"])
def test_prefix_grid_grows_its_longest_fit_once(monkeypatch, capsys, family):
    record = _time(monkeypatch, capsys, family, {"max_depth": [2], "n_trees": [2, 3]})
    assert (record["configs"], record["trees_grown"]) == (2, 3)


def test_panel_size_options_reach_the_generator(monkeypatch, capsys):
    grid = {"n_trees": [2], "max_depth": [2]}
    demo = _time(monkeypatch, capsys, "random_forest", grid)
    for panel_args, ratio in ((("--sites", "12"), 2), (("--train-dates", "120", "--sites", "12"), 4)):
        record = _time(monkeypatch, capsys, "random_forest", grid, *panel_args)
        assert record["columns"] == demo["columns"]
        # fold 0 holds 4 of 5 folds of dates x sites rows
        assert record["rows"] == ratio * demo["rows"]


def test_mlp_grid_is_one_task_of_fold_0(monkeypatch, capsys):
    # two architectures, two lockstep stacks of one fold's configs
    stacks = []

    def counted(X, y, cfgs, rows, _stack=nn._fit_stack):
        stacks.append([len(base) for base in rows])
        return _stack(X, y, cfgs, rows)

    monkeypatch.setattr(nn, "_fit_stack", counted)
    grid = {"hidden_layers": [[3], [2]], "activation": ["relu", "tanh"], "max_epochs": [2]}
    record = _time(monkeypatch, capsys, "mlp", grid)
    assert (record["configs"], record["trees_grown"], record["fits_at_max_iter"]) == (4, 0, 0)
    assert stacks == [[record["rows"]] * 2] * 2
