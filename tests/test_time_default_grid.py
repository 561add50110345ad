"""scripts/time_default_grid.py, run in process on trimmed default grids."""

import dataclasses
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from wqpanel import trees as tr
from wqpanel.families import FAMILIES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "time_default_grid.py"


def _time(monkeypatch, capsys, family, grid, *panel_args):
    # the script counts trees by rebinding the grower on trees; patching it
    # first makes monkeypatch put the original back afterwards
    monkeypatch.setattr(tr, "_grow_batch", tr._grow_batch)
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
    assert record["rows"] > 0 and record["wall_s"] >= 0


def test_random_forest_grid_is_one_task(monkeypatch, capsys):
    record = _time(monkeypatch, capsys, "random_forest",
                   {"n_trees": [2], "max_depth": [2, 3]})
    assert (record["configs"], record["trees_grown"]) == (2, 4)


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
