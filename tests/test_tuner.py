import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import linked_panel
from wqpanel.features import Strategy, StrategyConfig
from wqpanel.reporting import (EXTERNAL_ROW_LABEL, persist_pipeline_result,
                               render_results_csv)
from wqpanel.tuner import (CVConfig, FitFailedError, FoldScheme, HyperGrid,
                           default_grid, grid_search, kfold_split, run_pipeline,
                           subseed)


# ------------------------------------------------------------------ folds

def test_kfold_partitions_ten_rows():
    folds = kfold_split(10, CVConfig(k=5, seed=0))
    vals = [v for _, v in folds]
    assert all(len(v) == 2 for v in vals)
    union = np.sort(np.concatenate(vals))
    np.testing.assert_array_equal(union, np.arange(10))
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            assert len(np.intersect1d(a, b)) == 0


def test_blocked_folds_are_contiguous_chunks():
    folds = kfold_split(6, CVConfig(k=3, seed=9, scheme=FoldScheme.BLOCKED_BY_TIME))
    vals = [v.tolist() for _, v in folds]
    assert vals == [[0, 1], [2, 3], [4, 5]]


def test_folds_deterministic_under_seed():
    a = kfold_split(23, CVConfig(k=4, seed=3))
    b = kfold_split(23, CVConfig(k=4, seed=3))
    for (ta, va), (tb, vb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(va, vb)
    c = kfold_split(23, CVConfig(k=4, seed=4))
    assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c))


@given(st.integers(2, 8), st.integers(0, 50), st.sampled_from(list(FoldScheme)))
def test_kfold_properties(k, extra, scheme):
    n = k + extra
    folds = kfold_split(n, CVConfig(k=k, seed=1, scheme=scheme))
    assert len(folds) == k
    sizes = [len(v) for _, v in folds]
    assert max(sizes) - min(sizes) <= 1
    all_vals = np.sort(np.concatenate([v for _, v in folds]))
    np.testing.assert_array_equal(all_vals, np.arange(n))
    for train, val in folds:
        # no leakage: a validation row never sits in its own training set
        assert len(np.intersect1d(train, val)) == 0
        assert len(train) + len(val) == n


def test_kfold_rejects_small_n_and_k():
    with pytest.raises(ValueError):
        kfold_split(3, CVConfig(k=5, seed=0))
    with pytest.raises(ValueError):
        CVConfig(k=1, seed=0)


# ------------------------------------------------------------------ grid

def test_hypergrid_enumeration_order_and_len():
    grid = HyperGrid(axes={"a": (1, 2), "b": ("x", "y", "z")})
    configs = grid.configs()
    assert len(grid) == 6 and len(configs) == 6
    assert configs[0] == {"a": 1, "b": "x"}
    assert configs[1] == {"a": 1, "b": "y"}
    assert configs[-1] == {"a": 2, "b": "z"}


def test_hypergrid_empty_axis_rejected():
    with pytest.raises(ValueError, match="empty"):
        HyperGrid(axes={"a": ()})


def test_default_grids_match_fit_budgets():
    # config count x 5 folds must land on the published per-family budgets
    assert len(default_grid("elastic_net")) * 5 == 150
    assert len(default_grid("gbdt_goss")) * 5 == 2000
    assert len(default_grid("gbdt")) * 5 == 5760
    assert len(default_grid("random_forest")) * 5 == 1200
    assert len(default_grid("mlp")) * 5 == 40


# ------------------------------------------------------------------ search

def _search_data(seed=0, n=60, p=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = 0.7 + X @ np.linspace(1.0, 0.5, p) + 0.05 * rng.standard_normal(n)
    return X, y + 2.0  # keep targets away from the metric guards


def test_single_config_grid_runs_k_fits():
    X, y = _search_data()
    result = grid_search("elastic_net", HyperGrid(axes={"lam": (0.01,)}),
                         X, y, CVConfig(k=5, seed=1), seed=7)
    assert result.total_fits == 5
    assert result.best_config == {"lam": 0.01}
    assert len(result.fold_scores[0]) == 5
    assert result.average_tuning == pytest.approx(result.tuning_time / 5)


def test_thirty_config_grid_gives_150_fits():
    X, y = _search_data()
    grid = HyperGrid(axes={"lam": tuple(10.0 ** -e for e in range(5)),
                           "alpha": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)})
    assert len(grid) == 30
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=5, seed=1), seed=7)
    assert result.total_fits == 150
    assert len(grid.configs()) * 5 == result.total_fits


def test_winner_attains_max_mean_score():
    X, y = _search_data(seed=3)
    grid = HyperGrid(axes={"lam": (1e-6, 0.1, 10.0), "alpha": (0.0, 1.0)})
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=4, seed=2), seed=5)
    assert result.mean_scores[result.best_index] == max(result.mean_scores)


def test_data_generating_config_ranks_first():
    # noiseless linear data: the unpenalized config must win the search
    rng = np.random.default_rng(4)
    X = rng.standard_normal((80, 3))
    y = 3.0 + X @ np.array([2.0, -1.0, 0.5])
    grid = HyperGrid(axes={"lam": (1e-8, 5.0), "alpha": (1.0,)})
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=5, seed=0), seed=0)
    assert result.best_config["lam"] == 1e-8


def test_tie_breaks_to_earliest_config():
    X, y = _search_data(seed=5)
    grid = HyperGrid(axes={"lam": (0.01, 0.01)})  # duplicated axis value
    result = grid_search("elastic_net", grid, X, y, CVConfig(k=3, seed=1), seed=1)
    assert result.best_index == 0


def test_parallel_matches_serial():
    X, y = _search_data(seed=6, n=48)
    grid = HyperGrid(axes={"n_trees": (3, 6), "max_depth": (2,)})
    cv = CVConfig(k=3, seed=4)
    serial = grid_search("random_forest", grid, X, y, cv, seed=11, n_jobs=1)
    parallel = grid_search("random_forest", grid, X, y, cv, seed=11, n_jobs=2)
    assert serial.best_config == parallel.best_config
    assert serial.mean_scores == parallel.mean_scores
    assert serial.fold_scores == parallel.fold_scores


def test_invalid_grid_name_rejected():
    X, y = _search_data()
    with pytest.raises(ValueError, match="invalid for family"):
        grid_search("elastic_net", HyperGrid(axes={"depth": (1,)}),
                    X, y, CVConfig(k=3, seed=0))


def test_fit_failure_identifies_config():
    X, y = _search_data(n=20)
    grid = HyperGrid(axes={"lam": (-1.0,)})  # invalid once the config is built
    with pytest.raises(FitFailedError, match="lam"):
        grid_search("elastic_net", grid, X, y, CVConfig(k=3, seed=0))


def test_seeded_search_reproducible():
    X, y = _search_data(seed=8)
    grid = HyperGrid(axes={"n_trees": (4,), "max_depth": (2, 3)})
    cv = CVConfig(k=3, seed=2)
    a = grid_search("random_forest", grid, X, y, cv, seed=21)
    b = grid_search("random_forest", grid, X, y, cv, seed=21)
    assert a.mean_scores == b.mean_scores
    assert a.best_config == b.best_config


def test_subseed_is_deterministic_and_tag_sensitive():
    assert subseed(5, 1, 2) == subseed(5, 1, 2)
    assert subseed(5, 1, 2) != subseed(5, 2, 1)
    assert subseed(5, 1) != subseed(6, 1)


# ------------------------------------------------------------------ pipeline

@pytest.fixture(scope="module")
def panels():
    train = linked_panel(12, 3, 4, seed=1, noise=0.01)
    test = linked_panel(6, 3, 4, seed=2, noise=0.01)
    return train, test


def _family_grids():
    return {"elastic_net": HyperGrid(axes={"lam": (1e-6, 0.1), "alpha": (0.5,)}),
            "gbdt": HyperGrid(axes={"n_trees": (5,), "max_depth": (2,)})}


def test_run_pipeline_builds_tables_per_strategy(panels):
    train, test = panels
    cv = CVConfig(k=3, seed=subseed(99, 1))
    tables = {}
    for strategy in (1, 2, 3):
        cfg = StrategyConfig(strategy=Strategy(strategy))
        result = run_pipeline(train, test, cfg, _family_grids(), cv, seed=99)
        tables[strategy] = result.results_table
        labels = [label for label, _ in result.results_table.rows]
        assert labels[0] == EXTERNAL_ROW_LABEL
        assert "Benchmarking" in labels
        assert "Linear Regression" in labels and "GBDT" in labels
        for _, vals in result.results_table.rows[1:]:
            assert all(v is not None and v >= 0 for v in vals.values())
    # the benchmark ignores features: identical row across strategies
    bench = [dict(tables[s].rows)["Benchmarking"] for s in (1, 2, 3)]
    assert bench[0] == bench[1] == bench[2]


def test_run_pipeline_importances_and_timing(panels):
    train, test = panels
    cv = CVConfig(k=3, seed=subseed(7, 1))
    result = run_pipeline(train, test, StrategyConfig(strategy=Strategy.RAW_NUMERIC),
                          _family_grids(), cv, seed=7)
    assert result.importances["elastic_net"] is not None
    assert set(result.importances["gbdt"]) == set(result.pipeline_state.column_names)
    for tuning in result.tuning.values():
        assert tuning.tuning_time > 0
        assert tuning.average_tuning == pytest.approx(
            tuning.tuning_time / tuning.total_fits)


def test_run_pipeline_persists_byte_identically(panels, tmp_path):
    train, test = panels
    cv = CVConfig(k=3, seed=subseed(31, 1))
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_NUMERIC)

    outputs = {}
    for run in ("a", "b"):
        result = run_pipeline(train, test, cfg, _family_grids(), cv, seed=31)
        out = tmp_path / run
        persist_pipeline_result(result, out, seed=31)
        outputs[run] = {p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()}
    assert set(outputs["a"]) == set(outputs["b"])
    for rel, blob in outputs["a"].items():
        if rel.name.startswith("timing_"):
            continue  # wall-clock: the one legitimately varying artifact
        assert outputs["b"][rel] == blob, f"{rel} differs between identical runs"


def test_results_csv_display_formatting():
    from wqpanel.metrics import evaluate
    from wqpanel.reporting import build_results_table

    table = build_results_table({"benchmark": evaluate([2.0, 4.0], [3.0, 3.0])})
    text = render_results_csv(table)
    assert "1000.00" in text  # rmse 1.0 displayed x1000
    rows = text.strip().splitlines()
    assert rows[0] == "model,rmse,mape,wmape,wupred,wopred"
    assert rows[-1].startswith("best_model,")
    # external reference row carries only its published RMSE
    assert any(line.startswith("SADL-II") and ",11.50," in line for line in rows)


def test_zero_target_does_not_abort_search():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 2))
    y = 1.0 + X @ [0.5, -0.3]
    y[3] = 0.0
    result = grid_search("elastic_net", HyperGrid(axes={"lam": (0.01, 0.1)}), X, y,
                         CVConfig(k=4, seed=0))
    assert np.isfinite(result.mean_scores).all()
