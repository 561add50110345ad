import csv
import datetime as dt
import functools
import json
import os
import re
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from wqpanel.elastic_net import _working_space
from wqpanel.mlp import _forward, _gradients, _loss, _one
from wqpanel.panel import PanelDataset

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
# a larger sweep for a run of its own, outside the suite's time budget:
# HYPOTHESIS_PROFILE=sweep python -m pytest tests/test_trees.py
hypothesis.settings.register_profile(
    "sweep", hypothesis.settings.get_profile("suite"), max_examples=1000)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


def at_least(n: int) -> hypothesis.settings:
    """Settings of n examples, or the loaded profile's count if larger: a
    net that asks for more than the suite's keeps its count in tier-1 and
    still grows under the sweep."""
    return hypothesis.settings(max_examples=max(n, hypothesis.settings().max_examples))

# any JSON value, non-finite numbers and integers beyond the doubles included
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(min_value=-2, max_value=2**64) | st.sampled_from([-1, 0, 10**400]),
    st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=5)

# report.md copies the wall times of timing_strategyN.json into these sections
TIMING_SECTION = re.compile(r"^## Strategy \d+: running time summary\n.*?(?=^## |\Z)",
                            re.MULTILINE | re.DOTALL)


def deterministic_files(out_dir):
    """Every output but the wall-clock ones: timing files and report.md's
    timing sections."""
    files = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and not p.name.startswith("timing_"):
            blob = p.read_bytes()
            if p.name == "report.md":
                blob = TIMING_SECTION.sub("", blob.decode("utf-8")).encode("utf-8")
            files[p.relative_to(out_dir)] = blob
    return files


def synthetic_panel(n_dates: int, n_sites: int, n_features: int,
                    seed: int = 0, start=dt.date(2016, 1, 28)) -> PanelDataset:
    """Random panel with features in [0, 1] and targets around 0.66."""
    rng = np.random.default_rng(seed)
    dates = tuple(start + dt.timedelta(days=i) for i in range(n_dates))
    sites = tuple(f"site{j:02d}" for j in range(n_sites))
    names = tuple(f"X{i + 1}" for i in range(n_features))
    features = rng.uniform(0.0, 1.0, size=(n_dates, n_sites, n_features))
    targets = np.clip(0.66 + 0.08 * rng.standard_normal((n_dates, n_sites)), 0.3, 0.99)
    return PanelDataset(dates=dates, site_ids=sites, feature_names=names,
                        features=features, targets=targets)


def linked_panel(n_dates: int, n_sites: int, n_features: int, seed: int = 0,
                 noise: float = 0.0) -> PanelDataset:
    """Panel whose target is a fixed linear function of the features."""
    rng = np.random.default_rng(seed)
    base = synthetic_panel(n_dates, n_sites, n_features, seed=seed)
    coef = np.linspace(0.05, 0.01, n_features)
    targets = 0.5 + base.features @ coef
    if noise:
        targets = targets + noise * rng.standard_normal(targets.shape)
    return PanelDataset(dates=base.dates, site_ids=base.site_ids,
                        feature_names=base.feature_names,
                        features=base.features, targets=targets)


def loss_and_gradients(weights, biases, X: np.ndarray, y: np.ndarray,
                       activation: str, l2_penalty: float):
    """Loss = mean((yhat - y)^2) + l2/2 * sum ||W||^2 and its gradients, from
    the forward pass, loss and backpropagation that fit_mlp trains with.

    Biases are not penalized. Returns (loss, grad_weights, grad_biases).
    """
    W, b, runs = _one(weights, biases, activation)
    inputs, yhat = _forward(W, b, np.asarray(X)[None], runs)
    y = np.asarray(y)[None]
    l2 = np.full((1, 1, 1), float(l2_penalty))
    grad_w, grad_b = _gradients(W, inputs, yhat, y, runs, l2)
    return (float(_loss(W, yhat, y, l2)[0]),
            [g[0] for g in grad_w], [g[0, 0] for g in grad_b])


def masked_coalitions(predict):
    """A coalitions hook for MarginalValueFunction that masks: for each of
    the 2^M coalitions (player i is bit i of the id), the players outside
    it take each background row's columns, and v is the mean of predict
    over those rows. The slow oracle of the solver and coalition hooks."""
    def coalitions(x, background, player_columns):
        m, d = len(player_columns), background.shape[1]
        col_map = np.zeros((m, d), dtype=bool)
        for p, cols in enumerate(player_columns):
            col_map[p, cols] = True
        ids = np.arange(1 << m, dtype=np.int64)
        masks = ((ids[:, None] >> np.arange(m)) & 1).astype(bool)
        values = np.empty(len(masks))
        chunk = 128  # coalitions per predict call
        for start in range(0, len(masks), chunk):
            col_mask = masks[start:start + chunk] @ col_map  # column in coalition
            mixed = np.where(col_mask[:, None, :], x[None, None, :], background[None, :, :])
            preds = predict(mixed.reshape(-1, d)).reshape(len(col_mask), -1)
            values[start:start + chunk] = preds.mean(axis=1)
        return values
    return coalitions


def kkt_max_violation(X, y, model, cfg) -> float:
    """Largest stationarity-condition violation of ``model``, fit under the
    elastic-net config ``cfg``, at its coefficients.

    Checked in the solver's working space: for b_j != 0 the subgradient
    must vanish; for b_j = 0 the gradient must sit inside [-lam*alpha,
    lam*alpha]. A fit the search ends at its optimum keeps this at rounding.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xs, _, scale = _working_space(X, cfg.standardize_internally)
    b = model.coefficients * scale
    yc = y - y.mean()
    grad = -(Xs.T @ (yc - Xs @ b)) / len(y)
    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)
    violation = np.where(b != 0.0, np.abs(grad + l2 * b + l1 * np.sign(b)),
                         np.maximum(0.0, np.abs(grad) - l1))
    return float(violation.max(initial=0.0))


def assert_setups_close(setup, other, rtol=1e-11):
    """Two set-ups of the same rows agree to rounding: each array within
    rtol of its own largest entry."""
    assert setup.standardize == other.standardize
    assert setup.y_mean == pytest.approx(other.y_mean, rel=rtol)
    for name in ("gram", "xy", "x_mean", "scale", "diag"):
        a, b = getattr(setup, name), getattr(other, name)
        np.testing.assert_allclose(a, b, rtol=0, atol=rtol * np.abs(b).max(initial=1e-300),
                                   err_msg=name)


def lambda_max(X, y, standardize: bool = True) -> float:
    """Smallest lam at which the alpha=1 (lasso) solution is all-zero slopes.

    Computed in the same working space the solver penalizes in.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xs, _, _ = _working_space(X, standardize)
    return float(np.max(np.abs(Xs.T @ (y - y.mean())))) / len(y)


def write_panel_csv(path: Path, panel: PanelDataset,
                    date_col="datetime", site_col="site_no",
                    target_col="median_ph") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([date_col, site_col, *(f"raw_{n}" for n in panel.feature_names),
                         target_col])
        for i, date in enumerate(panel.dates):
            for j, site in enumerate(panel.site_ids):
                writer.writerow([date.isoformat(), site,
                                 *(repr(float(v)) for v in panel.features[i, j]),
                                 repr(float(panel.targets[i, j]))])


def write_schema(path: Path, feature_names,
                 date_col="datetime", site_col="site_no",
                 target_col="median_ph") -> None:
    schema = {
        "date_column": date_col,
        "site_column": site_col,
        "target_column": target_col,
        "feature_columns": {name: f"raw_{name}" for name in feature_names},
    }
    path.write_text(json.dumps(schema, indent=1), encoding="utf-8")


@pytest.fixture
def tiny_panel() -> PanelDataset:
    return synthetic_panel(6, 3, 4, seed=7)


def make_panel_files(tmp_path: Path, n_train=8, n_test=5, n_sites=3, n_features=4, seed=3,
                     linked=True, **config_overrides) -> dict:
    """Train/test CSVs, schema, sites file and a run config in tmp_path."""
    maker = linked_panel if linked else synthetic_panel
    train = maker(n_train, n_sites, n_features, seed=seed)
    test = maker(n_test, n_sites, n_features, seed=seed + 1)
    # keep test dates after train dates
    shift = (train.dates[-1] - test.dates[0]).days + 1
    test = PanelDataset(
        dates=tuple(d + dt.timedelta(days=shift) for d in test.dates),
        site_ids=train.site_ids, feature_names=train.feature_names,
        features=test.features, targets=test.targets)

    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    schema = tmp_path / "schema.json"
    sites = tmp_path / "sites.csv"
    write_panel_csv(train_csv, train)
    write_panel_csv(test_csv, test)
    write_schema(schema, train.feature_names)
    with open(sites, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "location_group"])
        for s in train.site_ids:
            writer.writerow([s, "group1"])

    config = {
        "seed": 20240101,
        "data": {"train_csv": "train.csv", "test_csv": "test.csv",
                 "schema": "schema.json", "sites_csv": "sites.csv"},
        "output_dir": "out",
        "strategy": 2,
        "cv": {"k": 3, "scheme": "shuffled"},
        "families": ["elastic_net"],
        "grids": {"elastic_net": {"lam": [0.0001, 0.01], "alpha": [0.0, 1.0]}},
        "shap": {"kind": "marginalize", "background_size": 16},
        "n_jobs": 1,
    }
    config.update(config_overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return {"dir": tmp_path, "config": config_path, "train": train,
            "test": test, "train_csv": train_csv, "test_csv": test_csv,
            "schema": schema, "sites": sites, "out": tmp_path / "out"}


@pytest.fixture
def panel_files(tmp_path):
    """make_panel_files in the test's own directory."""
    return functools.partial(make_panel_files, tmp_path)
