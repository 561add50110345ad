"""Acceptance suite.

Two parts: a dataset-independent property suite (always runnable, prints
one pass line per criterion) and a dataset-conditional suite that runs
only when the real monitoring panel is supplied via the WQPANEL_DATA_DIR
environment variable (a directory holding train.csv, test.csv,
schema.json and optionally sites.csv).

Run with `pytest tests/test_acceptance.py -v -rA` to see the pass lines.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (deterministic_files, kkt_max_violation, lambda_max, loss_and_gradients,
                      masked_coalitions, synthetic_panel, write_panel_csv, write_schema)
from wqpanel.cli import main as cli_main
from wqpanel.elastic_net import ElasticNetConfig, fit_elastic_net, predict_linear
from wqpanel.families import FAMILIES
from wqpanel.fieldtypes import to_json
from wqpanel.metrics import evaluate, fit_benchmark
from wqpanel.mlp import MLPConfig, fit_mlp, init_params, predict_mlp
from wqpanel.panel import PanelSchema, load_panel, stack_panel
from wqpanel.shap_exact import (MarginalValueFunction, RetrainValueFunction,
                                ensemble_shap, exact_shap, mean_abs_shap,
                                sample_background, shap_for_dataset)
from wqpanel.trees import (GBDTConfig, GossConfig, RFConfig,
                           fit_gbdt, fit_random_forest, fit_tree,
                           predict_ensemble, predict_tree)
from wqpanel.tuner import CVConfig, grid_configs, grid_search, kfold_split, subseed


def _passed(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


# =====================================================================
# Property suite (dataset-independent)
# =====================================================================

def test_criterion_1_metrics_oracle():
    def reference(y, yhat):
        n = len(y)
        rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / n)
        mape = sum(abs((a - b) / a) for a, b in zip(y, yhat)) / n
        wmape = sum(abs(a - b) for a, b in zip(y, yhat)) / sum(abs(a) for a in y)
        ysum = sum(y)
        wupred = sum(a - b for a, b in zip(y, yhat) if a > b) / ysum
        wopred = sum(b - a for a, b in zip(y, yhat) if a < b) / ysum
        return rmse, mape, wmape, wupred, wopred

    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        y = rng.uniform(0.2, 2.0, n)
        yhat = y + rng.normal(0.0, 0.3, n)
        rep = evaluate(y, yhat)
        ref = reference(y.tolist(), yhat.tolist())
        got = (rep.rmse, rep.mape, rep.wmape, rep.wupred, rep.wopred)
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, ref))
        assert abs(rep.wupred + rep.wopred - rep.wmape) < 1e-12  # y > 0 here
    _passed(1, "evaluate matches the brute-force reference within 1e-12 on "
               "1000 random pairs; wupred + wopred = wmape for positive y")


def test_criterion_2_elastic_net():
    rng = np.random.default_rng(2002)
    for trial in range(50):
        p = int(rng.integers(2, 11))
        X = rng.standard_normal((200, p))
        y = rng.uniform(-1, 1) + X @ rng.uniform(-2, 2, p) \
            + 0.1 * rng.standard_normal(200)
        cfg = ElasticNetConfig(lam=0.0, alpha=0.5, max_iter=5000)
        model = fit_elastic_net(X, y, cfg)
        A = np.column_stack([np.ones(200), X])
        beta = np.linalg.solve(A.T @ A, A.T @ y)
        assert np.max(np.abs(model.coefficients - beta[1:])) < 1e-6
        assert abs(model.intercept - beta[0]) < 1e-6
        assert kkt_max_violation(X, y, model, cfg) < 1e-9

    X = rng.standard_normal((150, 6))
    y = 2.0 + X @ rng.uniform(-1, 1, 6) + 0.2 * rng.standard_normal(150)
    for lam, alpha in ((0.05, 0.3), (0.2, 1.0), (0.5, 0.0)):
        cfg = ElasticNetConfig(lam=lam, alpha=alpha, max_iter=10000)
        model = fit_elastic_net(X, y, cfg)
        assert kkt_max_violation(X, y, model, cfg) < 1e-8

    lmax = lambda_max(X, y)
    model = fit_elastic_net(X, y, ElasticNetConfig(lam=lmax, alpha=1.0))
    assert np.all(model.coefficients == 0.0)
    _passed(2, "lam=0 matches normal-equation OLS within 1e-6 on 50 instances; "
               "KKT holds at convergence; lasso at lambda_max zeroes all slopes")


def test_criterion_3_gbdt():
    rng = np.random.default_rng(3003)
    # depth-0 single tree with unit learning rate reproduces the target mean
    X = rng.standard_normal((16, 3))
    y = rng.integers(-4, 5, 16).astype(float)
    while y.sum() % 16:  # make the mean exactly representable
        y[0] += 1.0
    stump = fit_gbdt(X, y, GBDTConfig(n_trees=1, max_depth=0, learning_rate=1.0,
                                      reg_lambda=0.0, min_child_weight=0.0))
    assert np.array_equal(predict_ensemble(stump, X), np.full(16, y.mean()))

    # training RMSE is non-increasing over 100 boosting rounds
    X = rng.standard_normal((150, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.1 * rng.standard_normal(150)
    cfg = GBDTConfig(n_trees=100, learning_rate=0.2, max_depth=3, reg_lambda=1.0)
    model = fit_gbdt(X, y, cfg)
    yhat = np.full(len(y), model.base_score)
    last = float(np.sqrt(np.mean((y - yhat) ** 2)))
    for tree in model.trees:
        yhat += cfg.learning_rate * predict_tree(tree, X)
        rmse = float(np.sqrt(np.mean((y - yhat) ** 2)))
        assert rmse <= last + 1e-12
        last = rmse

    # GOSS with top_rate=1 equals plain training
    base = dict(n_trees=15, learning_rate=0.3, max_depth=2, seed=9)
    plain = fit_gbdt(X, y, GBDTConfig(**base))
    kept = fit_gbdt(X, y, GBDTConfig(goss=GossConfig(1.0, 0.0), **base))
    assert np.max(np.abs(predict_ensemble(plain, X) - predict_ensemble(kept, X))) < 1e-9

    # saturated histogram bins reproduce exact-mode trees bit-for-bit
    def blob(tree):
        return b"".join(a.tobytes() for a in
                        (tree.feature, tree.threshold, tree.left, tree.right,
                         tree.value, tree.n_samples, tree.gain))

    for trial in range(20):
        n = int(rng.integers(12, 50))
        Xs = rng.choice(np.linspace(0, 1, 9), size=(n, 2))
        ys = rng.standard_normal(n)
        exact = fit_tree(Xs, ys, RFConfig(max_depth=4, n_bins=10**9))
        histo = fit_tree(Xs, ys, RFConfig(max_depth=4, n_bins=12))
        assert blob(exact) == blob(histo)
    _passed(3, "depth-0 stump predicts mean(y); 100-round training RMSE "
               "monotone; GOSS(top_rate=1) equals no-GOSS within 1e-9; "
               "saturated histogram == exact mode bit-for-bit on 20 datasets")


def test_criterion_4_random_forest():
    rng = np.random.default_rng(4004)
    X = rng.standard_normal((60, 4))
    y = X @ [1.0, -0.5, 0.0, 0.3] + 0.1 * rng.standard_normal(60)
    forest = fit_random_forest(X, y, RFConfig(n_trees=1, max_depth=5,
                                              bootstrap=False, seed=0))
    tree = fit_tree(X, y, RFConfig(max_depth=5))
    assert np.array_equal(predict_ensemble(forest, X), predict_tree(tree, X))

    cfg = RFConfig(n_trees=6, max_depth=4, max_features=2, seed=77)
    a = to_json(fit_random_forest(X, y, cfg))
    b = to_json(fit_random_forest(X, y, cfg))
    assert json.dumps(a, sort_keys=True).encode() == \
        json.dumps(b, sort_keys=True).encode()
    _passed(4, "1-tree/no-bootstrap/full-feature forest equals a plain tree; "
               "same-seed forests serialize byte-identically")


def test_criterion_5_mlp():
    rng = np.random.default_rng(5005)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    for activation in ("relu", "tanh", "logistic"):
        weights, biases = init_params(
            MLPConfig(hidden_layers=(4, 3), activation=activation, seed=2), 3)
        _, gw, gb = loss_and_gradients(weights, biases, X, y, activation, 0.01)
        analytic = np.concatenate([g.ravel() for g in (*gw, *gb)])
        theta = np.concatenate([a.ravel() for a in (*weights, *biases)])

        def loss_at(vec):
            pos, ws, bs = 0, [], []
            for W in weights:
                ws.append(vec[pos:pos + W.size].reshape(W.shape))
                pos += W.size
            for b in biases:
                bs.append(vec[pos:pos + b.size].reshape(b.shape))
                pos += b.size
            return loss_and_gradients(ws, bs, X, y, activation, 0.01)[0]

        h = 1e-6
        numeric = np.empty_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss_at(up) - loss_at(down)) / (2 * h)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    X = rng.standard_normal((150, 3))
    coef = np.array([1.0, -0.5, 0.25])
    y = 0.2 + X @ coef
    X_test = rng.standard_normal((80, 3))
    model, _ = fit_mlp(X, y, MLPConfig(hidden_layers=(), activation="relu",
                                       learning_rate=0.05, batch_size=150,
                                       max_epochs=4000, seed=0))
    rmse = float(np.sqrt(np.mean((predict_mlp(model, X_test)
                                  - (0.2 + X_test @ coef)) ** 2)))
    assert rmse < 1e-3
    _passed(5, "analytic gradients match central differences within 1e-5 for "
               "every activation; zero-hidden-layer fit within 1e-3 RMSE of OLS")


def _masked_vf(predict, background, **kwargs):
    """A value function that enumerates all 2^M coalitions by masking."""
    return MarginalValueFunction(predict=predict, background=background,
                                 coalitions=masked_coalitions(predict), **kwargs)


def test_criterion_6_shap():
    rng = np.random.default_rng(6006)

    # additive closed form, symmetry, dummy, efficiency
    bg = rng.standard_normal((64, 5))
    vf = _masked_vf(lambda A: A.sum(axis=1), bg)
    x = rng.standard_normal(5)
    attr = exact_shap(vf, x)
    assert np.max(np.abs(attr.phi - (x - bg.mean(axis=0)))) < 1e-12
    assert abs(attr.base_value + attr.phi.sum() - attr.f_x) < 1e-9

    dup = rng.standard_normal((40, 1))
    bg_dup = np.column_stack([dup, dup, rng.standard_normal(40)])
    vf_dup = _masked_vf(lambda A: A[:, 0] + A[:, 1] - A[:, 2], bg_dup)
    attr_dup = exact_shap(vf_dup, np.array([0.3, 0.3, 1.0]))
    assert abs(attr_dup.phi[0] - attr_dup.phi[1]) < 1e-9

    vf_dummy = _masked_vf(lambda A: 2.0 * A[:, 0], rng.standard_normal((30, 3)))
    attr_dummy = exact_shap(vf_dummy, rng.standard_normal(3))
    assert abs(attr_dummy.phi[1]) < 1e-9 and abs(attr_dummy.phi[2]) < 1e-9

    # marginalize vs retrain on a 3-feature orthogonal linear fixture
    raw = rng.standard_normal((40, 3))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    X = q * np.array([2.0, 1.0, 0.5])
    y = 1.5 + X @ np.array([1.2, -0.7, 2.0])

    def refit(Xs, ys):
        return fit_elastic_net(Xs, ys, ElasticNetConfig(lam=0.0, max_iter=20000))

    retrain = RetrainValueFunction(fit=refit, predict=predict_linear,
                                   X_train=X, y_train=y)
    full = refit(X, y)
    marginal = _masked_vf(lambda A: predict_linear(full, A), X)
    probe = X[7]
    assert np.max(np.abs(exact_shap(retrain, probe).phi
                         - exact_shap(marginal, probe).phi)) < 1e-6

    # runtime: M=11, 256 background rows, 10 instances under a boosted
    # model, through the TreeSHAP solver that explain runs for it
    Xb = rng.uniform(0, 1, (600, 11))
    yb = 0.6 + Xb @ np.linspace(0.2, 0.01, 11) + 0.05 * np.sin(4 * Xb[:, 5])
    model = fit_gbdt(Xb, yb, GBDTConfig(n_trees=50, max_depth=3,
                                        goss=GossConfig(0.2, 0.1), seed=3))
    big_vf = MarginalValueFunction(
        predict=lambda A: predict_ensemble(model, A),
        background=sample_background(Xb, 256, seed=1),
        solver=lambda *a: ensemble_shap(model, *a))
    t0 = time.perf_counter()
    attrs = shap_for_dataset(big_vf, Xb[:10])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"SHAP runtime {elapsed:.1f}s exceeds 60s"
    for a in attrs:
        assert abs(a.base_value + a.phi.sum() - a.f_x) < 1e-9
    _passed(6, f"efficiency within 1e-9 everywhere; additive closed form exact; "
               f"symmetry/dummy within 1e-9; marginalize-vs-retrain within 1e-6; "
               f"M=11 x 256 background x 10 instances in {elapsed:.1f}s < 60s")


def test_criterion_7_pipeline(tmp_path):
    # stacking arithmetic at the real panel dimensions
    big_train = synthetic_panel(423, 37, 11, seed=70)
    big_test = synthetic_panel(282, 37, 11, seed=71)
    assert stack_panel(big_train).row_count == 15_651
    assert stack_panel(big_test).row_count == 10_434

    # folds partition the indices with no train/validation leakage
    for scheme in ("shuffled", "blocked_by_time"):
        from wqpanel.tuner import FoldScheme
        folds = kfold_split(101, CVConfig(k=5, scheme=FoldScheme(scheme)), 17)
        seen = np.concatenate([v for _, v in folds])
        assert np.array_equal(np.sort(seen), np.arange(101))
        for train_idx, val_idx in folds:
            assert len(np.intersect1d(train_idx, val_idx)) == 0

    # parallel and serial tuning select identical winners
    rng = np.random.default_rng(72)
    X = rng.standard_normal((60, 3))
    y = 2.0 + X @ [0.5, -1.0, 0.25] + 0.05 * rng.standard_normal(60)
    grid = {"n_trees": (3, 5), "max_depth": (2, 3)}
    cv = CVConfig(k=3)
    serial = grid_search("random_forest", grid, X, y, cv, seed=13, n_jobs=1)
    parallel = grid_search("random_forest", grid, X, y, cv, seed=13, n_jobs=2)
    assert serial.best_config == parallel.best_config
    assert serial.mean_scores == parallel.mean_scores
    assert serial.timing.total_fits == parallel.timing.total_fits == len(grid_configs(grid)) * 3

    # end-to-end seeded CLI run is byte-reproducible (wall times aside)
    panel_train = synthetic_panel(10, 3, 4, seed=73)
    panel_test = synthetic_panel(5, 3, 4, seed=74)
    write_panel_csv(tmp_path / "train.csv", panel_train)
    write_panel_csv(tmp_path / "test.csv", panel_test)
    write_schema(tmp_path / "schema.json", panel_train.feature_names)
    config = {
        "seed": 4242,
        "data": {"train_csv": "train.csv", "test_csv": "test.csv",
                 "schema": "schema.json"},
        "output_dir": "out",
        "strategy": 2,
        "cv": {"k": 3, "scheme": "shuffled"},
        "families": ["elastic_net", "gbdt"],
        "grids": {"elastic_net": {"lam": [1e-6, 0.1], "alpha": [0.5]},
                  "gbdt": {"n_trees": [4], "max_depth": [2]}},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    cfg_arg = ["--config", str(tmp_path / "config.json")]

    def run_all():
        for command in (["ingest"], ["tune"], ["evaluate"], ["report"]):
            assert cli_main(command + cfg_arg) == 0
        return deterministic_files(tmp_path / "out")

    first = run_all()
    second = run_all()
    assert set(first) == set(second)
    for rel in first:
        assert first[rel] == second[rel], f"{rel} differs across identical runs"
    _passed(7, "423x37 -> 15,651 and 282x37 -> 10,434; folds leak-free; "
               "seeded end-to-end run byte-reproducible; parallel == serial winners")


# =====================================================================
# Dataset-conditional suite (requires the real train/test panel files)
# =====================================================================

DATA_ENV = "WQPANEL_DATA_DIR"

needs_data = pytest.mark.skipif(
    not os.environ.get(DATA_ENV) or not Path(os.environ.get(DATA_ENV, "")).exists(),
    reason=f"set {DATA_ENV} to a directory with train.csv, test.csv, schema.json "
           f"to run the dataset-conditional criteria")


@pytest.fixture(scope="session")
def georgia():
    root = Path(os.environ[DATA_ENV])
    schema = PanelSchema.from_json(root / "schema.json")
    train = load_panel(root / "train.csv", schema)
    test = load_panel(root / "test.csv", schema)
    return train, test


@pytest.fixture(scope="session")
def georgia_designs(georgia):
    from wqpanel.features import Categoricals, Strategy
    from wqpanel.tuner import design_from_state, prepare_designs

    train, test = georgia
    train_design, state = prepare_designs(train, Strategy.STANDARDIZED_NUMERIC, Categoricals())
    return train_design, design_from_state(state, test), state


@needs_data
def test_criterion_8_benchmark_row(georgia):
    train, test = georgia
    y_train = stack_panel(train).y
    y_test = stack_panel(test).y
    rep = evaluate(y_test, np.full(len(y_test), fit_benchmark(y_train)))
    expected = {"rmse": 29.52, "mape": 32.21, "wmape": 32.35,
                "wupred": 14.55, "wopred": 17.80}
    for metric, want in expected.items():
        got = getattr(rep, metric) * 1000.0
        assert abs(got - want) <= 0.01, f"{metric}: {got:.4f} vs {want}"
    _passed(8, "benchmark row reproduces the published values within 0.01 (x1000)")


@pytest.fixture(scope="session")
def georgia_tuned(georgia_designs):
    train_design, test_design, _ = georgia_designs
    cv = CVConfig(k=5)
    grids = {
        "elastic_net": {"lam": (1e-4, 1e-3, 1e-2, 1e-1),
                        "alpha": (0.0, 0.5, 1.0)},
        "random_forest": {"n_trees": (200,), "max_depth": (8, 12),
                          "max_features": (4, 7),
                          "min_samples_leaf": (2,)},
        "gbdt": {"n_trees": (300,), "learning_rate": (0.05, 0.1),
                 "max_depth": (4, 6), "reg_lambda": (1.0,)},
        "gbdt_goss": {"n_trees": (300,), "learning_rate": (0.05, 0.1),
                      "max_depth": (4, 6), "top_rate": (0.2,),
                      "other_rate": (0.1,)},
        "mlp": {"hidden_layers": ((64,), (64, 32)),
                "activation": ("relu", "tanh"),
                "learning_rate": (0.01,), "batch_size": (64,),
                "max_epochs": (300,)},
    }
    results = {}
    for family, grid in grids.items():
        results[family] = grid_search(family, grid, train_design.X, train_design.y,
                                      cv, seed=2016)
    return results


@needs_data
def test_criterion_9_model_ordering(georgia, georgia_designs, georgia_tuned):
    train, test = georgia
    train_design, test_design, _ = georgia_designs
    bench_rmse = evaluate(test_design.y,
                          np.full(test_design.n_rows, fit_benchmark(train_design.y))).rmse

    rmse = {}
    for family, tuning in georgia_tuned.items():
        pred = FAMILIES[family].predict(tuning.best_model, test_design.X)
        rmse[family] = evaluate(test_design.y, pred).rmse
        assert rmse[family] < bench_rmse, \
            f"{family} ({rmse[family]*1000:.2f}) does not beat the benchmark " \
            f"({bench_rmse*1000:.2f})"

    for boosted in ("gbdt", "gbdt_goss"):
        scaled = rmse[boosted] * 1000.0
        assert 10.0 <= scaled <= 12.5, f"{boosted} RMSE x1000 = {scaled:.2f}"
        assert rmse[boosted] <= rmse["elastic_net"] + 1e-12
    _passed(9, "all tuned families beat the benchmark; boosted RMSE in "
               "[10.0, 12.5] x1e-3 and <= linear regression")


@needs_data
def test_criterion_10_shap_ranking(georgia_designs, georgia_tuned):
    train_design, test_design, _ = georgia_designs
    tuning = georgia_tuned["gbdt_goss"]
    background = sample_background(train_design.X, 256, seed=subseed(2016, 3))
    vf = _masked_vf(lambda A: FAMILIES["gbdt_goss"].predict(tuning.best_model, A),
                    background, player_names=test_design.column_names)
    rng = np.random.default_rng(subseed(2016, 4))
    rows = np.sort(rng.choice(test_design.n_rows, size=20, replace=False))
    ranking = mean_abs_shap(shap_for_dataset(vf, test_design.X[rows]))
    assert ranking[0][0] == "X6", f"top feature {ranking[0][0]}, expected X6"
    _passed(10, "X6 attains the largest mean |phi| for the tuned boosted model "
                "under the standardized strategy")
