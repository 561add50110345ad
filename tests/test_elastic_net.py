import itertools
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import kkt_max_violation
from wqpanel import elastic_net as en
from wqpanel.elastic_net import (ElasticNetConfig, LinearModel, _working_space,
                                 fit_elastic_net, lambda_max, predict_linear, prepare_fit)


def ols_oracle(X, y):
    """Normal-equations solution with intercept."""
    A = np.column_stack([np.ones(len(y)), X])
    beta = np.linalg.solve(A.T @ A, A.T @ y)
    return beta[0], beta[1:]


def random_instance(rng, n=200, p=5, noise=0.1):
    X = rng.standard_normal((n, p))
    coef = rng.uniform(-2, 2, p)
    y = 1.0 + X @ coef + noise * rng.standard_normal(n)
    return X, y


def objective_value(X: np.ndarray, y: np.ndarray, intercept: float,
                    coefficients: np.ndarray, lam: float, alpha: float) -> float:
    """The penalized least-squares objective at the given parameters."""
    n = len(y)
    resid = y - intercept - X @ coefficients
    return float(
        resid @ resid / (2 * n)
        + lam * (1 - alpha) / 2 * coefficients @ coefficients
        + lam * alpha * np.abs(coefficients).sum()
    )


def working_objective(X, y, model, cfg) -> float:
    """The objective the descent minimizes, in its working space, at the
    model's coefficients."""
    Xs, _, scale = _working_space(np.asarray(X, dtype=float), cfg.standardize_internally)
    return objective_value(Xs, y - y.mean(), 0.0, model.coefficients * scale,
                           cfg.lam, cfg.alpha)


def iterates(X, y, cfg, setup=None) -> list:
    """The fits stopped after 1, 2, ... steps (active-set steps or descent
    sweeps), up to the step at which the full fit converges: the solver's
    own iterates."""
    sweeps = fit_elastic_net(X, y, cfg, setup=setup).sweeps_used
    return [fit_elastic_net(X, y, replace(cfg, max_iter=k), setup=setup)
            for k in range(1, sweeps + 1)]


@pytest.mark.parametrize("standardize", [True, False])
def test_lambda_zero_matches_ols(standardize):
    rng = np.random.default_rng(42)
    for _ in range(10):
        X, y = random_instance(rng)
        cfg = ElasticNetConfig(lam=0.0, alpha=0.5, tol=1e-10, max_iter=5000,
                               standardize_internally=standardize)
        model = fit_elastic_net(X, y, cfg)
        b0, coef = ols_oracle(X, y)
        np.testing.assert_allclose(model.coefficients, coef, atol=1e-6)
        assert model.intercept == pytest.approx(b0, abs=1e-6)


def test_noiseless_line():
    x = np.linspace(0, 1, 30)[:, None]
    y = 2.0 * x.ravel() + 1.0
    model = fit_elastic_net(x, y, ElasticNetConfig(lam=0.0, tol=1e-12, max_iter=10000))
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-8)
    assert model.intercept == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("standardize", [True, False])
def test_lasso_at_lambda_max_zeroes_all_slopes(standardize):
    rng = np.random.default_rng(7)
    X, y = random_instance(rng, n=120, p=6)
    lmax = lambda_max(X, y, standardize=standardize)
    cfg = ElasticNetConfig(lam=lmax, alpha=1.0, standardize_internally=standardize)
    model = fit_elastic_net(X, y, cfg)
    assert np.all(model.coefficients == 0.0)
    assert model.intercept == pytest.approx(float(np.mean(y)), abs=1e-12)
    # strictly above the critical value as well
    model = fit_elastic_net(X, y, ElasticNetConfig(
        lam=2 * lmax, alpha=1.0, standardize_internally=standardize))
    assert np.all(model.coefficients == 0.0)


def test_raw_lambda_max_formula_matches_helper():
    rng = np.random.default_rng(3)
    X, y = random_instance(rng, n=50, p=4)
    manual = np.max(np.abs(X.T @ (y - y.mean()))) / len(y)
    assert lambda_max(X, y, standardize=False) == pytest.approx(manual, rel=1e-12)


def test_predict_degenerate_and_hand_value():
    constant = LinearModel(intercept=0.3, coefficients=np.zeros(2), sweeps_used=0)
    np.testing.assert_array_equal(predict_linear(constant, np.ones((3, 2))),
                                  np.full(3, 0.3))
    model = LinearModel(intercept=1.0, coefficients=np.array([2.0]), sweeps_used=0)
    assert predict_linear(model, np.array([[3.0]]))[0] == 7.0
    with pytest.raises(ValueError, match="width mismatch"):
        predict_linear(model, np.ones((1, 2)))


def test_prediction_is_affine():
    rng = np.random.default_rng(0)
    model = LinearModel(intercept=0.7, coefficients=rng.standard_normal(3), sweeps_used=0)
    row = rng.standard_normal((1, 3))
    for a in (0.0, 0.5, 2.0, -3.0):
        lhs = predict_linear(model, a * row)[0] - model.intercept
        rhs = a * (predict_linear(model, row)[0] - model.intercept)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("lam,alpha", [(0.0, 0.0), (0.05, 0.5), (0.2, 1.0), (0.1, 0.0)])
def test_objective_non_increasing_per_sweep(lam, alpha):
    rng = np.random.default_rng(13)
    X, y = random_instance(rng, n=80, p=6, noise=0.3)
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, tol=1e-10, max_iter=200)
    fits = iterates(X, y, cfg)
    assert [m.sweeps_used for m in fits] == list(range(1, len(fits) + 1))
    trace = np.array([working_objective(X, y, m, cfg) for m in fits])
    assert np.all(np.diff(trace) <= 1e-12)


def test_working_objective_matches_objective_value_without_scaling():
    rng = np.random.default_rng(21)
    X, y = random_instance(rng, n=60, p=4)
    cfg = ElasticNetConfig(lam=0.05, alpha=0.7, tol=1e-12, max_iter=500,
                           standardize_internally=False)
    model = fit_elastic_net(X, y, cfg)
    direct = objective_value(X, y, model.intercept, model.coefficients,
                             cfg.lam, cfg.alpha)
    assert working_objective(X, y, model, cfg) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("lam,alpha", [(0.0, 0.5), (0.01, 0.25), (0.1, 1.0), (0.3, 0.0)])
@pytest.mark.parametrize("standardize", [True, False])
def test_kkt_conditions_hold_at_convergence(lam, alpha, standardize):
    rng = np.random.default_rng(99)
    X, y = random_instance(rng, n=100, p=7, noise=0.2)
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, tol=1e-9, max_iter=10000,
                           standardize_internally=standardize)
    model = fit_elastic_net(X, y, cfg)
    assert kkt_max_violation(X, y, model, cfg) < 10 * cfg.tol


def test_ridge_matches_closed_form():
    rng = np.random.default_rng(10)
    X, y = random_instance(rng, n=60, p=4, noise=0.1)
    lam = 0.3
    cfg = ElasticNetConfig(lam=lam, alpha=0.0, tol=1e-12, max_iter=20000,
                           standardize_internally=False)
    model = fit_elastic_net(X, y, cfg)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    n = len(y)
    closed = np.linalg.solve(Xc.T @ Xc + n * lam * np.eye(X.shape[1]), Xc.T @ yc)
    np.testing.assert_allclose(model.coefficients, closed, atol=1e-6)


def test_monotone_sparsity_in_lambda_for_lasso():
    rng = np.random.default_rng(17)
    X, y = random_instance(rng, n=100, p=8, noise=0.5)
    lmax = lambda_max(X, y)
    counts = []
    for lam in np.geomspace(1e-4 * lmax, lmax, 12):
        model = fit_elastic_net(X, y, ElasticNetConfig(lam=float(lam), alpha=1.0,
                                                       tol=1e-9, max_iter=5000))
        counts.append(int(np.count_nonzero(model.coefficients)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_constant_column_gets_zero_coefficient():
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.standard_normal(50), np.full(50, 2.5)])
    y = 3.0 * X[:, 0] + 1.0
    model = fit_elastic_net(X, y, ElasticNetConfig(lam=0.0, tol=1e-12, max_iter=5000))
    assert model.coefficients[1] == 0.0
    assert model.coefficients[0] == pytest.approx(3.0, abs=1e-8)


def test_input_validation():
    with pytest.raises(ValueError, match="at least one row"):
        fit_elastic_net(np.empty((0, 2)), np.empty(0), ElasticNetConfig())
    with pytest.raises(ValueError, match="non-finite"):
        fit_elastic_net(np.array([[np.nan]]), np.array([1.0]), ElasticNetConfig())
    with pytest.raises(ValueError):
        ElasticNetConfig(lam=-1.0)
    with pytest.raises(ValueError):
        ElasticNetConfig(alpha=1.5)
    with pytest.raises(ValueError):
        ElasticNetConfig(tol=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("max_iter", 2.5, "max_iter must be an integer, got 2.5"),
    ("max_iter", 2.0, "max_iter must be an integer, got 2.0"),
    ("max_iter", float("nan"), "max_iter must be an integer, got nan"),
    ("max_iter", 1e308, "max_iter must be an integer, got 1e+308"),
    ("max_iter", True, "max_iter must be an integer, got True"),
    ("lam", float("nan"), "lam must be a finite number, got nan"),
    ("lam", float("inf"), "lam must be a finite number, got inf"),
    ("lam", 10 ** 400, "lam must be a finite number, got 1000"),
    ("tol", float("nan"), "tol must be a finite number, got nan"),
    ("tol", float("inf"), "tol must be a finite number, got inf"),
])
def test_config_rejects_a_non_integer_max_iter_and_a_non_finite_lam_or_tol(field, value, message):
    # each used to be accepted: a float max_iter then failed in range() and
    # a NaN lam fitted all-zero slopes
    with pytest.raises(ValueError, match=re.escape(message)):
        ElasticNetConfig(**{field: value})
    assert ElasticNetConfig(max_iter=np.int64(7)).max_iter == 7


# ------------------------------------------------- slow oracle: the all-numpy loop

@pytest.fixture
def descent_only(monkeypatch):
    """Every fit takes the descent, as one does where an active block is
    singular."""
    monkeypatch.setattr(en, "_active_set", lambda setup, l1, l2, max_iter: None)


def _oracle_soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def oracle_fit(X, y, cfg):
    """The descent as it was before the set-up was shared and the scalar
    steps moved to Python floats: every step on numpy scalars."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    Xs, x_mean, scale = _working_space(X, cfg.standardize_internally)
    y_mean = float(y.mean())
    yc = y - y_mean

    gram = Xs.T @ Xs / n
    xy = Xs.T @ yc / n
    diag = np.diag(gram).copy()
    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)

    b = np.zeros(p)
    sweeps = 0
    for sweep in range(cfg.max_iter):
        sweeps = sweep + 1
        max_delta = 0.0
        for j in range(p):
            if diag[j] == 0.0:
                continue
            rho = xy[j] - gram[j] @ b + diag[j] * b[j]
            new = _oracle_soft_threshold(rho, l1) / (diag[j] + l2)
            delta = abs(new - b[j])
            if delta > max_delta:
                max_delta = delta
            b[j] = new
        if max_delta < cfg.tol:
            break

    coefficients = b / scale
    intercept = y_mean - float(coefficients @ x_mean)
    return LinearModel(intercept=intercept, coefficients=coefficients, sweeps_used=sweeps)


def _assert_same_fit(model, oracle):
    assert model.coefficients.tobytes() == oracle.coefficients.tobytes()
    assert model.intercept.hex() == oracle.intercept.hex()
    assert model.sweeps_used == oracle.sweeps_used


def _oracle_instance(seed, constant_column=False):
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, n=90, p=6, noise=0.4)
    X[:, 2] = 0.9 * X[:, 1] + 0.4 * X[:, 2]  # correlated columns: many sweeps
    X = X * np.array([1.0, 5.0, 0.2, 1.0, 30.0, 1.0]) + 4.0
    if constant_column:
        X[:, 3] = -1.25
    return X, y


@pytest.mark.usefixtures("descent_only")
@pytest.mark.parametrize("lam,alpha", [(0.0, 0.5), (1e-3, 0.0), (1e-3, 1.0),
                                       (0.02, 0.5), (0.3, 1.0), (5.0, 0.3)])
@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("constant_column", [False, True])
def test_descent_matches_oracle_bit_for_bit(lam, alpha, standardize, constant_column):
    X, y = _oracle_instance(31, constant_column)
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, tol=1e-9, max_iter=3000,
                           standardize_internally=standardize)
    _assert_same_fit(fit_elastic_net(X, y, cfg), oracle_fit(X, y, cfg))


@pytest.mark.usefixtures("descent_only")
@pytest.mark.parametrize("standardize", [True, False])
def test_descent_stopped_at_max_iter_matches_oracle(standardize):
    X, y = _oracle_instance(32)
    cfg = ElasticNetConfig(lam=1e-4, alpha=0.5, tol=1e-14, max_iter=7,
                           standardize_internally=standardize)
    model = fit_elastic_net(X, y, cfg)
    assert model.sweeps_used == 7
    _assert_same_fit(model, oracle_fit(X, y, cfg))


@pytest.mark.usefixtures("descent_only")
@pytest.mark.parametrize("standardize", [True, False])
def test_every_iterate_matches_oracle(standardize):
    X, y = _oracle_instance(33, constant_column=True)
    cfg = ElasticNetConfig(lam=0.01, alpha=0.7, tol=1e-10, max_iter=500,
                           standardize_internally=standardize)
    fits = iterates(X, y, cfg)
    assert len(fits) > 1
    for k, model in enumerate(fits, start=1):
        _assert_same_fit(model, oracle_fit(X, y, replace(cfg, max_iter=k)))


@pytest.mark.usefixtures("descent_only")
def test_shared_setup_matches_oracle_for_every_config():
    X, y = _oracle_instance(34)
    setups = {flag: prepare_fit(X, y, flag) for flag in (True, False)}
    for flag in (True, False):
        for lam in (0.0, 1e-3, 0.1):
            for alpha in (0.0, 0.5, 1.0):
                cfg = ElasticNetConfig(lam=lam, alpha=alpha, tol=1e-9, max_iter=2000,
                                       standardize_internally=flag)
                _assert_same_fit(fit_elastic_net(X, y, cfg, setup=setups[flag]),
                                 oracle_fit(X, y, cfg))


@pytest.mark.usefixtures("descent_only")
def test_setup_must_fit_the_config():
    X, y = _oracle_instance(35)
    setup = prepare_fit(X, y, standardize=True)
    with pytest.raises(ValueError, match="standardize"):
        fit_elastic_net(X, y, ElasticNetConfig(standardize_internally=False), setup=setup)
    cfg = ElasticNetConfig(lam=0.01)
    fits = iterates(X, y, cfg, setup=setup)
    assert len(fits) > 1
    for k, model in enumerate(fits, start=1):
        _assert_same_fit(model, oracle_fit(X, y, replace(cfg, max_iter=k)))


# ------------------------------------------------- the active-set path

def _takes_the_active_set(X, y, cfg) -> bool:
    setup = prepare_fit(X, y, cfg.standardize_internally)
    return en._active_set(setup, cfg.lam * cfg.alpha, cfg.lam * (1.0 - cfg.alpha),
                          cfg.max_iter) is not None


def one_hot_instance(seed=41, n=120):
    """Three numeric columns, then two complete one-hot blocks of 5 and 3
    levels, as in a strategy-3 design: each block's columns sum to one, so
    the centered Gram matrix is singular."""
    rng = np.random.default_rng(seed)
    numeric = rng.standard_normal((n, 3)) * [1.0, 4.0, 0.5] + 2.0
    a = rng.permutation(np.arange(n) % 5)
    c = rng.permutation(np.arange(n) % 3)
    X = np.column_stack([numeric, np.eye(5)[a], np.eye(3)[c]])
    y = (7.0 + numeric @ [0.3, -0.1, 0.8] + rng.normal(0.0, 0.3, 5)[a]
         + rng.normal(0.0, 0.2, 3)[c] + 0.2 * rng.standard_normal(n))
    return X, y


@pytest.mark.parametrize("lam,alpha", [(0.0, 0.5), (1e-3, 0.0), (1e-3, 1.0),
                                       (0.02, 0.5), (0.3, 1.0), (5.0, 0.3)])
@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("constant_column", [False, True])
def test_active_set_meets_kkt_to_rounding(lam, alpha, standardize, constant_column):
    X, y = _oracle_instance(31, constant_column)
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, standardize_internally=standardize)
    assert _takes_the_active_set(X, y, cfg)
    model = fit_elastic_net(X, y, cfg)
    assert model.sweeps_used < cfg.max_iter
    assert kkt_max_violation(X, y, model, cfg) <= 1e-12
    if constant_column:
        assert model.coefficients[3] == 0.0


@pytest.mark.parametrize("standardize", [True, False])
def test_active_set_equals_ols_and_the_ridge_closed_form(standardize):
    rng = np.random.default_rng(10)
    X, y = random_instance(rng, n=60, p=4, noise=0.1)
    ols = fit_elastic_net(X, y, ElasticNetConfig(lam=0.0, standardize_internally=standardize))
    b0, coef = ols_oracle(X, y)
    np.testing.assert_allclose(ols.coefficients, coef, rtol=0, atol=1e-12)
    assert ols.intercept == pytest.approx(b0, rel=0, abs=1e-12)

    lam = 0.3
    ridge = fit_elastic_net(X, y, ElasticNetConfig(lam=lam, alpha=0.0,
                                                   standardize_internally=standardize))
    Xs, x_mean, scale = _working_space(X, standardize)
    n, p = X.shape
    closed = np.linalg.solve(Xs.T @ Xs / n + lam * np.eye(p), Xs.T @ (y - y.mean()) / n) / scale
    np.testing.assert_allclose(ridge.coefficients, closed, rtol=0, atol=1e-12)
    assert ridge.intercept == pytest.approx(y.mean() - closed @ x_mean, rel=0, abs=1e-12)
    assert ols.sweeps_used == ridge.sweeps_used == 1  # one solve of every column


def near_collinear_instance(seed=43, n=90):
    """Two columns 1e-7 apart: their block factors, but with a pivot² near
    1e-14 of its diagonal, which counts as singular."""
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, n=n, p=4, noise=0.3)
    X[:, 1] = X[:, 0] + 1e-7 * rng.standard_normal(n)
    return X, y


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("instance", [one_hot_instance, near_collinear_instance],
                         ids=["one_hot", "near_collinear"])
def test_singular_lasso_falls_back_to_the_descent(standardize, instance):
    X, y = instance()
    lasso = ElasticNetConfig(lam=1e-3, alpha=1.0, standardize_internally=standardize)
    assert not _takes_the_active_set(X, y, lasso)
    setup = prepare_fit(X, y, standardize)
    for model in (fit_elastic_net(X, y, lasso), fit_elastic_net(X, y, lasso, setup=setup)):
        _assert_same_fit(model, oracle_fit(X, y, lasso))
    # the penalty's ridge part makes every block regular
    assert _takes_the_active_set(X, y, replace(lasso, alpha=0.99))


def test_shared_setup_equals_a_fresh_active_set_fit():
    X, y = _oracle_instance(34)
    for flag in (True, False):
        setup = prepare_fit(X, y, flag)
        for lam, alpha in itertools.product((0.0, 1e-3, 0.1), (0.0, 0.5, 1.0)):
            cfg = ElasticNetConfig(lam=lam, alpha=alpha, standardize_internally=flag)
            assert _takes_the_active_set(X, y, cfg)
            _assert_same_fit(fit_elastic_net(X, y, cfg, setup=setup), fit_elastic_net(X, y, cfg))


@pytest.fixture(scope="module")
def demo_design(tmp_path_factory):
    """The demo panel's training design: make_synthetic_panel.py defaults,
    at the strategy of its config."""
    from wqpanel import tuner
    from wqpanel.cli import _read_panels
    from wqpanel.run_config import load_run_config

    out = tmp_path_factory.mktemp("demo")
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_panel.py"
    subprocess.run([sys.executable, str(script), "--out", str(out)], check=True,
                   stdout=subprocess.DEVNULL)
    cfg = load_run_config(out / "config.json")
    [train] = _read_panels(cfg, ("train",))
    design, _ = tuner.prepare_designs(train, cfg.strategy_config(cfg.strategy))
    return design.X, design.y


# the elastic-net grid of perfbench's linear100x workload
LINEAR100X_GRID = {"lam": [1e-4, 1e-3, 1e-2, 1e-1, 1.0], "alpha": [0.5, 1.0]}
GRID_CONFIGS = list(dict.fromkeys([
    *itertools.product(en.DEFAULT_LAMBDA_GRID, en.DEFAULT_ALPHA_GRID),
    *itertools.product(LINEAR100X_GRID["lam"], LINEAR100X_GRID["alpha"])]))


@pytest.mark.parametrize("design", ["demo", "one_hot"])
@pytest.mark.parametrize("lam,alpha", GRID_CONFIGS)
def test_every_grid_config_meets_kkt(request, design, lam, alpha):
    if (design, lam, alpha) == ("one_hot", 1e-4, 1.0):
        request.applymarker(pytest.mark.xfail(strict=True, reason=(
            "a singular lasso block falls back to the descent, which stops "
            "at max_iter here with a KKT violation of 6.7e-5")))
    X, y = request.getfixturevalue("demo_design") if design == "demo" else one_hot_instance()
    cfg = ElasticNetConfig(lam=lam, alpha=alpha)
    model = fit_elastic_net(X, y, cfg)
    assert kkt_max_violation(X, y, model, cfg) <= 10 * cfg.tol


def test_active_set_meets_kkt_on_drawn_designs():
    # column scales from 0.01 to 100, correlated columns, complete one-hot
    # blocks and constant columns; joiners that come out of their sign,
    # steps that join one coefficient alone and coefficients that reach
    # zero together all occur among these draws
    rng = np.random.default_rng(2024)
    for _ in range(600):
        n, p = int(rng.integers(5, 80)), int(rng.integers(1, 25))
        X = rng.standard_normal((n, p)) * rng.choice([0.01, 1.0, 100.0], p)
        if rng.random() < 0.5:
            X[:, 1:] += 5.0 * rng.random() * X[:, :1]
        if p > 3 and rng.random() < 0.3:
            levels = int(rng.integers(2, min(p, 6) + 1))
            X[:, :levels] = np.eye(levels)[rng.integers(0, levels, n)]
        if rng.random() < 0.2:
            X[:, -1] = 3.3
        y = rng.random() * X @ rng.standard_normal(p) + 3.0 * rng.random() * rng.standard_normal(n)
        cfg = ElasticNetConfig(lam=float(rng.choice([0.0, 1e-4, 1e-2, 1.0]) * 2.0 * rng.random()),
                               alpha=float(rng.choice([0.0, 0.5, 0.9, 1.0])),
                               standardize_internally=bool(rng.random() < 0.6))
        if _takes_the_active_set(X, y, cfg):
            model = fit_elastic_net(X, y, cfg)
            scale = max(1.0, float(np.abs(prepare_fit(X, y, cfg.standardize_internally).xy).max()))
            assert model.sweeps_used < cfg.max_iter
            assert kkt_max_violation(X, y, model, cfg) <= 1e-10 * scale
